(** Output checks run on every benchmark pass. Each function returns one
    message per failed check; [[]] means the unit passed. A failing unit
    counts once in the result's [failed] and fails the run. *)

val conflict_report : Cex.Driver.conflict_report -> string list
(** The conflict carries a counterexample, its search did not crash, and
    the oracle, if it ran, accepted the counterexample. *)

val response : Cex_service.Json.t -> string list
(** A serve response is [ok], and every conflict in its result carries a
    counterexample and did not crash. *)

val repeat : first:Cex_service.Json.t -> repeat:Cex_service.Json.t -> string list
(** The repeat was served from the report cache, and its result is
    byte-identical to the first send's (cache flag aside). *)

val member : string list -> Cex_service.Json.t -> Cex_service.Json.t option
(** The value at a path of object keys, if every key is present. *)
