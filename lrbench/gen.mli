(** Seeded input generation for the benchmark workloads.

    Everything here is a pure function of the seed and the built-in
    evaluation corpus: the same seed yields a byte-identical input stream,
    and the program under test receives only the generated inputs. *)

val rng : int -> Random.State.t
(** The benchmark's random state for a workload seed. *)

val shuffle : Random.State.t -> 'a list -> 'a list
(** Fisher-Yates permutation. *)

val corpus : seed:int -> Corpus.entry list
(** The 42 Table-1 corpus grammars in a seeded order. *)

type edit = {
  lhs : string;  (** nonterminal that gains the alternative *)
  alt : string list;  (** the new alternative, 1 to 3 existing symbols *)
  spec : string;  (** the edited grammar, rendered by {!Cfg.Export.to_spec} *)
}

val edits : Random.State.t -> Corpus.entry -> int -> edit list
(** [edits rng entry n]: [n] distinct one-production edits of [entry]. Each
    appends one alternative to a seeded nonterminal, built only from
    symbols already in the grammar, and is kept only if the rendered spec
    re-parses with the base grammar's exact symbol table (the precondition
    of the server's delta path) and adds at most 8 conflicts to the base
    grammar's LALR table. An alternative that already exists, or
    the unit self-loop [A : A], is redrawn. *)

val same_symbols : Cfg.Grammar.t -> Cfg.Grammar.t -> bool
(** Identical terminal and nonterminal tables, in index order. *)

type request = {
  id : string;  (** the request's ["id"] *)
  line : string;  (** one NDJSON [analyze] request *)
  spec : string;  (** the grammar text the request carries *)
  kind : [ `Cold | `Edit | `Repeat of string ];
      (** a repeat names the id of the edit it sends again *)
  grammar : string;  (** the corpus entry the request belongs to *)
}

val serve_stream : ?entries:Corpus.entry list -> seed:int -> unit -> request list
(** The [serve_edit] request stream. For every corpus grammar except
    Java.2 (or of [entries]), in seeded order: one cold analyze of the
    corpus source, then each seeded edit (a cache write, served by the delta
    or cold path), then each edit again (an exact repeat the report cache
    must serve). *)
