(** The three benchmark workloads, one pass at a time.

    A pass is prepared (inputs generated, specs parsed, scheduler or server
    created: the set-up the benchmark reports as [setup_s]) and then run.
    Every run checks its outputs with {!Check}. Searches are bounded by
    configuration budgets only, never by wall-clock limits, so a pass does
    the same work on any machine. *)

type kind = Corpus_search | Corpus_validate | Serve_edit

val kinds : (string * kind) list
(** Workload names as given to [--workload]. *)

type prepared

val prepare : ?entries:Corpus.entry list -> kind -> seed:int -> jobs:int -> prepared
(** Make one pass's inputs from [seed] and create the program's scheduler
    or server. [entries] (default: the whole corpus) restricts the grammars,
    for tests. *)

type pass = {
  wall : float;
      (** seconds: the batch plus oracle and JSON emission (corpus), or
          the sum of request latencies (serve) *)
  miss_ms : float list;
      (** uncached work: each conflict's search time (corpus), each cold or
          first-sent request (serve) *)
  hit_ms : float list;
      (** exact repeats served from the report cache: each grammar's
          fastest over the repeat rounds (corpus), each repeated request
          (serve) *)
  attempted : int;
      (** conflicts plus repeated grammars (corpus), requests (serve) *)
  failures : string list;  (** one message per failed attempted unit *)
  conflicts : int;
  decided : int;  (** unifying or proven nonunifying *)
  peak_rss_mb : float;
      (** the pass process's peak resident set (VmHWM) at the end of its
          work, before the corpus repeat rounds *)
  layers : (string * float) list;
      (** per-layer sums, sorted by name: the program's trace stages and
          counters, plus the benchmark's own timers when traced *)
}

val run : traced:bool -> prepared -> pass
(** Run the prepared pass. [traced] adds the benchmark's own timers around
    calls into the oracle, the spec parser and report emission, and GC
    counters; the program's own trace stages are collected either way. *)

val timed : (unit -> 'a) -> 'a * float
(** [f]'s result and its wall-clock time in seconds. *)

val median : float list -> float
(** Median; 0 for the empty list. *)
