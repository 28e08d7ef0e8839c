
open Automaton
module Session = Cex_session.Session
module Clock = Cex_session.Clock
module Deadline = Cex_session.Deadline
module Trace = Cex_session.Trace
module Pool = Cex_session.Pool

type options = {
  per_conflict_timeout : float;
  cumulative_timeout : float;
  extended : bool;
  costs : Product_search.costs;
  max_configs : int;
}

let default_options =
  { per_conflict_timeout = 5.0;
    cumulative_timeout = 120.0;
    extended = false;
    costs = Product_search.default_costs;
    max_configs = 400_000 }

type outcome =
  | Found_unifying
  | No_unifying_exists
  | Search_timeout
  | Skipped_search
  | Search_crashed

type counterexample =
  | Unifying of Product_search.unifying
  | Nonunifying of Nonunifying.t

type validation =
  | Not_validated
  | Validated
  | Validation_failed of string list

type conflict_report = {
  conflict : Conflict.t;
  classification : string;
  counterexample : counterexample option;
  outcome : outcome;
  elapsed : float;
  configs_explored : int;
  failure : string option;
  validation : validation;
}

type report = {
  table : Parse_table.t;
  conflict_reports : conflict_report list;
  total_elapsed : float;
  metrics : Trace.metrics;
}

let grammar r = Parse_table.grammar r.table

let count outcome r =
  List.length (List.filter (fun cr -> cr.outcome = outcome) r.conflict_reports)

let n_unifying = count Found_unifying
let n_nonunifying = count No_unifying_exists

(* Skipped searches (budget exhausted before the conflict was even
   attempted) used to be folded into this count, inflating the "timed out"
   summary; they are now reported separately by {!n_skipped}. *)
let n_timeout = count Search_timeout
let n_skipped = count Skipped_search
let n_crashed = count Search_crashed

(* ------------------------------------------------------------------ *)
(* Session-owned shared search structures. Both are lazily installed in the
   session's universal store on first use and immutable-after-force (the
   path memo table grows, but each installed path is final), so every
   conflict of a session — analyzed sequentially or across domains — shares
   them. *)

type path_memo = {
  memo_lock : Mutex.t;
  (* (conflict state, reduce item id, conflict terminal) -> shortest path.
     Shift/reduce conflicts are recorded once per shift item, so a state
     with several shift items on the same terminal shares one entry. *)
  memo_tbl : (int * int * int, Lookahead_path.t) Hashtbl.t;
}

let path_memo_key : path_memo Session.Store.key = Session.Store.key ()

let shared_ctx_key : Product_search.shared Session.Store.key =
  Session.Store.key ()

let path_memo session =
  Session.shared session path_memo_key (fun () ->
      { memo_lock = Mutex.create (); memo_tbl = Hashtbl.create 16 })

let shared_ctx session =
  Session.shared session shared_ctx_key (fun () ->
      Product_search.shared_of_lalr (Session.lalr session))

(* The shortest lookahead-sensitive path for a conflict, through the session
   memo. On a miss the search runs with a buffered local collector; only the
   domain whose result is installed (first writer wins) flushes the span and
   counters into [trace], so metric totals are identical at any jobs count —
   exactly one emission per distinct key, whichever domain computed it.
   Failed searches ([None]: deadline expiry) are never memoized, so a later
   attempt under a fresh budget can still succeed. *)
let find_path ~per_conflict session trace conflict =
  let clock = Session.clock session in
  let lalr = Session.lalr session in
  let lr0 = Session.lr0 session in
  let state = conflict.Conflict.state in
  let terminal = conflict.Conflict.terminal in
  let reduce_item = Conflict.reduce_item conflict in
  let reduce_id = Lr0.item_id lr0 reduce_item in
  let key = (state, reduce_id, terminal) in
  let memo = path_memo session in
  let lookup () =
    Mutex.lock memo.memo_lock;
    let r = Hashtbl.find_opt memo.memo_tbl key in
    Mutex.unlock memo.memo_lock;
    r
  in
  match lookup () with
  | Some path -> Some path
  | None ->
    let local = Trace.collector () in
    let t0 = Clock.now clock in
    let w0 = Gc.minor_words () in
    let relevant =
      Session.backward_reach session ~state ~item_id:reduce_id
    in
    let path =
      Lookahead_path.find ~deadline:per_conflict
        ~trace:(Trace.collector_sink local) ~relevant lalr
        ~conflict_state:state ~reduce_item ~terminal
    in
    let words = int_of_float (Gc.minor_words () -. w0) in
    let seconds = Clock.now clock -. t0 in
    let emit () =
      Trace.span trace "path_search" seconds;
      Trace.count trace "path_search" "alloc_words" words;
      Trace.replay_counters trace (Trace.metrics local)
    in
    (match path with
    | None ->
      emit ();
      None
    | Some p ->
      Mutex.lock memo.memo_lock;
      let installed =
        match Hashtbl.find_opt memo.memo_tbl key with
        | Some existing -> existing
        | None ->
          Hashtbl.add memo.memo_tbl key p;
          p
      in
      Mutex.unlock memo.memo_lock;
      if installed == p then emit ();
      Some installed)

(* The analysis of one conflict. The search stages go through a sink
   prefixed ["product."] (["product.search"], ["product.nonunifying"]), the
   stage names the bench JSON and the trace consumers key on; the shared
   ["path_search"] memo stage stays unprefixed. *)
let analyze_conflict ?(options = default_options) ?(skip_search = false)
    ?(deadline = Deadline.never) ?trace session conflict =
  let clock = Session.clock session in
  let trace =
    match trace with Some sink -> sink | None -> Session.trace session
  in
  let etrace = Trace.prefixed "product." trace in
  let lalr = Session.lalr session in
  let started = Clock.now clock in
  (* Static conflict classification (the lint engine's pattern match) rides
     along with every report: computed once at session construction, it costs
     no search time and lets batch users triage conflicts without reading
     each counterexample. *)
  let classification = Session.classification session conflict in
  (* The per-conflict deadline is the cumulative one clamped to the
     per-conflict timeout, so a single slow conflict cannot overshoot the
     batch budget. *)
  let per_conflict, budget_exhausted =
    Deadline.clamp deadline ~clock ~seconds:options.per_conflict_timeout
  in
  let finish counterexample outcome configs =
    let elapsed = Clock.now clock -. started in
    Deadline.consume deadline elapsed;
    { conflict; classification; counterexample; outcome; elapsed;
      configs_explored = configs; failure = None;
      validation = Not_validated }
  in
  let fallback outcome configs =
    let counterexample =
      Trace.timed etrace clock "nonunifying" (fun () ->
          match Nonunifying.construct lalr conflict with
          | Some nu -> Some (Nonunifying nu)
          | None -> None)
    in
    finish counterexample outcome configs
  in
  if skip_search || budget_exhausted then fallback Skipped_search 0
  else
    match find_path ~per_conflict session trace conflict with
    | None -> fallback Search_timeout 0
    | Some path -> (
      let path_states = Lookahead_path.states_on_path path in
      let shared = shared_ctx session in
      match
        Trace.timed_alloc etrace clock "search" (fun () ->
            Product_search.search ~costs:options.costs
              ~extended:options.extended ~deadline:per_conflict ~trace:etrace
              ~max_configs:options.max_configs ~shared lalr ~conflict
              ~path_states)
      with
      | Product_search.Unifying (u, stats) ->
        finish (Some (Unifying u)) Found_unifying
          stats.Product_search.configs_explored
      | Product_search.Timeout stats ->
        fallback Search_timeout stats.Product_search.configs_explored
      | Product_search.Exhausted stats ->
        fallback No_unifying_exists stats.Product_search.configs_explored)

(* A structured stand-in for a conflict whose search crashed: the worker
   pool converts the exception into this report instead of aborting the
   whole batch and losing every completed result. *)
let crashed_conflict_report session conflict exn backtrace =
  { conflict;
    classification = Session.classification session conflict;
    counterexample = None;
    outcome = Search_crashed;
    elapsed = 0.0;
    configs_explored = 0;
    failure =
      Some
        (if backtrace = "" then Printexc.to_string exn
         else Printexc.to_string exn ^ "\n" ^ backtrace);
    validation = Not_validated }

(* The one conflict fan-out: every conflict of every session in one pool
   run, under one cumulative budget per session. A task pulls its
   (session, conflict) pair from the flattened index, so the pool balances
   a batch's slow grammar against its fast ones; results land back in
   per-session arrays in conflict order regardless of which domain ran
   what. A crash in one task degrades to a [Search_crashed] report instead
   of poisoning the run. *)
let search_conflicts ?(options = default_options) ?(jobs = 1) ?on_dequeue
    batch =
  let budgets =
    Array.map
      (fun (session, _) ->
        Deadline.budget (Session.clock session) options.cumulative_timeout)
      batch
  in
  let tasks =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun s (_, conflicts) ->
              Array.init (Array.length conflicts) (fun k -> (s, k)))
            batch))
  in
  let n = Array.length tasks in
  (* Clamp like the pool will, so the per-task collector buffering below
     is only paid when domains will actually run concurrently. *)
  let jobs = Pool.clamp_jobs (min jobs (max 1 n)) in
  (* Per-task collectors, merged in conflict order after the join: the
     worker domains never contend on a session collector's lock, and the
     merged totals are independent of domain scheduling. A session with an
     external sink receives its tasks' emissions directly. *)
  let locals =
    Array.map
      (fun (s, _) ->
        if jobs > 1 && Session.has_private_collector (fst batch.(s)) then
          Some (Trace.collector ())
        else None)
      tasks
  in
  let results =
    Pool.run ?on_dequeue ~jobs n (fun i ->
        let s, k = tasks.(i) in
        let session, conflicts = batch.(s) in
        let conflict = conflicts.(k) in
        let trace = Option.map Trace.collector_sink locals.(i) in
        try
          analyze_conflict ~options ~deadline:budgets.(s) ?trace session
            conflict
        with e ->
          crashed_conflict_report session conflict e
            (Printexc.get_backtrace ()))
  in
  Array.iteri
    (fun i local ->
      Option.iter
        (fun local ->
          let session, _ = batch.(fst tasks.(i)) in
          Session.absorb_metrics session (Trace.metrics local))
        local)
    locals;
  let first = ref 0 in
  Array.map
    (fun (_, conflicts) ->
      let m = Array.length conflicts in
      let reports = Array.sub results !first m in
      first := !first + m;
      reports)
    batch

let analyze_session ?options ?jobs session =
  let clock = Session.clock session in
  let started = Clock.now clock in
  let conflicts = Array.of_list (Session.conflicts session) in
  let reports = search_conflicts ?options ?jobs [| (session, conflicts) |] in
  { table = Session.table session;
    conflict_reports = Array.to_list reports.(0);
    total_elapsed = Clock.now clock -. started;
    metrics = Session.metrics session }

let analyze ?options ?jobs g = analyze_session ?options ?jobs (Session.create g)
