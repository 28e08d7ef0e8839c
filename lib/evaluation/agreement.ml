(* Corpus-wide product-vs-srwalk agreement check.

   Every conflict of every corpus grammar is decided twice — once by the
   product search, once by the SR-automaton walk — under the same
   configuration budget and no wall-clock deadline, so the comparison is
   fully deterministic. The two engines deliberately share move semantics
   and exploration order (see lib/srwalk/walk.mli), so any disagreement in
   outcome category is a bug in one of the implementations. Every unifying
   witness the walk produces is additionally re-checked by the independent
   validation oracle. *)

open Automaton

let default_max_configs = 10_000

type summary = {
  grammars : int;
  conflicts : int;
  pathless : int;  (** conflicts with no lookahead-sensitive path *)
  unifying : int;  (** conflicts both engines decided Ambiguous/Unifying *)
  exhausted : int;
  capped : int;  (** conflicts where both engines hit the budget *)
  problems : string list;  (** empty = full agreement, all witnesses valid *)
}

let outcome_name = function
  | `Unifying -> "unifying"
  | `Exhausted -> "exhausted"
  | `Capped -> "capped"

let category = function
  | Cex.Product_search.Unifying _ -> `Unifying
  | Cex.Product_search.Exhausted _ -> `Exhausted
  | Cex.Product_search.Timeout _ -> `Capped

let check_conflict ~max_configs g lalr sr oracle problems counts name
    (c : Conflict.t) =
  let problem fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  match
    Cex.Lookahead_path.find lalr ~conflict_state:c.Conflict.state
      ~reduce_item:(Conflict.reduce_item c) ~terminal:c.Conflict.terminal
  with
  | None ->
    let pathless, _, _, _ = counts in
    incr pathless
  | Some path ->
    let path_states = Cex.Lookahead_path.states_on_path path in
    (* No deadline on either side: outcomes must be decided by the
       configuration budget alone, or the comparison would be flaky. *)
    let p =
      Cex.Product_search.search ~max_configs lalr ~conflict:c ~path_states
    in
    let s =
      Cex_srwalk.Differential.search ~max_configs sr ~conflict:c ~path_states
    in
    let pc = category p and sc = category s in
    if pc <> sc then
      problem "%s state %d on %s: product %s vs srwalk %s" name
        c.Conflict.state
        (Cfg.Grammar.terminal_name g c.Conflict.terminal)
        (outcome_name pc) (outcome_name sc)
    else begin
      let _, unifying, exhausted, capped = counts in
      (match pc with
      | `Unifying -> incr unifying
      | `Exhausted -> incr exhausted
      | `Capped -> incr capped);
      match s with
      | Cex.Product_search.Unifying (u, _) -> (
        match Cex_validate.Oracle.check_unifying (Lazy.force oracle) u with
        | [] -> ()
        | codes ->
          problem "%s state %d on %s: oracle rejects the srwalk witness: %s"
            name c.Conflict.state
            (Cfg.Grammar.terminal_name g c.Conflict.terminal)
            (String.concat ", " codes))
      | Cex.Product_search.Timeout _ | Cex.Product_search.Exhausted _ -> ()
    end

let run ?(max_configs = default_max_configs) () =
  let problems = ref [] in
  let grammars = ref 0 in
  let conflicts = ref 0 in
  let pathless = ref 0 in
  let unifying = ref 0 in
  let exhausted = ref 0 in
  let capped = ref 0 in
  let counts = (pathless, unifying, exhausted, capped) in
  List.iter
    (fun (entry : Corpus.entry) ->
      incr grammars;
      let g = Corpus.grammar entry in
      let table = Parse_table.build g in
      let lalr = Parse_table.lalr table in
      let sr = Cex_srwalk.Sr_automaton.of_lalr lalr in
      let oracle = lazy (Cex_validate.Oracle.create table) in
      List.iter
        (fun c ->
          incr conflicts;
          check_conflict ~max_configs g lalr sr oracle problems counts
            entry.Corpus.name c)
        (Parse_table.conflicts table))
    (Corpus.all ());
  { grammars = !grammars;
    conflicts = !conflicts;
    pathless = !pathless;
    unifying = !unifying;
    exhausted = !exhausted;
    capped = !capped;
    problems = List.rev !problems }

let pp_summary ppf s =
  Fmt.pf ppf
    "@[<v>%d grammars, %d conflicts: %d unifying, %d exhausted, %d capped, \
     %d pathless; %d problem%s@]"
    s.grammars s.conflicts s.unifying s.exhausted s.capped s.pathless
    (List.length s.problems)
    (if List.length s.problems = 1 then "" else "s")
