open Cfg
open Cex_session

(* The SR-automaton walk, the differential check of the product search:
   verdict and exploration-count agreement with the product search, and
   deterministic deadline behaviour on a fake clock. The corpus-wide
   agreement check runs both searches on all 800+ conflicts under a
   configuration budget — no wall-clock anywhere, so every test here is
   bit-deterministic. *)

let feq = Alcotest.float 1e-9

let figure1 () =
  Spec_parser.grammar_of_string_exn Corpus.Paper_grammars.figure1

(* Every figure-1 conflict with its shortest-path states. *)
let figure1_conflicts () =
  let table = Automaton.Parse_table.build (figure1 ()) in
  let lalr = Automaton.Parse_table.lalr table in
  let conflicts =
    List.map
      (fun c ->
        let path =
          Option.get
            (Cex.Lookahead_path.find lalr
               ~conflict_state:c.Automaton.Conflict.state
               ~reduce_item:(Automaton.Conflict.reduce_item c)
               ~terminal:c.Automaton.Conflict.terminal)
        in
        (c, Cex.Lookahead_path.states_on_path path))
      (Automaton.Parse_table.conflicts table)
  in
  (table, lalr, conflicts)

let verdict = function
  | Cex.Product_search.Unifying (_, s) ->
    ("unifying", s.Cex.Product_search.configs_explored)
  | Cex.Product_search.Exhausted s ->
    ("exhausted", s.Cex.Product_search.configs_explored)
  | Cex.Product_search.Timeout s ->
    ("timeout", s.Cex.Product_search.configs_explored)

(* ------------------------------------------------------------------ *)
(* The walk on figure 1. *)

let test_srwalk_engine () =
  let table, lalr, conflicts = figure1_conflicts () in
  let sr = Cex_srwalk.Sr_automaton.of_lalr lalr in
  let oracle = Cex_validate.Oracle.create table in
  Alcotest.(check int) "three conflicts" 3 (List.length conflicts);
  List.iter
    (fun (c, path_states) ->
      match Cex_srwalk.Differential.search sr ~conflict:c ~path_states with
      | Cex.Product_search.Unifying (u, _) ->
        (* The oracle must accept every walk-produced counterexample. *)
        Alcotest.(check (list string)) "oracle accepts the witness" []
          (Cex_validate.Oracle.check_unifying oracle u)
      | Cex.Product_search.Exhausted _ | Cex.Product_search.Timeout _ ->
        Alcotest.fail "every figure-1 conflict is unifying")
    conflicts

let test_engines_agree () =
  let _, lalr, conflicts = figure1_conflicts () in
  let sr = Cex_srwalk.Sr_automaton.of_lalr lalr in
  let verdicts search =
    List.map (fun (c, path_states) -> verdict (search c path_states)) conflicts
  in
  (* Same verdict AND same explored-configuration count on every conflict:
     the walk deliberately mirrors the product search's exploration order. *)
  Alcotest.(check (list (pair string int)))
    "verdicts and exploration counts coincide"
    (verdicts (fun c path_states ->
         Cex.Product_search.search lalr ~conflict:c ~path_states))
    (verdicts (fun c path_states ->
         Cex_srwalk.Differential.search sr ~conflict:c ~path_states))

(* ------------------------------------------------------------------ *)
(* Deterministic deadline expiry, as for the product search: an expired
   per-conflict deadline must not explore a single node. With auto-advance
   3.0 and the deadline at instant 2.0 the reads are scripted — [started]
   reads 0.0, the entry check reads 3.0 (expired), the stats read 6.0. *)

let test_walk_entry_check () =
  let g = figure1 () in
  let table = Automaton.Parse_table.build g in
  let lalr = Automaton.Parse_table.lalr table in
  let sr = Cex_srwalk.Sr_automaton.of_lalr lalr in
  let c = List.hd (Automaton.Parse_table.conflicts table) in
  let path =
    Option.get
      (Cex.Lookahead_path.find lalr ~conflict_state:c.Automaton.Conflict.state
         ~reduce_item:(Automaton.Conflict.reduce_item c)
         ~terminal:c.Automaton.Conflict.terminal)
  in
  let clock, _fake = Clock.fake ~auto_advance:3.0 () in
  match
    Cex_srwalk.Walk.search
      ~deadline:(Deadline.at clock 2.0)
      sr ~conflict:c
      ~path_states:(Cex.Lookahead_path.states_on_path path)
  with
  | Cex_srwalk.Walk.Timeout stats ->
    Alcotest.(check int) "no node explored" 0
      stats.Cex_srwalk.Walk.nodes_explored;
    Alcotest.check feq "elapsed at the exact simulated instant" 6.0
      stats.Cex_srwalk.Walk.elapsed
  | Cex_srwalk.Walk.Ambiguous _ | Cex_srwalk.Walk.Exhausted _ ->
    Alcotest.fail "expired deadline must time out"

(* ------------------------------------------------------------------ *)
(* Corpus-wide agreement: every conflict of every corpus grammar decided by
   both engines under one configuration budget — same verdict everywhere,
   and every srwalk witness passes the oracle. *)

let test_corpus_agreement () =
  let s = Evaluation.Agreement.run () in
  Alcotest.(check int) "whole corpus covered" 833
    s.Evaluation.Agreement.conflicts;
  List.iter
    (fun p -> Fmt.epr "agreement problem: %s@." p)
    s.Evaluation.Agreement.problems;
  Alcotest.(check int) "no divergence, no invalid witness" 0
    (List.length s.Evaluation.Agreement.problems)

let suite =
  ( "srwalk",
    [ Alcotest.test_case "srwalk engine on figure 1" `Quick
        test_srwalk_engine;
      Alcotest.test_case "engines agree conflict-by-conflict" `Quick
        test_engines_agree;
      Alcotest.test_case "walk: deadline entry check" `Quick
        test_walk_entry_check;
      Alcotest.test_case "corpus-wide agreement" `Slow
        test_corpus_agreement ] )
