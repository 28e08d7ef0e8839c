(* Tests of the benchmark's own generators and checks. *)

open Lrbench
module Json = Cex_service.Json

let small = List.map Corpus.find [ "figure1"; "stackovf10"; "eqn"; "SQL.5" ]
let lines s = List.map (fun r -> r.Gen.line) s

let test_same_seed_same_stream () =
  let a = Gen.serve_stream ~seed:7 () and b = Gen.serve_stream ~seed:7 () in
  Alcotest.(check string) "byte-identical" (String.concat "\n" (lines a)) (String.concat "\n" (lines b));
  Alcotest.(check (list string))
    "same corpus order"
    (List.map (fun e -> e.Corpus.name) (Gen.corpus ~seed:7))
    (List.map (fun e -> e.Corpus.name) (Gen.corpus ~seed:7))

let test_seeds_differ () =
  Alcotest.(check bool)
    "serve streams differ" false
    (lines (Gen.serve_stream ~entries:small ~seed:1 ()) = lines (Gen.serve_stream ~entries:small ~seed:2 ()));
  Alcotest.(check bool)
    "corpus orders differ" false
    (List.map (fun e -> e.Corpus.name) (Gen.corpus ~seed:1)
    = List.map (fun e -> e.Corpus.name) (Gen.corpus ~seed:2))

(* Every edit of the full stream parses, keeps the base grammar's symbol
   table, and reaches the server as a well-formed analyze request. *)
let test_edits_parse () =
  let stream = Gen.serve_stream ~seed:3 () in
  let edits = List.filter (fun r -> r.Gen.kind = `Edit) stream in
  Alcotest.(check bool) "has edits" true (List.length edits > 100);
  List.iter
    (fun (r : Gen.request) ->
      let base = Corpus.grammar (Corpus.find r.Gen.grammar) in
      (match Cfg.Spec_parser.grammar_of_string r.Gen.spec with
      | Ok g ->
        Alcotest.(check bool) (r.Gen.grammar ^ " keeps symbols") true (Gen.same_symbols base g);
        Alcotest.(check int)
          (r.Gen.grammar ^ " adds one production")
          (Cfg.Grammar.n_productions base + 1)
          (Cfg.Grammar.n_productions g)
      | Error msg -> Alcotest.failf "%s: edit does not parse: %s" r.Gen.grammar msg);
      match Cex_serve.Protocol.parse_request r.Gen.line with
      | Ok (Cex_serve.Protocol.Analyze a) ->
        Alcotest.(check string) "spec on the wire" r.Gen.spec a.Cex_serve.Protocol.spec
      | _ -> Alcotest.fail "not an analyze request")
    edits

let counters (p : Workload.pass) =
  let layer k = Option.value ~default:0.0 (List.assoc_opt k p.Workload.layers) in
  (layer "product_search.configs_explored", layer "path_search.pops", p.Workload.decided, p.Workload.conflicts)

let pass kind seed =
  Workload.run ~traced:false (Workload.prepare ~entries:small kind ~seed ~jobs:2)

let counters_t = Alcotest.(pair (pair (float 0.0) (float 0.0)) (pair int int))
let split (a, b, c, d) = ((a, b), (c, d))

let test_corpus_counters_repeat () =
  let a = pass Workload.Corpus_search 1 and b = pass Workload.Corpus_search 2 in
  Alcotest.(check (list string)) "no failures" [] (a.Workload.failures @ b.Workload.failures);
  Alcotest.(check bool) "searched" true (let c, _, _, _ = counters a in c > 0.0);
  Alcotest.check counters_t "same work in any order" (split (counters a)) (split (counters b))

let test_serve_counters_repeat () =
  let a = pass Workload.Serve_edit 5 and b = pass Workload.Serve_edit 5 in
  Alcotest.(check (list string)) "no failures" [] (a.Workload.failures @ b.Workload.failures);
  Alcotest.(check bool) "searched" true (let _, p, _, _ = counters a in p > 0.0);
  Alcotest.check counters_t "same work for one seed" (split (counters a)) (split (counters b))

let ok_response =
  Json.of_string
    {|{"id":"x","ok":true,"served":"delta","result":{"grammar":"g","from_cache":false,
       "conflicts":[{"state":3,"outcome":"found_unifying","counterexample":{"type":"unifying"}}]}}|}

let with_field k v = function
  | Json.Obj fields -> Json.Obj (List.map (fun (k', v') -> if k = k' then (k, v) else (k', v')) fields)
  | j -> j

let test_checks_reject () =
  Alcotest.(check (list string)) "good response" [] (Check.response ok_response);
  let nonempty what l = Alcotest.(check bool) what true (l <> []) in
  nonempty "error response"
    (Check.response (Json.of_string {|{"id":"x","ok":false,"error":{"code":"parse-error"}}|}));
  nonempty "missing counterexample"
    (Check.response
       (Json.of_string
          {|{"ok":true,"result":{"conflicts":[{"state":1,"outcome":"search_timeout","counterexample":null}]}}|}));
  nonempty "crashed search"
    (Check.response
       (Json.of_string
          {|{"ok":true,"result":{"conflicts":[{"state":1,"outcome":"search_crashed","counterexample":{}}]}}|}));
  let cached = with_field "served" (Json.String "report_cache") ok_response in
  Alcotest.(check (list string)) "good repeat" [] (Check.repeat ~first:ok_response ~repeat:cached);
  nonempty "repeat not from the cache" (Check.repeat ~first:ok_response ~repeat:ok_response);
  nonempty "repeat differs"
    (Check.repeat ~first:ok_response
       ~repeat:(with_field "result" (Json.Obj [ ("conflicts", Json.List []) ]) cached));
  let report = Cex.Driver.analyze (Corpus.grammar (Corpus.find "figure1")) in
  let cr = List.hd report.Cex.Driver.conflict_reports in
  Alcotest.(check (list string)) "good conflict" [] (Check.conflict_report cr);
  nonempty "no counterexample" (Check.conflict_report { cr with Cex.Driver.counterexample = None });
  nonempty "crashed" (Check.conflict_report { cr with Cex.Driver.outcome = Cex.Driver.Search_crashed });
  nonempty "oracle rejected"
    (Check.conflict_report { cr with Cex.Driver.validation = Cex.Driver.Validation_failed [ "x" ] })

let () =
  Alcotest.run "lrbench"
    [ ( "gen",
        [ Alcotest.test_case "same seed same stream" `Quick test_same_seed_same_stream;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "edits parse" `Quick test_edits_parse ] );
      ( "workload",
        [ Alcotest.test_case "corpus counters repeat" `Quick test_corpus_counters_repeat;
          Alcotest.test_case "serve counters repeat" `Quick test_serve_counters_repeat ] );
      ("check", [ Alcotest.test_case "checks reject bad output" `Quick test_checks_reject ]) ]
