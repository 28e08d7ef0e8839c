open Cfg

let setup source =
  let g = Spec_parser.grammar_of_string_exn source in
  g, Earley.make g

let sym g name = Option.get (Grammar.find_symbol g name)
let syms g names = List.map (sym g) names
let nt g name = sym g name

let test_terminal_string () =
  let g, e = setup "s : A s B | C ;" in
  let count input = Earley.count_rooted e ~start:(nt g "s") (syms g input) in
  Alcotest.(check int) "C" 1 (count [ "C" ]);
  Alcotest.(check int) "A C B" 1 (count [ "A"; "C"; "B" ]);
  Alcotest.(check int) "A C" 0 (count [ "A"; "C" ]);
  Alcotest.(check int) "empty" 0 (count [])

let test_sentential_form () =
  let g, e = setup "s : A s B | C ;" in
  let count input = Earley.count_rooted e ~start:(nt g "s") (syms g input) in
  (* s matches as a leaf inside A _ B. *)
  Alcotest.(check int) "A s B" 1 (count [ "A"; "s"; "B" ]);
  Alcotest.(check int) "A A s B B" 1 (count [ "A"; "A"; "s"; "B"; "B" ])

let test_trivial_leaf () =
  let g, e = setup "s : A ;" in
  Alcotest.(check int) "trees of [s]" 1
    (Earley.count_trees e ~start:(nt g "s") (syms g [ "s" ]));
  Alcotest.(check int) "rooted of [s]" 0
    (Earley.count_rooted e ~start:(nt g "s") (syms g [ "s" ]))

let test_ambiguous_expr () =
  let g, e = setup Corpus.Paper_grammars.expr_plus in
  let amb input = Earley.ambiguous_from e ~start:(nt g "expr") (syms g input) in
  (* The paper's unifying counterexample for section 2.4. *)
  Alcotest.(check bool) "expr + expr + expr ambiguous" true
    (amb [ "expr"; "+"; "expr"; "+"; "expr" ]);
  Alcotest.(check bool) "expr + expr unambiguous" false
    (amb [ "expr"; "+"; "expr" ]);
  Alcotest.(check int) "exactly two parses" 2
    (Earley.count_rooted e ~cap:10 ~start:(nt g "expr")
       (syms g [ "expr"; "+"; "expr"; "+"; "expr" ]))

let test_dangling_else_ambiguity () =
  let g, e = setup Corpus.Paper_grammars.figure1 in
  let form =
    syms g
      [ "IF"; "expr"; "THEN"; "IF"; "expr"; "THEN"; "stmt"; "ELSE"; "stmt" ]
  in
  Alcotest.(check bool) "dangling else ambiguous" true
    (Earley.ambiguous_from e ~start:(nt g "stmt") form)

let test_challenging_counterexample () =
  (* Section 3.1's hand-found counterexample must have two derivations from
     stmt. *)
  let g, e = setup Corpus.Paper_grammars.figure1 in
  let form =
    syms g
      [ "expr"; "?"; "ARR"; "["; "expr"; "]"; ":="; "num"; "DIGIT"; "DIGIT";
        "?"; "stmt"; "stmt" ]
  in
  Alcotest.(check bool) "challenging conflict counterexample" true
    (Earley.ambiguous_from e ~start:(nt g "stmt") form)

let test_unambiguous_grammar () =
  let g, e = setup Corpus.Paper_grammars.figure3 in
  let amb input = Earley.ambiguous_from e ~start:(nt g "s") (syms g input) in
  Alcotest.(check bool) "a a b" false (amb [ "a"; "a"; "b" ]);
  Alcotest.(check bool) "a a a b" false (amb [ "a"; "a"; "a"; "b" ]);
  Alcotest.(check bool) "a" false (amb [ "a" ])

let test_cyclic_grammar_saturates () =
  (* A -> A | X has infinitely many trees for X; the count saturates. *)
  let g, e = setup "a_ : a_ | X ;" in
  Alcotest.(check int) "saturated" 4
    (Earley.count_rooted e ~cap:4 ~start:(nt g "a_") (syms g [ "X" ]))

let test_epsilon_handling () =
  let g, e = setup "s : opt A opt ; opt : B | ;" in
  let count input = Earley.count_rooted e ~start:(nt g "s") (syms g input) in
  Alcotest.(check int) "A alone" 1 (count [ "A" ]);
  Alcotest.(check int) "B A" 1 (count [ "B"; "A" ]);
  Alcotest.(check int) "B A B" 1 (count [ "B"; "A"; "B" ]);
  Alcotest.(check int) "B" 0 (count [ "B" ])

let test_epsilon_ambiguity () =
  (* Two nullable paths to the same string. *)
  let g, e = setup "s : opt1 A | opt2 A ; opt1 : ; opt2 : ;" in
  Alcotest.(check int) "two epsilon parses" 2
    (Earley.count_rooted e ~start:(nt g "s") (syms g [ "A" ]))

let test_derivations_enumeration () =
  let g, e = setup Corpus.Paper_grammars.expr_plus in
  let form = syms g [ "expr"; "+"; "expr"; "+"; "expr" ] in
  let ds = Earley.derivations e ~limit:5 ~start:(nt g "expr") form in
  Alcotest.(check int) "two trees" 2 (List.length ds);
  List.iter
    (fun d ->
      Alcotest.(check bool) "valid" true (Derivation.validate g d);
      Alcotest.(check bool) "frontier matches" true
        (List.for_all2 Symbol.equal (Derivation.leaves d) form))
    ds;
  match ds with
  | [ d1; d2 ] ->
    Alcotest.(check bool) "distinct" false (Derivation.equal d1 d2)
  | _ -> Alcotest.fail "expected two"

(* Cross-validation property: on random grammars, every sentence produced by
   a random bounded derivation is accepted by the chart parser. *)
let prop_random_derivations_accepted =
  QCheck.Test.make ~name:"chart parser accepts generated sentences" ~count:100
    QCheck.(pair (QCheck.make Test_analysis.gen_spec) (int_bound 1000))
    (fun (source, seed) ->
      let g = Spec_parser.grammar_of_string_exn source in
      let a = Analysis.make g in
      let e = Earley.make g in
      let rng = Random.State.make [| seed |] in
      let start = Grammar.start g in
      if not (Analysis.productive a start) then true
      else begin
        (* Generate a random sentential form by a few random expansions of the
           leftmost expandable nonterminal, then ground it out minimally. *)
        let rec expand form steps =
          if steps = 0 then form
          else
            let rec split prefix = function
              | [] -> None
              | Symbol.Nonterminal nt :: rest when Analysis.productive a nt ->
                Some (List.rev prefix, nt, rest)
              | sym :: rest -> split (sym :: prefix) rest
            in
            match split [] form with
            | None -> form
            | Some (before, nt, after) ->
              let prods = Grammar.productions_of g nt in
              let p = List.nth prods (Random.State.int rng (List.length prods)) in
              let rhs = Array.to_list (Grammar.production g p).Grammar.rhs in
              let ok =
                List.for_all
                  (function
                    | Symbol.Terminal _ -> true
                    | Symbol.Nonterminal n -> Analysis.productive a n)
                  rhs
              in
              if ok then expand (before @ rhs @ after) (steps - 1) else form
        in
        let form = expand [ Symbol.Nonterminal start ] 3 in
        let sentence =
          List.map (fun t -> Symbol.Terminal t) (Analysis.min_sentence a form)
        in
        List.length sentence > 12
        || Earley.derives e ~start:(Symbol.Nonterminal start) sentence
      end)


(* ------------------------------------------------------------------ *)
(* Reference: the dense chart that the corner-filtered one replaced. It
   evaluates every right-hand-side position and every nonterminal on every
   span until a pass changes nothing. Kept here, out of the library, as the
   differential oracle for the sparse sweep: both must give the same
   counts. *)
module Dense = struct
  let sat_add cap a b = min cap (a + b)
  let sat_mul cap a b = min cap (a * b)

  type chart = {
    g : Grammar.t;
    input : Symbol.t array;
    cap : int;
    n : int;
    pos_base : int array;
    nt_tab : int array;
    seq_tab : int array;
  }

  let nt_get c m i j = c.nt_tab.(((m * (c.n + 1)) + i) * (c.n + 1) + j)
  let seq_get c pos i j = c.seq_tab.(((pos * (c.n + 1)) + i) * (c.n + 1) + j)
  let leaf_matches c sym i j = j = i + 1 && Symbol.equal c.input.(i) sym

  let eval_seq c p k i j =
    let rhs = (Grammar.production c.g p).Grammar.rhs in
    let last = k + 1 = Array.length rhs in
    let total = ref 0 in
    let m = ref i in
    while !m <= j && !total < c.cap do
      let first =
        match rhs.(k) with
        | Symbol.Terminal _ as sym -> if leaf_matches c sym i !m then 1 else 0
        | Symbol.Nonterminal nm -> nt_get c nm i !m
      in
      (if first > 0 then
         let rest =
           if last then if !m = j then 1 else 0
           else seq_get c (c.pos_base.(p) + k + 1) !m j
         in
         total := sat_add c.cap !total (sat_mul c.cap first rest));
      incr m
    done;
    !total

  let eval_nt c nm i j =
    let rooted =
      List.fold_left
        (fun acc p ->
          if acc >= c.cap then acc
          else
            let rhs = (Grammar.production c.g p).Grammar.rhs in
            let v =
              if Array.length rhs = 0 then if i = j then 1 else 0
              else seq_get c c.pos_base.(p) i j
            in
            sat_add c.cap acc v)
        0
        (Grammar.productions_of c.g nm)
    in
    if leaf_matches c (Symbol.Nonterminal nm) i j then sat_add c.cap rooted 1
    else rooted

  let build_chart g ~cap input =
    let n = Array.length input in
    let np = Grammar.n_productions g in
    let nnt = Grammar.n_nonterminals g in
    let pos_base = Array.make (np + 1) 0 in
    for p = 0 to np - 1 do
      pos_base.(p + 1) <-
        pos_base.(p) + Array.length (Grammar.production g p).Grammar.rhs
    done;
    let dim = n + 1 in
    let c =
      { g;
        input;
        cap;
        n;
        pos_base;
        nt_tab = Array.make (nnt * dim * dim) 0;
        seq_tab = Array.make (pos_base.(np) * dim * dim) 0 }
    in
    for d = 0 to n do
      for i = 0 to n - d do
        let j = i + d in
        let changed = ref true in
        while !changed do
          changed := false;
          for p = 0 to np - 1 do
            let rhs = (Grammar.production g p).Grammar.rhs in
            for k = Array.length rhs - 1 downto 0 do
              let v = eval_seq c p k i j in
              let idx = (((pos_base.(p) + k) * dim) + i) * dim + j in
              if v > c.seq_tab.(idx) then begin
                c.seq_tab.(idx) <- v;
                changed := true
              end
            done
          done;
          for m = 0 to nnt - 1 do
            let v = eval_nt c m i j in
            let idx = ((m * dim) + i) * dim + j in
            if v > c.nt_tab.(idx) then begin
              c.nt_tab.(idx) <- v;
              changed := true
            end
          done
        done
      done
    done;
    c

  let count ~rooted_only g ~cap ~start input =
    let input = Array.of_list input in
    let n = Array.length input in
    let c = build_chart g ~cap:(cap + 1) input in
    let result =
      match start with
      | Symbol.Terminal _ as sym ->
        if (not rooted_only) && leaf_matches c sym 0 n then 1 else 0
      | Symbol.Nonterminal nt ->
        let full = nt_get c nt 0 n in
        if rooted_only && leaf_matches c (Symbol.Nonterminal nt) 0 n then
          full - 1
        else full
    in
    min cap result
end

(* The sparse chart agrees with the dense reference on [count_trees] and
   [count_rooted] at caps 1, 2 and 4; returns the first disagreement. *)
let disagreement g e ~start form =
  List.find_map
    (fun (cap, rooted_only) ->
      let sparse =
        if rooted_only then Earley.count_rooted e ~cap ~start form
        else Earley.count_trees e ~cap ~start form
      in
      let dense = Dense.count ~rooted_only g ~cap ~start form in
      if sparse = dense then None
      else
        Some
          (Fmt.str "%s cap %d from %s on [%a]: sparse %d, dense %d"
             (if rooted_only then "rooted" else "trees")
             cap (Grammar.symbol_name g start) (Grammar.pp_symbols g) form
             sparse dense))
    [ (1, false); (2, false); (4, false); (1, true); (2, true); (4, true) ]

let check_agrees g e ~start form =
  match disagreement g e ~start form with
  | None -> ()
  | Some msg -> Alcotest.fail msg

let all_symbols g =
  List.init (Grammar.n_terminals g) (fun t -> Symbol.Terminal t)
  @ List.init (Grammar.n_nonterminals g) (fun m -> Symbol.Nonterminal m)

(* Random grammars, random sentential forms over every symbol of the
   grammar (terminals, nonterminals, [$] and [START], which occur in no
   right-hand side), lengths 0 to 12, every nonterminal as the start. *)
let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse chart matches dense reference" ~count:200
    QCheck.(pair (QCheck.make Test_analysis.gen_spec) (int_bound 100_000))
    (fun (source, seed) ->
      let g = Spec_parser.grammar_of_string_exn source in
      let e = Earley.make g in
      let rng = Random.State.make [| seed |] in
      let syms = Array.of_list (all_symbols g) in
      let ok = ref true in
      for _ = 1 to 6 do
        let len = Random.State.int rng 13 in
        let form =
          List.init len (fun _ ->
              syms.(Random.State.int rng (Array.length syms)))
        in
        for m = 0 to Grammar.n_nonterminals g - 1 do
          match disagreement g e ~start:(Symbol.Nonterminal m) form with
          | None -> ()
          | Some msg ->
            ok := false;
            QCheck.Test.fail_reportf "%s\n%s" msg source
        done
      done;
      !ok)

let test_nullable_prefix_corner () =
  (* [A] is the first leaf of [s] only through the empty [opt]. *)
  let g, e = setup "s : opt A ; opt : B | ;" in
  Alcotest.(check int) "A" 1
    (Earley.count_rooted e ~start:(nt g "s") (syms g [ "A" ]));
  List.iter
    (fun form -> check_agrees g e ~start:(nt g "s") (syms g form))
    [ [ "A" ]; [ "B"; "A" ]; [ "opt"; "A" ]; []; [ "opt" ] ]

let test_nonterminal_leaf_ends () =
  (* Nonterminal leaves as a span's first symbol, last symbol, or both. *)
  let g, e = setup "s : a_ X a_ | X ; a_ : Y s | Z ;" in
  let count form = Earley.count_rooted e ~start:(nt g "s") (syms g form) in
  Alcotest.(check int) "a_ X a_" 1 (count [ "a_"; "X"; "a_" ]);
  Alcotest.(check int) "a_ X Z" 1 (count [ "a_"; "X"; "Z" ]);
  Alcotest.(check int) "Z X a_" 1 (count [ "Z"; "X"; "a_" ]);
  Alcotest.(check int) "Y s X Z" 1 (count [ "Y"; "s"; "X"; "Z" ]);
  Alcotest.(check int) "Z X Y s" 1 (count [ "Z"; "X"; "Y"; "s" ]);
  Alcotest.(check int) "a_ X" 0 (count [ "a_"; "X" ]);
  List.iter
    (fun form ->
      List.iter
        (fun start -> check_agrees g e ~start:(nt g start) (syms g form))
        [ "s"; "a_" ])
    [ [ "a_"; "X"; "a_" ]; [ "Y"; "s" ]; [ "Z"; "X"; "Y"; "s" ];
      [ "Y"; "a_"; "X"; "a_" ]; [ "s" ]; [ "a_" ] ]

let test_unit_cycle_agrees () =
  let g, e = setup "a_ : a_ | X ;" in
  List.iter
    (fun form -> check_agrees g e ~start:(nt g "a_") (syms g form))
    [ [ "X" ]; [ "a_" ]; []; [ "X"; "X" ] ]

let test_symbol_in_no_rhs () =
  (* [$] and [START] occur in no right-hand side: no span containing them
     selects any cell, and [START] still matches itself as a leaf. *)
  let g, e = setup "s : A s | B ;" in
  let start = Symbol.Nonterminal 0 in
  Alcotest.(check int) "A $" 0
    (Earley.count_trees e ~start:(nt g "s") [ sym g "A"; Symbol.eof ]);
  Alcotest.(check int) "START as a leaf" 1
    (Earley.count_trees e ~start [ start ]);
  Alcotest.(check int) "START rooted" 0
    (Earley.count_rooted e ~start [ start ]);
  List.iter
    (fun form ->
      List.iter
        (fun start -> check_agrees g e ~start form)
        [ start; nt g "s" ])
    [ [ start ]; [ Symbol.eof ]; [ sym g "A"; Symbol.eof ]; [ sym g "B" ];
      [ sym g "A"; start ] ]

(* [derivations] builds its chart the same way: on the counterexample
   forms the driver finds for the paper's own grammars it must exhibit
   valid trees with the form as frontier, as many as the count allows. *)
let test_derivations_corpus_forms () =
  let options =
    { Cex.Driver.default_options with
      Cex.Driver.per_conflict_timeout = 1.0;
      cumulative_timeout = 10.0 }
  in
  let checked = ref 0 in
  List.iter
    (fun (entry : Corpus.entry) ->
      if entry.Corpus.category = Corpus.Ours then begin
        let g = Corpus.grammar entry in
        let e = Earley.make g in
        let session = Cex_session.Session.create g in
        let report = Cex.Driver.analyze_session ~options session in
        let cases =
          List.concat_map
            (fun (cr : Cex.Driver.conflict_report) ->
              match cr.Cex.Driver.counterexample with
              | Some (Cex.Driver.Unifying u) ->
                [ ( Symbol.Nonterminal u.Cex.Product_search.nonterminal,
                    u.Cex.Product_search.form ) ]
              | Some (Cex.Driver.Nonunifying nu) ->
                let prefix = nu.Cex.Nonunifying.prefix in
                List.map
                  (fun rest -> (Symbol.Nonterminal 0, prefix @ rest))
                  [ nu.Cex.Nonunifying.reduce_continuation;
                    nu.Cex.Nonunifying.other_continuation ]
              | None -> [])
            report.Cex.Driver.conflict_reports
        in
        List.iter
          (fun (start, form) ->
            incr checked;
            let expected = Dense.count ~rooted_only:true g ~cap:2 ~start form in
            let ds = Earley.derivations e ~limit:2 ~start form in
            Alcotest.(check int)
              (Fmt.str "%s: trees of [%a]" entry.Corpus.name
                 (Grammar.pp_symbols g) form)
              expected (List.length ds);
            List.iter
              (fun d ->
                Alcotest.(check bool) "valid" true (Derivation.validate g d);
                Alcotest.(check bool) "rooted at start" true
                  (Symbol.equal (Derivation.root_symbol d) start);
                Alcotest.(check bool) "frontier is the form" true
                  (List.equal Symbol.equal (Derivation.leaves d) form))
              ds)
          cases
      end)
    (Corpus.all ());
  Alcotest.(check bool) "some corpus forms checked" true (!checked > 0)

let suite =
  ( "earley",
    [ Alcotest.test_case "terminal strings" `Quick test_terminal_string;
      Alcotest.test_case "sentential forms" `Quick test_sentential_form;
      Alcotest.test_case "trivial leaf" `Quick test_trivial_leaf;
      Alcotest.test_case "ambiguous expr" `Quick test_ambiguous_expr;
      Alcotest.test_case "dangling else" `Quick test_dangling_else_ambiguity;
      Alcotest.test_case "challenging counterexample" `Quick
        test_challenging_counterexample;
      Alcotest.test_case "unambiguous grammar" `Quick test_unambiguous_grammar;
      Alcotest.test_case "cyclic grammar saturates" `Quick
        test_cyclic_grammar_saturates;
      Alcotest.test_case "epsilon handling" `Quick test_epsilon_handling;
      Alcotest.test_case "epsilon ambiguity" `Quick test_epsilon_ambiguity;
      Alcotest.test_case "derivation enumeration" `Quick
        test_derivations_enumeration;
      Alcotest.test_case "nullable prefix corner" `Quick
        test_nullable_prefix_corner;
      Alcotest.test_case "nonterminal leaf at span ends" `Quick
        test_nonterminal_leaf_ends;
      Alcotest.test_case "unit cycle matches dense" `Quick
        test_unit_cycle_agrees;
      Alcotest.test_case "symbol in no right-hand side" `Quick
        test_symbol_in_no_rhs;
      Alcotest.test_case "derivations on corpus forms" `Quick
        test_derivations_corpus_forms;
      QCheck_alcotest.to_alcotest prop_random_derivations_accepted;
      QCheck_alcotest.to_alcotest prop_sparse_matches_dense ] )
