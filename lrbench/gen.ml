open Cfg

let rng seed = Random.State.make [| 0x1bec; seed |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let corpus ~seed = shuffle (rng seed) (Corpus.all ())

type edit = {
  lhs : string;
  alt : string list;
  spec : string;
}

let names n name = List.init n name

let same_symbols a b =
  names (Grammar.n_terminals a) (Grammar.terminal_name a)
  = names (Grammar.n_terminals b) (Grammar.terminal_name b)
  && names (Grammar.n_nonterminals a) (Grammar.nonterminal_name a)
     = names (Grammar.n_nonterminals b) (Grammar.nonterminal_name b)

(* An edit may add at most this many conflicts. Random alternatives are
   heavy-tailed (on Java.3 one added 1484 conflicts), and a stream whose
   cost hangs on whether a seed drew such an outlier cannot compare two
   commits. *)
let max_added_conflicts = 8

let n_conflicts g =
  List.length (Automaton.Parse_table.conflicts (Automaton.Parse_table.build g))

(* Give up after this many redraws: far more than any corpus grammar needs,
   so hitting it means the generator itself is broken. *)
let max_attempts = 10_000

let edits st (entry : Corpus.entry) n =
  let base = Corpus.grammar entry in
  let conflict_limit = n_conflicts base + max_added_conflicts in
  let ast = Spec_parser.parse (Export.to_spec base) in
  (* Terminal 0 ("$") and nonterminal 0 (START) are the augmentation. *)
  let symbols =
    Array.of_list
      (List.tl (names (Grammar.n_terminals base) (Grammar.terminal_name base))
      @ List.tl
          (names (Grammar.n_nonterminals base) (Grammar.nonterminal_name base)))
  in
  let lhss = Array.of_list (List.map (fun r -> r.Spec_ast.lhs) ast.Spec_ast.rules) in
  let draw () =
    let lhs = lhss.(Random.State.int st (Array.length lhss)) in
    let len = 1 + Random.State.int st 3 in
    let alt =
      List.init len (fun _ -> symbols.(Random.State.int st (Array.length symbols)))
    in
    (lhs, alt)
  in
  let apply lhs alt =
    let rules =
      List.map
        (fun (r : Spec_ast.rule) ->
          if String.equal r.Spec_ast.lhs lhs then
            { r with Spec_ast.alts = r.Spec_ast.alts @ [ Spec_ast.alt alt ] }
          else r)
        ast.Spec_ast.rules
    in
    { ast with Spec_ast.rules }
  in
  let existing lhs alt =
    List.exists
      (fun (r : Spec_ast.rule) ->
        String.equal r.Spec_ast.lhs lhs
        && List.exists (fun a -> a.Spec_ast.symbols = alt) r.Spec_ast.alts)
      ast.Spec_ast.rules
  in
  let rec go acc k attempts =
    if k = 0 then List.rev acc
    else if attempts >= max_attempts then
      failwith (Printf.sprintf "Gen.edits: no valid edit of %s" entry.Corpus.name)
    else
      let lhs, alt = draw () in
      let redraw () = go acc k (attempts + 1) in
      if alt = [ lhs ] || existing lhs alt
         || List.exists (fun e -> e.lhs = lhs && e.alt = alt) acc
      then redraw ()
      else
        match Grammar.of_spec (apply lhs alt) with
        | Error _ -> redraw ()
        | Ok g -> (
          let spec = Export.to_spec g in
          match Spec_parser.grammar_of_string spec with
          | Ok g' when same_symbols base g' && n_conflicts g' <= conflict_limit ->
            go ({ lhs; alt; spec } :: acc) (k - 1)
              (attempts + 1)
          | Ok _ | Error _ -> redraw ())
  in
  go [] n 0

type request = {
  id : string;
  line : string;
  spec : string;
  kind : [ `Cold | `Edit | `Repeat of string ];
  grammar : string;
}

let analyze_line ~id ~name spec =
  Cex_service.Json.to_string ~minify:true
    (Cex_service.Json.Obj
       [ ("op", Cex_service.Json.String "analyze");
         ("id", Cex_service.Json.String id);
         ("name", Cex_service.Json.String name);
         ("spec", Cex_service.Json.String spec) ])

(* Edits per grammar grow with its size: two for the small grammars, up to
   eight for the Java grammars. Larger grammars have more rules to edit,
   and weighting them keeps the latency percentiles inside one size class
   instead of on the cliff between millisecond and 100 ms edits. *)
let edits_for (entry : Corpus.entry) =
  2 + (Cfg.Grammar.n_productions (Corpus.grammar entry) / 50)

let serve_stream ?(entries = Corpus.all ()) ~seed () =
  let st = rng seed in
  let entries =
    List.filter
      (fun e -> not (String.equal e.Corpus.name "Java.2"))
      (shuffle st entries)
  in
  List.concat_map
    (fun (entry : Corpus.entry) ->
      let name = entry.Corpus.name in
      let cold =
        { id = name ^ "/cold";
          line = analyze_line ~id:(name ^ "/cold") ~name entry.Corpus.source;
          spec = entry.Corpus.source;
          kind = `Cold;
          grammar = name }
      in
      let edits = edits st entry (edits_for entry) in
      let send kind i (e : edit) =
        let id = Printf.sprintf "%s/edit%d" name i in
        let id, kind = match kind with `Edit -> (id, `Edit) | `Repeat -> (id ^ "/repeat", `Repeat id) in
        { id; line = analyze_line ~id ~name e.spec; spec = e.spec; kind; grammar = name }
      in
      (* The repeats follow the whole burst of edits, so a hit measures the
         read path instead of the GC work the edit just before it left. *)
      (cold :: List.mapi (send `Edit) edits) @ List.mapi (send `Repeat) edits)
    entries
