open Cfg

(* Symbols are numbered densely for the corner tables: terminal [t] is [t],
   nonterminal [m] is [n_terms + m]. Symbol sets are rows of [words] machine
   words in flat [int array]s, bit [s] of a row in word [s / word_bits]. *)
type t = {
  grammar : Grammar.t;
  n_terms : int;
  words : int;
  prods : int array array;
      (** productions of each nonterminal, in declaration order *)
  prod_pos : int array;
      (** position of [(p, 0)], or [-1] when [p] has an empty right-hand side *)
  pos_sym : int array;  (** symbol id at each rhs position [(p, k)] *)
  pos_next : int array;  (** position of [(p, k + 1)], or [-1] at the last *)
  rc_pos : int array;  (** per position: the symbols that can end its suffix *)
  rc_nt : int array;  (** per nonterminal: its reflexive right corners *)
  first_pos : int array array;
      (** per symbol: the positions whose suffix can start with it, sorted by
          production ascending then offset descending (the sweep order) *)
  first_nt : int array array;
      (** per symbol: the nonterminals with it as a reflexive left corner *)
  null_pos : int array;  (** nullable suffixes, in sweep order *)
  null_nt : int array;  (** nullable nonterminals, ascending *)
  feeds_back : bool array;
      (** per nonterminal: it occurs before a nullable rest, so its count
          over a span is read by suffix cells of that same span *)
}

(* [Sys.int_size] on the 64-bit targets OCaml 5 supports, as a literal so
   that [/ word_bits] and [mod word_bits] compile to multiplications. *)
let word_bits = 63

(* [-1] for a symbol outside the grammar: it selects no cell. *)
let symbol_id ~n_terms ~n_nts = function
  | Symbol.Terminal t -> if t >= 0 && t < n_terms then t else -1
  | Symbol.Nonterminal m -> if m >= 0 && m < n_nts then n_terms + m else -1

let mem_bit rows words row s =
  rows.((row * words) + (s / word_bits)) land (1 lsl (s mod word_bits)) <> 0

let set_bit rows words row s =
  let w = (row * words) + (s / word_bits) in
  rows.(w) <- rows.(w) lor (1 lsl (s mod word_bits))

(* Row [d] of [dst] |= row [s] of [src]. *)
let or_row words dst d src s =
  for w = 0 to words - 1 do
    let i = (d * words) + w in
    dst.(i) <- dst.(i) lor src.((s * words) + w)
  done

(* Reflexive-transitive closure of a relation given as one row per
   nonterminal (Warshall, a row OR per edge). Terminal columns need no
   pivot: a terminal's own corners are just itself. *)
let close rows words ~n_terms ~n_nts =
  for k = 0 to n_nts - 1 do
    let w = (n_terms + k) / word_bits in
    let bit = 1 lsl ((n_terms + k) mod word_bits) in
    for m = 0 to n_nts - 1 do
      if m <> k && rows.((m * words) + w) land bit <> 0 then
        or_row words rows m rows k
    done
  done

let iter_bits rows words row f =
  for w = 0 to words - 1 do
    let x = ref rows.((row * words) + w) in
    let b = ref (w * word_bits) in
    while !x <> 0 do
      if !x land 0xff = 0 then begin
        x := !x lsr 8;
        b := !b + 8
      end
      else begin
        if !x land 1 <> 0 then f !b;
        x := !x lsr 1;
        incr b
      end
    done
  done

(* Invert rows into per-symbol arrays: [rows] lists, for each row [r] in
   [order], the symbols [r] covers; the result lists, per symbol, the rows
   covering it in [order]. Counting pass, then one filling pass. *)
let invert rows words ~n_syms order =
  let counts = Array.make n_syms 0 in
  Array.iter
    (fun r -> iter_bits rows words r (fun s -> counts.(s) <- counts.(s) + 1))
    order;
  let out = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 n_syms 0;
  Array.iter
    (fun r ->
      iter_bits rows words r (fun s ->
          out.(s).(counts.(s)) <- r;
          counts.(s) <- counts.(s) + 1))
    order;
  out

(* Corner tables, once per grammar. A nonempty span's first leaf is a left
   corner of whatever derives it and its last leaf a right corner, where the
   corners of [m] are [m] itself (a nonterminal in a form is a leaf) and,
   transitively, every symbol of an [m]-production preceded (for left
   corners) or followed (for right) only by nullable symbols. Nullability is
   computed here from the grammar alone, so the oracle shares no analysis
   with the code it checks. *)
let make grammar =
  let g = grammar in
  let n_terms = Grammar.n_terminals g in
  let n_nts = Grammar.n_nonterminals g in
  let n_syms = n_terms + n_nts in
  let np = Grammar.n_productions g in
  let rhs p = (Grammar.production g p).Grammar.rhs in
  let sym_id = symbol_id ~n_terms ~n_nts in
  let pos_base = Array.make (np + 1) 0 in
  for p = 0 to np - 1 do
    pos_base.(p + 1) <- pos_base.(p) + Array.length (rhs p)
  done;
  let n_pos = pos_base.(np) in
  let pos_sym = Array.make n_pos 0 in
  let pos_next = Array.make n_pos (-1) in
  let prod_pos = Array.make np (-1) in
  for p = 0 to np - 1 do
    let r = rhs p in
    let len = Array.length r in
    if len > 0 then prod_pos.(p) <- pos_base.(p);
    Array.iteri
      (fun k s ->
        pos_sym.(pos_base.(p) + k) <- sym_id s;
        if k + 1 < len then pos_next.(pos_base.(p) + k) <- pos_base.(p) + k + 1)
      r
  done;
  let nullable = Array.make n_syms false in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 0 to np - 1 do
      let lhs = n_terms + (Grammar.production g p).Grammar.lhs in
      if (not nullable.(lhs))
         && Array.for_all (fun s -> nullable.(sym_id s)) (rhs p)
      then begin
        nullable.(lhs) <- true;
        changed := true
      end
    done
  done;
  (* [pos_null.(pos)]: the suffix from [pos] derives the empty string;
     index [n_pos] stands for every "past the end" suffix. *)
  let pos_null = Array.make (n_pos + 1) true in
  let rest_null pos =
    if pos_next.(pos) < 0 then true else pos_null.(pos_next.(pos))
  in
  for pos = n_pos - 1 downto 0 do
    pos_null.(pos) <- nullable.(pos_sym.(pos)) && rest_null pos
  done;
  let words = max 1 ((n_syms + word_bits - 1) / word_bits) in
  let lc = Array.make (n_nts * words) 0 in
  let rc = Array.make (n_nts * words) 0 in
  for m = 0 to n_nts - 1 do
    set_bit lc words m (n_terms + m);
    set_bit rc words m (n_terms + m)
  done;
  for p = 0 to np - 1 do
    let lhs = (Grammar.production g p).Grammar.lhs in
    let r = rhs p in
    let len = Array.length r in
    let k = ref 0 in
    while !k < len do
      let s = sym_id r.(!k) in
      set_bit lc words lhs s;
      k := if nullable.(s) then !k + 1 else len
    done;
    let k = ref (len - 1) in
    while !k >= 0 do
      let s = sym_id r.(!k) in
      set_bit rc words lhs s;
      k := if nullable.(s) then !k - 1 else -1
    done
  done;
  close lc words ~n_terms ~n_nts;
  close rc words ~n_terms ~n_nts;
  (* Corner sets of a suffix, built back to front: its left corners are those
     of its first symbol plus, past a nullable one, the rest's; its right
     corners are the rest's plus, before a nullable rest, the first
     symbol's. *)
  let lc_pos = Array.make (n_pos * words) 0 in
  let rc_pos = Array.make (n_pos * words) 0 in
  let add_corners dst pos corners s =
    if s < n_terms then set_bit dst words pos s
    else or_row words dst pos corners (s - n_terms)
  in
  for pos = n_pos - 1 downto 0 do
    let s = pos_sym.(pos) in
    let next = pos_next.(pos) in
    add_corners lc_pos pos lc s;
    if next >= 0 && nullable.(s) then or_row words lc_pos pos lc_pos next;
    if rest_null pos then add_corners rc_pos pos rc s;
    if next >= 0 then or_row words rc_pos pos rc_pos next
  done;
  (* Sweep order: productions ascending, offsets descending, so a suffix is
     evaluated after the shorter suffix it reads on the same span. *)
  let sweep = Array.make n_pos 0 in
  let i = ref 0 in
  for p = 0 to np - 1 do
    for pos = pos_base.(p + 1) - 1 downto pos_base.(p) do
      sweep.(!i) <- pos;
      incr i
    done
  done;
  let feeds_back = Array.make n_nts false in
  for pos = 0 to n_pos - 1 do
    let s = pos_sym.(pos) in
    if s >= n_terms && rest_null pos then feeds_back.(s - n_terms) <- true
  done;
  let keep f a = Array.of_seq (Seq.filter f (Array.to_seq a)) in
  let nts = Array.init n_nts Fun.id in
  { grammar;
    n_terms;
    words;
    prods =
      Array.init n_nts (fun m -> Array.of_list (Grammar.productions_of g m));
    prod_pos;
    pos_sym;
    pos_next;
    rc_pos;
    rc_nt = rc;
    first_pos = invert lc_pos words ~n_syms sweep;
    first_nt = invert lc words ~n_syms nts;
    null_pos = keep (fun pos -> pos_null.(pos)) sweep;
    null_nt = keep (fun m -> nullable.(n_terms + m)) nts;
    feeds_back }

(* Saturating arithmetic: counts live in [0..cap], where [cap] stands for
   "cap or more". The counting equations are monotone, so iterating them
   from the all-zero chart converges to min(true count, cap) even for cyclic
   grammars with infinitely many trees. *)
let sat_add cap a b = min cap (a + b)
let sat_mul cap a b = min cap (a * b)

(* Sparse chart over the spans [i..j) of the input, i <= j. [nt_tab] holds,
   per nonterminal [m] and span, the number of derivation trees rooted at a
   production of [m] (plus the bare-leaf match); [seq_tab] holds, per
   right-hand-side position (production [p], offset [k]) and span, the
   number of ways the suffix of [p] starting at [k] derives the span. The
   "past the end" suffix is the constant empty match and is not stored.

   Cost model: a cell can be nonzero only if the span's first input symbol
   is a left corner and its last a right corner of the cell's suffix or
   nonterminal (an empty span: only if that is nullable), so each span
   evaluates just the cells its two end symbols select, and the tables have
   columns only for the positions and nonterminals that some input symbol
   (or nullability) can select — [pos_col]/[nt_col] map the rest to [-1],
   which reads as 0. A chart costs O(selected cells x span length) time and
   O(columns x spans) memory, where the dense tables it replaces paid for
   every position and nonterminal of the grammar on every span. [cells]
   counts the cell evaluations. *)
type chart = {
  parser : t;
  input : Symbol.t array;
  ids : int array;  (** symbol id of each input symbol, [-1] if foreign *)
  cap : int;
  row_off : int array;  (** span [i..j) is row [row_off.(i) + j - i] *)
  pos_col : int array;
  nt_col : int array;
  pos_width : int;
  nt_width : int;
  nt_tab : int array;
  seq_tab : int array;
  mutable cells : int;
}

let span c i j = c.row_off.(i) + j - i

let nt_get c m i j =
  let col = c.nt_col.(m) in
  if col < 0 then 0 else c.nt_tab.((span c i j * c.nt_width) + col)

let leaf_matches c sym i j = j = i + 1 && Symbol.equal c.input.(i) sym

(* Suffix count for position [pos] over span [i..j), reading the current
   chart: a sum over the end [m] of the first symbol's span. A terminal
   covers exactly one input symbol; a last symbol must cover the whole span;
   otherwise the loop exits early once the count saturates. *)
let eval_seq c pos i j =
  let e = c.parser in
  let s = e.pos_sym.(pos) in
  let next = e.pos_next.(pos) in
  if s < e.n_terms then
    if i < j && c.ids.(i) = s then
      if next < 0 then if j = i + 1 then 1 else 0
      else
        let col = c.pos_col.(next) in
        if col < 0 then 0
        else c.seq_tab.((span c (i + 1) j * c.pos_width) + col)
    else 0
  else
    let m = s - e.n_terms in
    if next < 0 then nt_get c m i j
    else
      let fcol = c.nt_col.(m) in
      let rcol = c.pos_col.(next) in
      if fcol < 0 || rcol < 0 then 0
      else begin
        let total = ref 0 in
        let k = ref i in
        while !k <= j && !total < c.cap do
          let first = c.nt_tab.((span c i !k * c.nt_width) + fcol) in
          (if first > 0 then
             let rest = c.seq_tab.((span c !k j * c.pos_width) + rcol) in
             total := sat_add c.cap !total (sat_mul c.cap first rest));
          incr k
        done;
        !total
      end

let eval_nt c m i j =
  let e = c.parser in
  let prods = e.prods.(m) in
  let acc = ref 0 in
  let p = ref 0 in
  while !p < Array.length prods && !acc < c.cap do
    let pos = e.prod_pos.(prods.(!p)) in
    let v =
      if pos < 0 then if i = j then 1 else 0
      else
        let col = c.pos_col.(pos) in
        if col < 0 then 0 else c.seq_tab.((span c i j * c.pos_width) + col)
    in
    acc := sat_add c.cap !acc v;
    incr p
  done;
  if j = i + 1 && c.ids.(i) = e.n_terms + m then sat_add c.cap !acc 1 else !acc

(* Give a column to every entry the input's symbols select, plus the
   nullable ones (empty spans). *)
let columns size selected nullable ids =
  let col = Array.make size (-1) in
  let width = ref 0 in
  let assign x =
    if col.(x) < 0 then begin
      col.(x) <- !width;
      incr width
    end
  in
  Array.iter assign nullable;
  Array.iter (fun s -> if s >= 0 then Array.iter assign selected.(s)) ids;
  (col, !width)

(* Build the chart bottom-up by span length. A cell of span [i..j) depends
   only on cells of nested spans, which are strictly shorter except at the
   two degenerate split points (first symbol over [i..i), or over all of
   [i..j) before a nullable rest). The first kind reads a shorter suffix of
   the same production, which the sweep order has already settled; the
   second reads a nonterminal of the same span, so a span is swept again
   while such a nonterminal grows (values are monotone and bounded by
   [cap]). Each span evaluates only the cells its end symbols select: the
   rest are zero in the least fixpoint, and iteration from zero never lifts
   them. *)
let build_chart parser ~cap input =
  let e = parser in
  let g = e.grammar in
  let n = Array.length input in
  let n_nts = Grammar.n_nonterminals g in
  let ids = Array.map (symbol_id ~n_terms:e.n_terms ~n_nts) input in
  let row_off = Array.make (n + 1) 0 in
  for i = 1 to n do
    row_off.(i) <- row_off.(i - 1) + (n + 2 - i)
  done;
  let n_spans = (n + 1) * (n + 2) / 2 in
  let pos_col, pos_width =
    columns (Array.length e.pos_sym) e.first_pos e.null_pos ids
  in
  let nt_col, nt_width = columns n_nts e.first_nt e.null_nt ids in
  let c =
    { parser;
      input;
      ids;
      cap;
      row_off;
      pos_col;
      nt_col;
      pos_width;
      nt_width;
      nt_tab = Array.make (n_spans * nt_width) 0;
      seq_tab = Array.make (n_spans * pos_width) 0;
      cells = 0 }
  in
  let sel_pos = Array.make (Array.length e.pos_sym) 0 in
  let sel_nt = Array.make n_nts 0 in
  (* Fill [buf] with the entries of [cands] whose right corners contain
     [last]; returns how many. *)
  let select buf cands rows last =
    let count = ref 0 in
    Array.iter
      (fun x ->
        if mem_bit rows e.words x last then begin
          buf.(!count) <- x;
          incr count
        end)
      cands;
    !count
  in
  for d = 0 to n do
    for i = 0 to n - d do
      let j = i + d in
      let n_sel_pos, n_sel_nt =
        if d = 0 then begin
          Array.blit e.null_pos 0 sel_pos 0 (Array.length e.null_pos);
          Array.blit e.null_nt 0 sel_nt 0 (Array.length e.null_nt);
          (Array.length e.null_pos, Array.length e.null_nt)
        end
        else
          let first = ids.(i) and last = ids.(j - 1) in
          if first < 0 || last < 0 then (0, 0)
          else
            ( select sel_pos e.first_pos.(first) e.rc_pos last,
              select sel_nt e.first_nt.(first) e.rc_nt last )
      in
      let row = span c i j in
      let again = ref true in
      while !again do
        again := false;
        for x = 0 to n_sel_pos - 1 do
          let pos = sel_pos.(x) in
          let v = eval_seq c pos i j in
          let idx = (row * pos_width) + pos_col.(pos) in
          if v > c.seq_tab.(idx) then c.seq_tab.(idx) <- v
        done;
        for x = 0 to n_sel_nt - 1 do
          let m = sel_nt.(x) in
          let v = eval_nt c m i j in
          let idx = (row * nt_width) + nt_col.(m) in
          if v > c.nt_tab.(idx) then begin
            c.nt_tab.(idx) <- v;
            if e.feeds_back.(m) then again := true
          end
        done;
        c.cells <- c.cells + n_sel_pos + n_sel_nt
      done
    done
  done;
  c

let add_cells cells c =
  match cells with Some r -> r := !r + c.cells | None -> ()

let count_generic ~rooted_only parser ?cells ?(cap = 4) ~start input =
  let input = Array.of_list input in
  let n = Array.length input in
  (* One extra unit of headroom so that subtracting the trivial leaf
     derivation (rooted_only at a one-symbol input) is not masked by
     saturation. *)
  let c = build_chart parser ~cap:(cap + 1) input in
  add_cells cells c;
  let result =
    match start with
    | Symbol.Terminal _ as sym ->
      if (not rooted_only) && leaf_matches c sym 0 n then 1 else 0
    | Symbol.Nonterminal nt ->
      let full = nt_get c nt 0 n in
      if rooted_only && leaf_matches c (Symbol.Nonterminal nt) 0 n then full - 1
      else full
  in
  min cap result

let count_trees parser ?cells ?cap ~start input =
  count_generic ~rooted_only:false parser ?cells ?cap ~start input

let count_rooted parser ?cells ?cap ~start input =
  count_generic ~rooted_only:true parser ?cells ?cap ~start input

let ambiguous_from parser ?cells ~start input =
  count_rooted parser ?cells ~cap:2 ~start input >= 2

let derives parser ?cells ~start input =
  count_rooted parser ?cells ~cap:1 ~start input >= 1
  || (match input with
     | [ sym ] -> Symbol.equal sym start
     | [] | _ :: _ :: _ -> false)

(* ------------------------------------------------------------------ *)
(* Bounded enumeration of derivation trees, used by tests and for an
   Elkhound-style display of multiple parses. The chart built above prunes
   the search to derivable configurations only. *)

let derivations parser ?(limit = 2) ?(max_nodes = 200) ~start input =
  let g = parser.grammar in
  let input = Array.of_list input in
  let chart = build_chart parser ~cap:1 input in
  let derivable sym i j =
    leaf_matches chart sym i j
    ||
    match sym with
    | Symbol.Terminal _ -> false
    | Symbol.Nonterminal n -> nt_get chart n i j > 0
  in
  (* The suffix of [p] from offset [k] derives input[i..j). Checked before
     descending into a first symbol, so no subtree is enumerated only to
     find that the rest of its production cannot follow it. *)
  let suffix_derivable p rhs k i j =
    if k = Array.length rhs then i = j
    else
      let col = chart.pos_col.(parser.prod_pos.(p) + k) in
      col >= 0 && chart.seq_tab.((span chart i j * chart.pos_width) + col) > 0
  in
  let results = ref [] in
  let n_results = ref 0 in
  let exception Done in
  (* [trees sym i j budget yield] enumerates (derivation, nodes used) for
     derivations of input[i..j) from [sym] using at most [budget] nodes. *)
  let rec trees sym i j budget yield =
    if budget > 0 && derivable sym i j then begin
      if leaf_matches chart sym i j then yield (Derivation.leaf sym, 1);
      match sym with
      | Symbol.Terminal _ -> ()
      | Symbol.Nonterminal nt ->
        List.iter
          (fun p ->
            let rhs = (Grammar.production g p).Grammar.rhs in
            if suffix_derivable p rhs 0 i j then
              seq p rhs 0 i j (budget - 1) (fun (children, used) ->
                  yield (Derivation.node g p children, used + 1)))
          (Grammar.productions_of g nt)
    end
  and seq p rhs k i j budget yield =
    if k = Array.length rhs then begin
      if i = j then yield ([], 0)
    end
    else
      for m = i to j do
        if derivable rhs.(k) i m && suffix_derivable p rhs (k + 1) m j then
          trees rhs.(k) i m budget (fun (first, used) ->
              seq p rhs (k + 1) m j (budget - used) (fun (rest, used') ->
                  yield (first :: rest, used + used')))
      done
  in
  (try
     trees start 0 (Array.length input) max_nodes (fun (d, _) ->
         (* Only rooted derivations (skip the trivial leaf at the root). *)
         match d with
         | Derivation.Leaf _ -> ()
         | Derivation.Node _ ->
           results := d :: !results;
           incr n_results;
           if !n_results >= limit then raise Done)
   with Done -> ());
  List.rev !results
