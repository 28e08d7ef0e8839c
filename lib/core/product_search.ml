open Cfg
open Automaton

type costs = {
  transition : int;
  reverse_transition : int;
  production_step : int;
  duplicate_production : int;
  reduction : int;
  off_path : int;
}

(* Tuned empirically (see bench/main.ml's ablation): making production steps
   markedly dearer than transitions and reductions free orders leaf-heavy
   completions first and shrinks explored configurations by 10-30x on the
   corpus without changing any outcome. *)
let default_costs =
  { transition = 1;
    reverse_transition = 1;
    production_step = 4;
    duplicate_production = 12;
    reduction = 0;
    off_path = 4 }

(* A configuration of the outward search (paper, Fig. 8): one item sequence
   and one partial-derivation list per simulated parser copy. Invariants:

   - consecutive entries of a sequence are connected by a production step
     (same state, next item has dot 0 on a production of the symbol at the
     previous item's dot) or by a transition/goto (next item is the previous
     one advanced, in the successor state);
   - the first entries of both sequences are in the same state;
   - [derivs] holds one derivation per transition/goto edge, in order, and
     the two sides' derivation frontiers spell the same symbol string.

   Sequence entries are packed integers [(state lsl kbits) lor item_id] over
   the automaton's interned item ids: every hot comparison (duplicate
   checks, visited-set equality) is an int compare, advancing or retreating
   an item is an increment or decrement of the low bits, and each sequence
   carries its fold hash so the visited table never rehashes from scratch on
   the append-only moves. *)
type vec = {
  a : int array;  (* packed entries, in sequence order *)
  h : int;  (* cached hash: fold of [acc * 65599 + e] over [a], seed 17 *)
}

type config = {
  seq1 : vec;
  derivs1 : Derivation.t array;
  seq2 : vec;
  derivs2 : Derivation.t array;
  anchor1 : int;  (** index of the conflict item entry; -1 once reduced *)
  anchor2 : int;
  complete1 : bool;  (** stage 1 done: conflict reduce item reduced *)
  complete2 : bool;  (** stage 2 done: other conflict item's production reduced *)
  shifted_conflict : bool;
      (** the conflict terminal has been consumed by a forward transition *)
}

type stats = {
  configs_explored : int;
  elapsed : float;
}

type unifying = {
  nonterminal : int;
  form : Symbol.t list;
  deriv1 : Derivation.t;
  deriv2 : Derivation.t;
}

type outcome =
  | Unifying of unifying * stats
  | Timeout of stats
  | Exhausted of stats

(* ------------------------------------------------------------------ *)
(* Packed sequences. *)

let vec_hash a = Array.fold_left (fun acc e -> (acc * 65599) + e) 17 a

let vec_of_array a = { a; h = vec_hash a }

let vec_len v = Array.length v.a

let vec_last v = v.a.(Array.length v.a - 1)

let vec_append v e =
  let n = Array.length v.a in
  let a = Array.make (n + 1) e in
  Array.blit v.a 0 a 0 n;
  (* The fold hash extends in O(1) on appends — the common forward moves. *)
  { a; h = (v.h * 65599) + e }

let vec_prepend e v =
  let n = Array.length v.a in
  let a = Array.make (n + 1) e in
  Array.blit v.a 0 a 1 n;
  vec_of_array a

let vec_mem e v = Array.exists (fun e' -> e' = e) v.a

let vec_equal v1 v2 =
  let n1 = Array.length v1.a and n2 = Array.length v2.a in
  n1 = n2
  &&
  let rec go i = i >= n1 || (v1.a.(i) = v2.a.(i) && go (i + 1)) in
  go 0

let darr_append d x =
  let n = Array.length d in
  let a = Array.make (n + 1) x in
  Array.blit d 0 a 0 n;
  a

let darr_prepend x d =
  let n = Array.length d in
  let a = Array.make (n + 1) x in
  Array.blit d 0 a 1 n;
  a

(* ------------------------------------------------------------------ *)

module Key = struct
  type t = config

  (* One traversal per sequence, guarded by the cached lengths and hashes, so
     unequal-length sequences can never reach the elementwise loop. *)
  let equal c1 c2 =
    c1.complete1 = c2.complete1 && c1.complete2 = c2.complete2
    && c1.shifted_conflict = c2.shifted_conflict
    && c1.anchor1 = c2.anchor1 && c1.anchor2 = c2.anchor2
    && c1.seq1.h = c2.seq1.h && c1.seq2.h = c2.seq2.h
    && vec_equal c1.seq1 c2.seq1
    && vec_equal c1.seq2 c2.seq2

  let hash c =
    let h = (c.seq1.h * 65599) + c.seq2.h in
    (h * 4)
    + (if c.complete1 then 1 else 0)
    + (if c.complete2 then 2 else 0)
    + if c.shifted_conflict then 4 else 0
end

module Ktbl = Hashtbl.Make (Key)

(* ------------------------------------------------------------------ *)

type context = {
  lalr : Lalr.t;
  g : Grammar.t;
  analysis : Analysis.t;
  lr0 : Lr0.t;
  kbits : int;  (* bits of a packed entry holding the item id *)
  first_id : int array;  (* interned id of [(p, 0)] per production [p] *)
  costs : costs;
  terminal : int;  (* the conflict terminal *)
  on_path : bool array;  (* per state *)
  extended : bool;
  is_shift_reduce : bool;
  shift_dot : int option;  (* original dot of the shift item, for the marker *)
}

let pack ctx state id = (state lsl ctx.kbits) lor id
let state_of ctx e = e lsr ctx.kbits
let id_of ctx e = e land ((1 lsl ctx.kbits) - 1)

let next_of ctx e = Lr0.next_symbol_of_id ctx.lr0 (id_of ctx e)
let dot_of ctx e = (Lr0.item_of_id ctx.lr0 (id_of ctx e)).Item.dot
let is_reduce_of ctx e = Option.is_none (next_of ctx e)

let lookahead_of ctx e =
  Lalr.lookahead_of_id ctx.lalr (state_of ctx e) (id_of ctx e)

(* Can the expansion of production [p]'s right-hand side (of a
   production-step target) begin with the conflict terminal, or vanish
   entirely so that a later symbol provides it? Used to prune forward
   production steps before the conflict terminal has been consumed. The
   FIRST sets come from the per-(production, dot) memo table, not a
   recomputed walk. *)
let can_lead_to ctx p t =
  let set, nullable = Analysis.first_of_prod ctx.analysis ~prod:p ~from:0 in
  nullable || Bitset.mem set t

(* The terminal the product parser will consume next, if it is already
   determined by the other side's last item; [-1] when it is not. *)
let next_terminal_hint ctx other_last =
  match next_of ctx other_last with
  | Some (Symbol.Terminal t) -> t
  | Some (Symbol.Nonterminal _) | None -> -1

(* ------------------------------------------------------------------ *)
(* Successor moves.

   The queue holds moves, not configurations. A move function checks its
   preconditions on the parent configuration, computes the move's cost (the
   queue priority) and emits a [move]: the parent plus the few integers that
   determine the successor. [build] makes the successor configuration only
   when the queue pops the move. A successor that is never popped, because
   the search stopped first, never allocates its sequences or derivations. *)

type move =
  | Initial of config
  | Forward of config * int * int  (* successor states of the two sides *)
  | Production of config * int * int  (* side, dot-0 entry to append *)
  | Reduce of config * int  (* side *)
  | Reverse_transition of config * int  (* predecessor state *)
  | Reverse_production of config * int * int  (* side, context entry to prepend *)

let bump a = if a < 0 then a else a + 1

(* Forward transition (paper, Fig. 10(a)): both sides advance over the same
   symbol. Before the conflict terminal is consumed, only it may be shifted. *)
let forward_transition ctx cfg emit =
  let l1 = vec_last cfg.seq1 and l2 = vec_last cfg.seq2 in
  match next_of ctx l1, next_of ctx l2 with
  | Some z1, Some z2
    when Symbol.equal z1 z2
         && (cfg.shifted_conflict
            || match z1 with
               | Symbol.Terminal t -> t = ctx.terminal
               | Symbol.Nonterminal _ -> false) -> (
    match
      Lr0.transition ctx.lr0 (state_of ctx l1) z1,
      Lr0.transition ctx.lr0 (state_of ctx l2) z1
    with
    | Some s1', Some s2' -> emit ctx.costs.transition (Forward (cfg, s1', s2'))
    | None, _ | _, None -> ())
  | _, _ -> ()

let build_forward ctx cfg s1' s2' =
  let l1 = vec_last cfg.seq1 and l2 = vec_last cfg.seq2 in
  let leaf = Derivation.leaf (Option.get (next_of ctx l1)) in
  { cfg with
    seq1 = vec_append cfg.seq1 (pack ctx s1' (id_of ctx l1 + 1));
    derivs1 = darr_append cfg.derivs1 leaf;
    seq2 = vec_append cfg.seq2 (pack ctx s2' (id_of ctx l2 + 1));
    derivs2 = darr_append cfg.derivs2 leaf;
    shifted_conflict = true }

(* Forward production step (paper, Fig. 10(b)). *)
let forward_production_steps ctx cfg ~side emit =
  let seq = if side = 1 then cfg.seq1 else cfg.seq2 in
  let l = vec_last seq in
  (* If the other side already fixes the next terminal, only expansions that
     can start with it (or vanish) are worth taking. *)
  let other_hint =
    if not cfg.shifted_conflict then ctx.terminal
    else
      next_terminal_hint ctx
        (vec_last (if side = 1 then cfg.seq2 else cfg.seq1))
  in
  match next_of ctx l with
  | Some (Symbol.Nonterminal nt) ->
    List.iter
      (fun p ->
        if other_hint < 0 || can_lead_to ctx p other_hint then begin
          let entry' = pack ctx (state_of ctx l) ctx.first_id.(p) in
          let cost =
            if vec_mem entry' seq then ctx.costs.duplicate_production
            else ctx.costs.production_step
          in
          emit cost (Production (cfg, side, entry'))
        end)
      (Grammar.productions_of ctx.g nt)
  | Some (Symbol.Terminal _) | None -> ()

(* Reduction on one side (paper, Fig. 10(f)). *)
let reduction ctx cfg ~side emit =
  let seq = if side = 1 then cfg.seq1 else cfg.seq2 in
  let l = vec_last seq in
  if
    is_reduce_of ctx l
    && vec_len seq >= Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) + 2
  then begin
    (* Respect the lookahead set: if the next terminal is already
       determined, the reduce item must admit it; before the conflict
       terminal is consumed, the conflict terminal itself must be
       admissible. *)
    let la = lookahead_of ctx l in
    let hint =
      next_terminal_hint ctx
        (vec_last (if side = 1 then cfg.seq2 else cfg.seq1))
    in
    if
      (hint < 0 || Bitset.mem la hint)
      && (cfg.shifted_conflict || Bitset.mem la ctx.terminal)
    then emit ctx.costs.reduction (Reduce (cfg, side))
  end

let build_reduction ctx cfg ~side =
  let seq, derivs, anchor =
    if side = 1 then cfg.seq1, cfg.derivs1, cfg.anchor1
    else cfg.seq2, cfg.derivs2, cfg.anchor2
  in
  let l = vec_last seq in
  let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
  let lhs = Lr0.lhs_of_id ctx.lr0 (id_of ctx l) in
  let keep = vec_len seq - len_rhs - 1 in
  let ctx_entry = seq.a.(keep - 1) in
  (match next_of ctx ctx_entry with
  | Some (Symbol.Nonterminal nt) when nt = lhs -> ()
  | _ -> assert false);
  match
    Lr0.transition ctx.lr0 (state_of ctx ctx_entry) (Symbol.Nonterminal lhs)
  with
  | None -> assert false
  | Some s' ->
    let prod = Item.production ctx.g (Lr0.item_of_id ctx.lr0 (id_of ctx l)) in
    let n_derivs = Array.length derivs in
    let children =
      Array.to_list (Array.sub derivs (n_derivs - len_rhs) len_rhs)
    in
    let completes_conflict = anchor >= 0 && anchor >= keep in
    let dot =
      if not completes_conflict then None
      else if side = 1 then Some len_rhs
      else
        match ctx.shift_dot with
        | Some d -> Some d
        | None -> Some len_rhs (* reduce/reduce second item *)
    in
    let node = Derivation.node ?dot ctx.g prod.Grammar.index children in
    let derivs' = darr_append (Array.sub derivs 0 (n_derivs - len_rhs)) node in
    let seq' =
      let a = Array.make (keep + 1) 0 in
      Array.blit seq.a 0 a 0 keep;
      a.(keep) <- pack ctx s' (id_of ctx ctx_entry + 1);
      vec_of_array a
    in
    let anchor' = if completes_conflict then -1 else anchor in
    if side = 1 then
      { cfg with
        seq1 = seq'; derivs1 = derivs'; anchor1 = anchor';
        complete1 = cfg.complete1 || completes_conflict }
    else
      { cfg with
        seq2 = seq'; derivs2 = derivs'; anchor2 = anchor';
        complete2 = cfg.complete2 || completes_conflict }

(* How a side that ends in a reduce item must be prepared before the
   reduction of Fig. 10(f) can fire. With [m] entries and a right-hand side
   of length [l]:
   - [m = l + 1]: the dot chain is complete, only the context item is
     missing: reverse production step on this side (Fig. 10(d));
   - [m < l + 1]: more symbols are needed: reverse transitions (Fig. 10(c)),
     unblocked if necessary by a reverse production step on the other side
     (Fig. 10(e));
   - [m >= l + 2]: ready, no preparation. *)
type preparation =
  | No_preparation
  | Needs_context  (* m = l + 1 *)
  | Needs_symbols  (* m < l + 1 *)

let preparation ctx seq =
  let l = vec_last seq in
  if not (is_reduce_of ctx l) then No_preparation
  else begin
    let len_rhs = Lr0.rhs_length_of_id ctx.lr0 (id_of ctx l) in
    let m = vec_len seq in
    if m >= len_rhs + 2 then No_preparation
    else if m = len_rhs + 1 then Needs_context
    else Needs_symbols
  end

(* Reverse transition (paper, Fig. 10(c)): prepend matching predecessor
   entries to both sequences. Both front entries must have their dot past
   0; [successors] checks that before calling. *)
let reverse_transitions ctx cfg emit =
  let f1 = cfg.seq1.a.(0) and f2 = cfg.seq2.a.(0) in
  assert (state_of ctx f1 = state_of ctx f2);
  let p1 = id_of ctx f1 - 1 and p2 = id_of ctx f2 - 1 in
  if Option.is_some (Lr0.state ctx.lr0 (state_of ctx f1)).Lr0.accessing then
    List.iter
      (fun s0 ->
        if
          Lr0.has_item_id ctx.lr0 s0 p1
          && Lr0.has_item_id ctx.lr0 s0 p2
          (* Stage-1 lookahead condition on the first parser's item. *)
          && (cfg.complete1
             || Bitset.mem (Lalr.lookahead_of_id ctx.lalr s0 p1) ctx.terminal)
        then begin
          let off_path = not ctx.on_path.(s0) in
          if ctx.extended || not off_path then
            emit
              (ctx.costs.reverse_transition
              + if off_path then ctx.costs.off_path else 0)
              (Reverse_transition (cfg, s0))
        end)
      (Lr0.predecessors ctx.lr0 (state_of ctx f1))

let build_reverse_transition ctx cfg s0 =
  let f1 = cfg.seq1.a.(0) and f2 = cfg.seq2.a.(0) in
  let z = Option.get (Lr0.state ctx.lr0 (state_of ctx f1)).Lr0.accessing in
  let leaf = Derivation.leaf z in
  { cfg with
    seq1 = vec_prepend (pack ctx s0 (id_of ctx f1 - 1)) cfg.seq1;
    derivs1 = darr_prepend leaf cfg.derivs1;
    seq2 = vec_prepend (pack ctx s0 (id_of ctx f2 - 1)) cfg.seq2;
    derivs2 = darr_prepend leaf cfg.derivs2;
    anchor1 = bump cfg.anchor1;
    anchor2 = bump cfg.anchor2 }

(* Reverse production step (paper, Fig. 10(d)/(e)): prepend a context item of
   the same state to whichever sequence starts with a dot-0 item. *)
let reverse_production_steps ctx cfg ~side emit =
  let seq = if side = 1 then cfg.seq1 else cfg.seq2 in
  if vec_len seq > 0 && dot_of ctx seq.a.(0) = 0 then begin
    let f = seq.a.(0) in
    let f_state = state_of ctx f in
    let lhs = Lr0.lhs_of_id ctx.lr0 (id_of ctx f) in
    (* Precise-lookahead pruning: while the conflict reduction is still
       pending on this side (stage 1, and stage 2 of reduce/reduce
       conflicts), the conflict terminal must be able to follow the reduced
       nonterminal in the prepended context, i.e. belong to the context
       item's followL. This is sound — the LALR lookahead used is an
       overapproximation — and prunes contexts that can never exhibit the
       conflict. *)
    let conflict_reduction_pending =
      if side = 1 then not cfg.complete1
      else (not ctx.is_shift_reduce) && not cfg.complete2
    in
    List.iter
      (fun (ctx_item : Item.t) ->
        let ctx_id = Lr0.item_id ctx.lr0 ctx_item in
        if
          (not conflict_reduction_pending)
          || Analysis.follow_l_mem ctx.analysis
               (Item.production ctx.g ctx_item)
               ~dot:ctx_item.Item.dot
               (Lalr.lookahead_of_id ctx.lalr f_state ctx_id)
               ctx.terminal
        then begin
          let entry = pack ctx f_state ctx_id in
          let cost =
            if vec_mem entry seq then ctx.costs.duplicate_production
            else ctx.costs.production_step
          in
          emit cost (Reverse_production (cfg, side, entry))
        end)
      (Lr0.items_with_next ctx.lr0 f_state (Symbol.Nonterminal lhs))
  end

let build ctx = function
  | Initial cfg -> cfg
  | Forward (cfg, s1', s2') -> build_forward ctx cfg s1' s2'
  | Production (cfg, 1, entry) -> { cfg with seq1 = vec_append cfg.seq1 entry }
  | Production (cfg, _, entry) -> { cfg with seq2 = vec_append cfg.seq2 entry }
  | Reduce (cfg, side) -> build_reduction ctx cfg ~side
  | Reverse_transition (cfg, s0) -> build_reverse_transition ctx cfg s0
  | Reverse_production (cfg, 1, entry) ->
    { cfg with seq1 = vec_prepend entry cfg.seq1; anchor1 = bump cfg.anchor1 }
  | Reverse_production (cfg, _, entry) ->
    { cfg with seq2 = vec_prepend entry cfg.seq2; anchor2 = bump cfg.anchor2 }

(* Emit every move out of [cfg]. The order is part of the search's
   behaviour: equal-cost moves pop first-in first-out, so the groups go out
   last-first — reverse moves, reductions on side 2 then side 1, production
   steps on side 2 then side 1, and the forward transition last — with each
   group's own moves in grammar/automaton order. *)
let successors ctx cfg emit =
  let prep1 = preparation ctx cfg.seq1 and prep2 = preparation ctx cfg.seq2 in
  if prep1 = Needs_symbols || prep2 = Needs_symbols then begin
    assert (vec_len cfg.seq1 > 0 && vec_len cfg.seq2 > 0);
    let f1 = cfg.seq1.a.(0) and f2 = cfg.seq2.a.(0) in
    if dot_of ctx f1 > 0 && dot_of ctx f2 > 0 then
      reverse_transitions ctx cfg emit
    else begin
      (* Unblock reverse transitions (Fig. 10(e)): undo the production step
         that created whichever front item has its dot at 0. *)
      if dot_of ctx f2 = 0 then reverse_production_steps ctx cfg ~side:2 emit;
      if dot_of ctx f1 = 0 then reverse_production_steps ctx cfg ~side:1 emit
    end
  end;
  if prep2 = Needs_context then reverse_production_steps ctx cfg ~side:2 emit;
  if prep1 = Needs_context then reverse_production_steps ctx cfg ~side:1 emit;
  reduction ctx cfg ~side:2 emit;
  reduction ctx cfg ~side:1 emit;
  forward_production_steps ctx cfg ~side:2 emit;
  forward_production_steps ctx cfg ~side:1 emit;
  forward_transition ctx cfg emit

(* Success (paper, section 5.4): both sequences have become a single
   transition over the same nonterminal, and the two derivations of that
   nonterminal differ. *)
let success ctx cfg =
  if not (cfg.complete1 && cfg.complete2) then None
  else if
    vec_len cfg.seq1 <> 2 || vec_len cfg.seq2 <> 2
    || Array.length cfg.derivs1 <> 1
    || Array.length cfg.derivs2 <> 1
  then None
  else begin
    let a1 = cfg.seq1.a.(0) and a2 = cfg.seq2.a.(0) in
    let d1 = cfg.derivs1.(0) and d2 = cfg.derivs2.(0) in
    match next_of ctx a1, next_of ctx a2 with
    | Some (Symbol.Nonterminal n1), Some (Symbol.Nonterminal n2)
      when n1 = n2 && not (Derivation.equal d1 d2) ->
      Some { nonterminal = n1; form = Derivation.leaves d1; deriv1 = d1;
             deriv2 = d2 }
    | _, _ -> None
  end

(* ------------------------------------------------------------------ *)

(* Automaton-level pieces of the context that every conflict of a grammar
   shares; the driver memoizes one per session and passes it in. *)
type shared = {
  s_kbits : int;
  s_first_id : int array;
}

let shared_of_lalr lalr =
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  { s_kbits =
      (let n = Lr0.n_item_ids lr0 in
       let rec go b = if 1 lsl b >= n then b else go (b + 1) in
       go 1);
    s_first_id =
      Array.init (Grammar.n_productions g) (fun p ->
          Lr0.item_id lr0 (Item.make p 0)) }

(* Per-domain scratch pool: the visited table keeps its bucket capacity
   across searches ([Ktbl.clear] does not shrink), and so does the bucket
   queue. A search that stops at its budget leaves unbuilt moves queued;
   [put_scratch] clears them, and with them their references to explored
   configurations, before the scratch goes back. Take-out/put-back through
   the DLS slot: a search that raises abandons the scratch, so a dirty
   structure is never reused. *)
type scratch = {
  visited : unit Ktbl.t;
  queue : move Bucket_queue.t;
}

let scratch_slot : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_scratch () =
  let slot = Domain.DLS.get scratch_slot in
  let s =
    match !slot with
    | Some s -> s
    | None -> { visited = Ktbl.create 4096; queue = Bucket_queue.create () }
  in
  slot := None;
  s

let put_scratch s =
  Ktbl.clear s.visited;
  Bucket_queue.clear s.queue;
  Domain.DLS.get scratch_slot := Some s

let search ?(costs = default_costs) ?(extended = false)
    ?(deadline = Cex_session.Deadline.never)
    ?(trace = Cex_session.Trace.null) ?(max_configs = 400_000) ?shared lalr
    ~(conflict : Conflict.t) ~path_states =
  let clock =
    Option.value
      (Cex_session.Deadline.clock deadline)
      ~default:Cex_session.Clock.system
  in
  let started = Cex_session.Clock.now clock in
  let lr0 = Lalr.lr0 lalr in
  let g = Lalr.grammar lalr in
  let on_path = Array.make (Lr0.n_states lr0) false in
  List.iter (fun s -> on_path.(s) <- true) path_states;
  let { s_kbits = kbits; s_first_id = first_id } =
    match shared with Some s -> s | None -> shared_of_lalr lalr
  in
  let ctx =
    { lalr;
      g;
      analysis = Lalr.analysis lalr;
      lr0;
      kbits;
      first_id;
      costs;
      terminal = conflict.Conflict.terminal;
      on_path;
      extended;
      is_shift_reduce = Conflict.is_shift_reduce conflict;
      shift_dot =
        (match conflict.Conflict.kind with
        | Conflict.Shift_reduce { shift_item; _ } -> Some shift_item.Item.dot
        | Conflict.Reduce_reduce _ -> None) }
  in
  let initial =
    { seq1 =
        vec_of_array
          [| pack ctx conflict.Conflict.state
               (Lr0.item_id lr0 (Conflict.reduce_item conflict)) |];
      derivs1 = [||];
      seq2 =
        vec_of_array
          [| pack ctx conflict.Conflict.state
               (Lr0.item_id lr0 (Conflict.other_item conflict)) |];
      derivs2 = [||];
      anchor1 = 0;
      anchor2 = 0;
      complete1 = false;
      complete2 = false;
      shifted_conflict = false }
  in
  let scratch = take_scratch () in
  let visited = scratch.visited in
  let queue = scratch.queue in
  Bucket_queue.add queue 0 (Initial initial);
  let explored = ref 0 in
  let pushes = ref 1 in
  (* The cost of the configuration being expanded; [emit] adds each move's
     cost delta to it. One closure per search, not one per configuration. *)
  let base = ref 0 in
  let emit delta move =
    incr pushes;
    Bucket_queue.add queue (!base + delta) move
  in
  let result = ref None in
  let give_up =
    (* Check the deadline on loop entry: an already-expired per-conflict
       budget must not explore a single configuration. *)
    ref (if Cex_session.Deadline.expired deadline then Some `Timeout else None)
  in
  while Option.is_none !result && Option.is_none !give_up do
    if Bucket_queue.is_empty queue then give_up := Some `Exhausted
    else if
      !explored land Cex_session.Deadline.poll_mask = 0
      && Cex_session.Deadline.expired deadline
    then give_up := Some `Timeout
    else if !explored > max_configs then give_up := Some `Timeout
    else begin
      match Bucket_queue.pop queue with
      | None -> assert false
      | Some (cost, move) ->
        (* Built at pop time. A move whose configuration was explored
           before it was queued, or while it waited, is skipped here; such
           entries never reorder the others, so the configurations explored
           and their order do not depend on where the check runs. *)
        let cfg = build ctx move in
        if not (Ktbl.mem visited cfg) then begin
          Ktbl.add visited cfg ();
          incr explored;
          match success ctx cfg with
          | Some u -> result := Some u
          | None ->
            base := cost;
            successors ctx cfg emit
        end
    end
  done;
  put_scratch scratch;
  Cex_session.Trace.count trace "search" "configs_explored" !explored;
  Cex_session.Trace.count trace "search" "queue_pushes" !pushes;
  let stats =
    { configs_explored = !explored;
      elapsed = Cex_session.Clock.now clock -. started }
  in
  match !result, !give_up with
  | Some u, _ -> Unifying (u, stats)
  | None, Some `Timeout -> Timeout stats
  | None, Some `Exhausted -> Exhausted stats
  | None, None -> assert false
