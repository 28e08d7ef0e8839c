module Product_search = Cex.Product_search

(* The walk takes the same cost knobs under its own vocabulary, so one cost
   setting steers both searches identically. *)
let walk_costs (c : Product_search.costs) : Walk.costs =
  { Walk.step = c.Product_search.transition;
    rstep = c.Product_search.reverse_transition;
    expand = c.Product_search.production_step;
    re_expand = c.Product_search.duplicate_production;
    reduce = c.Product_search.reduction;
    detour = c.Product_search.off_path }

(* The walk's witness has the product counterexample's shape field for
   field. *)
let unifying (a : Walk.ambiguity) : Product_search.unifying =
  { Product_search.nonterminal = a.Walk.nonterminal;
    form = a.Walk.sentential_form;
    deriv1 = a.Walk.deriv1;
    deriv2 = a.Walk.deriv2 }

let stats (s : Walk.stats) : Product_search.stats =
  { Product_search.configs_explored = s.Walk.nodes_explored;
    elapsed = s.Walk.elapsed }

let search ?(costs = Product_search.default_costs) ?extended ?deadline ?trace
    ?max_configs sr ~conflict ~path_states =
  match
    Walk.search ~costs:(walk_costs costs) ?extended ?deadline ?trace
      ?max_nodes:max_configs sr ~conflict ~path_states
  with
  | Walk.Ambiguous (a, s) -> Product_search.Unifying (unifying a, stats s)
  | Walk.Timeout s -> Product_search.Timeout (stats s)
  | Walk.Exhausted s -> Product_search.Exhausted (stats s)
