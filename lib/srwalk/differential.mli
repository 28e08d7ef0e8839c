(** The SR-automaton walk in the product search's vocabulary: the one place
    that maps {!Cex.Product_search.costs} onto {!Walk.costs} and a walk
    witness onto a {!Cex.Product_search.unifying} counterexample.

    The walk is not a runtime engine. It is a differential check of
    {!Cex.Product_search}: the two implementations share move semantics and
    exploration order, so they must reach the same verdict with the same
    explored count on every conflict. The corpus agreement gate, the fuzzer,
    the bench and the tests call the walk through {!search} and compare its
    result with the product search's directly. *)

val search :
  ?costs:Cex.Product_search.costs ->
  ?extended:bool ->
  ?deadline:Cex_session.Deadline.t ->
  ?trace:Cex_session.Trace.sink ->
  ?max_configs:int ->
  Sr_automaton.t ->
  conflict:Automaton.Conflict.t ->
  path_states:int list ->
  Cex.Product_search.outcome
(** {!Walk.search} with {!Cex.Product_search.search}'s arguments and result
    type. [costs] defaults to {!Cex.Product_search.default_costs},
    [max_configs] bounds the explored nodes, and the walk's [nodes_explored]
    is reported as [configs_explored]. A witness comes back as
    {!Cex.Product_search.Unifying}, so the oracle checks it unchanged. *)
