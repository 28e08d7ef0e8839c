(** An independent chart parser over {e sentential forms}, used to validate
    counterexamples: it counts (with saturation) how many distinct derivation
    trees a grammar admits for a given string of symbols.

    Input symbols may be nonterminals; a nonterminal in the input matches
    itself as an unexpanded leaf, exactly the convention of the paper's
    counterexamples ("no more concrete than necessary"). Counting is the
    Kleene fixpoint of the tree-counting equations with saturating
    arithmetic, so cyclic grammars (infinitely many trees) simply saturate at
    the cap instead of diverging. *)

open Cfg

type t
(** A grammar with its corner tables. Immutable: one value can be shared by
    every domain. *)

val make : Grammar.t -> t
(** Builds the corner tables: nullability (from the grammar alone), the
    reflexive left- and right-corner closures of every symbol, and, per
    right-hand-side suffix, the symbols that can start and end its yield.
    Linear in the grammar plus a word-level closure over its nonterminals.

    {b Cost model.} Each query builds a chart over the spans of its input.
    A span evaluates only the cells whose suffix or nonterminal has the
    span's first symbol as a left corner and its last symbol as a right
    corner (an empty span: the nullable ones); every other cell is zero. A
    chart allocates columns only for the positions and nonterminals the
    input's symbols select, so its time is the selected cells times the
    span length and its memory the selected columns times the O(n{^2})
    spans, not the whole grammar per span. *)

val count_trees :
  t -> ?cells:int ref -> ?cap:int -> start:Symbol.t -> Symbol.t list -> int
(** Number of derivation trees of the input from [start], including the
    trivial leaf tree when the input is [[start]] itself. Saturates at [cap]
    (default 4). [cells], when given, is increased by the number of chart
    cells evaluated: a machine-independent measure of the query's work. *)

val count_rooted :
  t -> ?cells:int ref -> ?cap:int -> start:Symbol.t -> Symbol.t list -> int
(** Like {!count_trees} but counts only trees that apply at least one
    production at the root. *)

val ambiguous_from :
  t -> ?cells:int ref -> start:Symbol.t -> Symbol.t list -> bool
(** Does the sentential form have two or more distinct rooted derivations
    from [start]? This is the defining property of a unifying
    counterexample. *)

val derives : t -> ?cells:int ref -> start:Symbol.t -> Symbol.t list -> bool

val derivations :
  t -> ?limit:int -> ?max_nodes:int -> start:Symbol.t -> Symbol.t list ->
  Derivation.t list
(** Enumerate up to [limit] distinct rooted derivation trees with at most
    [max_nodes] nodes each (default 2 trees of 200 nodes). *)
