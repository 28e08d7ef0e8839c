(** Mutable min-priority queue with integer priorities and FIFO
    tie-breaking: least priority first, insertion order within a priority.

    A Dial-style bucket array indexed directly by priority. Intended for the
    monotone access pattern of the searches: small non-negative costs whose
    minimum never decreases. [clear] empties the queue while keeping bucket
    capacity, so an instance can be pooled and reused across searches. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val add : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] on a negative priority. *)

val pop : 'a t -> (int * 'a) option
(** Smallest priority first; among equal priorities, insertion order. *)

val clear : 'a t -> unit
(** Empty in place, retaining internal capacity for reuse. *)
