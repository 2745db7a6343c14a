(** The engine's event queue: a binary min-heap keyed by [(at, seq)].

    The engine orders events by [(at, seq)] where both are plain [int]s
    ({!Vtime.t} is an integer count of microseconds, [seq] a submission
    sequence number).  [Prio] stores the two keys unboxed in parallel
    [int] arrays beside a payload array and compares them with
    monomorphic integer comparisons.  Neither [push] nor [pop_min]
    allocates (beyond amortised array growth), and both sift with a
    hole: each level of a sift writes one slot of each array, so a level
    costs one [payloads] write barrier where a swap costs two. *)
module Prio : sig
  type 'a t
  (** A min-heap of ['a] payloads keyed by [(at, seq)]. *)

  val create : unit -> 'a t
  val is_empty : _ t -> bool
  val size : _ t -> int

  val push : 'a t -> at:int -> seq:int -> 'a -> unit
  (** Keys are compared lexicographically: earlier [at] first, ties
      broken by lower [seq].  [seq] values must be distinct for a fully
      deterministic order (the engine guarantees this). *)

  val min_at : _ t -> int
  (** [at] key of the minimum.  @raise Invalid_argument when empty. *)

  val pop_min : 'a t -> 'a
  (** Removes the minimum and returns its payload; read {!min_at} first
      if the key is needed.  @raise Invalid_argument when empty. *)
end
