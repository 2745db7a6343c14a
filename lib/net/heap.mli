(** The engine's event queue: a binary min-heap of slot numbers keyed by
    [(at, seq)].

    The engine orders events by [(at, seq)] where both are plain [int]s
    ({!Vtime.t} is an integer count of microseconds, [seq] a submission
    sequence number), and keeps each event's data in a slot of its own
    pool; the heap holds only the slot number.  [Prio] stores the two
    keys and the slot in three parallel [int] arrays and compares them
    with monomorphic integer comparisons.  Neither [push] nor [pop_min]
    allocates (beyond amortised array growth), and no write runs the
    GC's write barrier.  Both sift with a hole: each level of a sift
    writes one entry of each array, where a swap writes two. *)
module Prio : sig
  type t
  (** A min-heap of [int] slots keyed by [(at, seq)]. *)

  val create : unit -> t
  val is_empty : t -> bool
  val size : t -> int

  val push : t -> at:int -> seq:int -> int -> unit
  (** [push t ~at ~seq slot].  Keys are compared lexicographically:
      earlier [at] first, ties broken by lower [seq].  [seq] values must
      be distinct for a fully deterministic order (the engine guarantees
      this). *)

  val min_at : t -> int
  (** [at] key of the minimum.  @raise Invalid_argument when empty. *)

  val pop_min : t -> int
  (** Removes the minimum and returns its slot; read {!min_at} first if
      the key is needed.  @raise Invalid_argument when empty. *)
end
