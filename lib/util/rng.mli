(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the repository (workload generation,
    coordinator choice, failure schedules in property tests) flows through
    this module so that every experiment and every figure is exactly
    replayable from a seed.  The generator is splitmix64, which has a
    64-bit state, passes BigCrush, and is trivially splittable. *)

type t
(** A mutable generator.  Generators are cheap; split one per independent
    stream rather than sharing a single stream across concerns. *)

val create : int -> t
(** [create seed] returns a generator deterministically derived from
    [seed].  Two generators created from the same seed produce identical
    streams. *)

val mix : int -> int
(** [mix n] is a stateless hash of [n] (the splitmix64 finalizer),
    returned as a non-negative [int].  Deterministic across runs; used
    for seedless hashing such as hash-sharded placement. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val choose : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  @raise Invalid_argument on []. *)

val choose_weighted : t -> ('a * float) list -> 'a
(** [choose_weighted t alternatives] picks an alternative with probability
    proportional to its weight.  Weights must be non-negative and sum to a
    positive value.  @raise Invalid_argument otherwise. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
