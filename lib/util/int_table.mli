(** Tables keyed by non-negative ints, handing each key a dense slot.

    A table maps each key it holds to a slot in [0 .. capacity - 1],
    distinct from every other held key's slot and kept until the key is
    removed; the owner stores the entry's data at that index of arrays
    of its own ({!fit}), so an entry costs no record or bucket block of
    its own.  A removed key's slot is handed out again later.

    The index is open addressing with linear probing and backward-shift
    deletion, over a power-of-two bucket array at most three quarters
    full.  {!find}, {!mem}, {!add} and {!remove} allocate nothing beyond
    amortised growth, and no C hashing call is made.  A new table
    allocates nothing beyond its record: every table without entries
    shares one static bucket array. *)

type t

val absent : int
(** [-1]: what {!find} and {!remove} return for a key not in the table. *)

val create : unit -> t
(** An empty table. *)

val length : t -> int
(** Number of keys held. *)

val capacity : t -> int
(** Number of slots made so far: every held key's slot is below it. *)

val find : t -> int -> int
(** The key's slot, or {!absent}. *)

val mem : t -> int -> bool

val add : t -> int -> int
(** The key's slot, adding the key with a free slot if it is not held.
    @raise Invalid_argument on a negative key. *)

val remove : t -> int -> int
(** Drop the key; returns the slot it held (free from now on), or
    {!absent} if the key was not held.  The caller clears whatever it
    stored at that slot. *)

val reset : t -> unit
(** Drop every key and every slot: the table is as {!create} made it. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t acc] folds [f key slot] over the held keys, in no
    particular order. *)

val keys : t -> int list
(** The held keys, in increasing order. *)

val fit : t -> 'a array -> 'a -> 'a array
(** [fit t a filler] is an array indexed by [t]'s slots: [a] itself when
    it has a cell for every slot, otherwise a copy of [a] extended with
    [filler] to {!capacity} cells.  Call it after {!add}. *)

val copy : t -> t
(** An independent table holding the same keys in the same slots. *)
