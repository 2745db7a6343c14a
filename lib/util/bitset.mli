(** Fixed-capacity bitsets.

    The paper implements fail-locks as "a bit map for each data item"
    whose width is the number of possible sites, so that "fail-lock
    operations [can] be performed very quickly" (§1.2).  This module is
    that bitmap: a flat [Bytes.t]-backed set over indices
    [0 .. capacity-1] with O(1) set/clear/test and O(capacity/8)
    iteration. *)

type t

val create : int -> t
(** [create capacity] is an empty set over [0 .. capacity-1].
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : t -> int
(** Number of representable members. *)

val copy : t -> t

val set : t -> int -> unit
(** @raise Invalid_argument if the index is out of range. *)

val clear : t -> int -> unit
(** @raise Invalid_argument if the index is out of range. *)

val mem : t -> int -> bool
(** @raise Invalid_argument if the index is out of range. *)

val is_empty : t -> bool

val clear_all : t -> unit

val equal : t -> t -> bool
(** Structural equality; capacities must match for [true]. *)

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to each member in increasing order.  Zero
    bytes are skipped whole and only set bits are visited —
    O(capacity/8 + cardinal), with no intermediate list. *)

(** {2 Rows of a slab}

    A table of many bitmaps of one capacity can keep them all in one
    [Bytes.t] slab, [bytes_for capacity] bytes per row, instead of one
    heap block per bitmap.  The row at byte offset [pos] has the layout
    of a [t]'s bits.  These functions move bits between a [t] and a row
    without allocating.  Each takes the row's length from the [t] and
    raises [Invalid_argument] if the row does not fit in the slab. *)

val bytes_for : int -> int
(** Bytes a bitmap of this capacity occupies: [(capacity + 7) / 8]. *)

val store : t -> Bytes.t -> int -> unit
(** [store t slab pos] overwrites the row at [pos] with [t]'s bits. *)

val load : t -> Bytes.t -> int -> unit
(** [load t slab pos] overwrites [t] with the row at [pos]. *)

val equal_row : t -> Bytes.t -> int -> bool
(** Does the row at [pos] hold exactly [t]'s members? *)

val union_row_into : dst:t -> Bytes.t -> int -> unit
(** Or the row at [pos] into [dst]. *)

val to_list : t -> int list
(** Members in increasing order. *)
