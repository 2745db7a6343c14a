(** Fail-lock tables (paper §1.1-1.2).

    "A replicated copy control algorithm uses a fail-lock to represent the
    fact that a copy of a data item is being updated while some other
    copies are unavailable due to site failure."  Implementation follows
    the paper: one bitmap per data item, one bit per site; bit [k] set for
    item [i] means site [k]'s copy of item [i] missed an update.  The
    table is fully replicated: every operational site maintains bits on
    behalf of every failed site. *)

type t

type hook = item:int -> site:int -> locked:bool -> unit
(** Observability callback, fired on every {e actual} bit transition
    ([locked] is the new state).  Not fired by no-op operations. *)

val create : num_items:int -> num_sites:int -> t
(** All bits clear, no hook. *)

val set_hook : t -> hook option -> unit
(** Install (or remove) the transition hook.  {!copy} never carries the
    hook over — copies are inert data shipped in messages.  With no hook
    the per-operation overhead is one branch. *)

val set : t -> item:int -> site:int -> bool
(** Returns [true] if the bit transitioned from clear to set (used to
    count newly created inconsistency).  @raise Invalid_argument out of
    range. *)

val clear : t -> item:int -> site:int -> bool
(** Returns [true] if the bit transitioned from set to clear. *)

val is_locked : t -> item:int -> site:int -> bool

val commit_update : t -> item:int -> down:Raid_util.Bitset.t -> unit
(** The paper's per-commit rule (§1.2): "the fail-lock for each site was
    cleared if the site was up and set for each failed site" — applied
    unconditionally to every site's bit of a committed item, which the
    paper found cheaper than conditional maintenance.  [down] is the set
    of sites not up (read, never kept); the item's row becomes exactly
    [down].  The transitions are [row xor down], visited in increasing
    site order at a cost of O(sites/8 + transitions), diffed against a
    scratch row the table owns, so the call allocates nothing.  With no
    bit set in the whole table and no site down it returns at once.
    Creating a row allocates nothing beyond amortised growth: rows live
    in one byte slab, found through an open-addressing index.
    Transitions are counted in {!set_transitions}/{!clear_transitions}.
    @raise Invalid_argument if [down]'s capacity is not [num_sites]. *)

val set_transitions : t -> int
val clear_transitions : t -> int
(** Running totals of the clear-to-set and set-to-clear bit transitions
    this table has made, by any operation; a {!copy} starts from its
    source's totals.  A caller tallies the transitions of a group of
    operations by reading them before and after. *)

val locked_items_for : t -> site:int -> int list
(** Items whose bit for [site] is set (a recovering site's out-of-date
    copies), increasing order. *)

val iter_locked_items_for : t -> site:int -> (int -> unit) -> unit
(** [locked_items_for] without the list: applies the function to each
    locked item in increasing order. *)

val any_locked_for : t -> site:int -> bool
(** Is any item fail-locked for [site]?  Stops at the first hit. *)

val count_for : t -> site:int -> int
(** Number of items fail-locked for a site — the y-axis of the paper's
    figures. *)

val locked_items : t -> int list
(** Items with at least one locked site, in increasing order. *)

val locked_sites : t -> item:int -> int list
(** Sites that have missed updates on this item. *)

val union_locked_into : dst:Raid_util.Bitset.t -> t -> item:int -> unit
(** Or this item's lock bitmap into [dst] (an oracle combining several
    sites' tables in one pass).  @raise Invalid_argument on capacity
    mismatch. *)

val clear_sites : t -> item:int -> sites:int list -> int
(** Clear the given sites' bits on one item; returns the number of bits
    actually cleared. *)

val copy : t -> t

val install : ?keep:(int -> bool) -> t -> from:t -> unit
(** Replace contents (control-1 installation).  [keep] filters which
    items' rows are taken from [from] (rows of dropped items are cleared)
    — under partial replication a site only maintains bits for items it
    holds.  Each row is a diff as in {!commit_update}: the hook sees the
    transitions item by item, in increasing site order.
    @raise Invalid_argument on shape mismatch. *)

val merge : t -> from:t -> unit
(** Bitwise union (used when reconciling fail-lock knowledge). *)

val total_locked : t -> int
(** Total set bits over all items and sites. *)

val equal : t -> t -> bool
