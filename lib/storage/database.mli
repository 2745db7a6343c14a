(** One site's replica of the (fully or partially) replicated database.

    The paper keeps "data copies within the virtual memory of each process
    which represented a site" (§1.2, assumption 3), factoring out I/O; we
    do the same.  Each copy of a data item carries a [value] and a
    [version] — the global commit sequence number of the last update
    applied to this copy.  Versions order copies: a copy is *out of date*
    exactly when its version is below the highest version of that item on
    any operational site, which is the condition fail-locks track.

    Items are identified by dense indices [0 .. num_items-1], matching the
    paper's model of a fixed hot set ("the portion of the database
    consisting of very frequently referenced data items"). *)

type t

type write = { item : int; value : int; version : int }
(** One committed update to one item. *)

val create : num_items:int -> t
(** All items start present with value 0 and version 0 (consistent across
    sites).  The dense backend: one unboxed [int array] of
    [2 * num_items] words holding each item's value and version side by
    side, with no per-item record, so {!apply} touches one cache line
    and allocates nothing, and {!image}, {!restore} and {!wipe} are
    blits.  @raise Invalid_argument on negative [num_items]. *)

val create_partial : num_items:int -> stored:(int -> bool) -> t
(** Partial replication: only items with [stored item = true] have a local
    copy; the rest are absent until materialised (control transaction
    type 3).  The sparse backend: a table of the copies that diverged
    from that initial state, O(touched items) whatever [num_items]. *)

val num_items : t -> int

val stores : t -> int -> bool
(** Whether this replica currently holds a copy of the item. *)

val materialize : t -> write -> unit
(** Create a local copy from an up-to-date remote copy (control type 3 /
    copier under partial replication).  Replaces any existing copy. *)

val drop : t -> int -> unit
(** Remove the local copy of an item (shedding a backup copy).
    @raise Invalid_argument if the item is out of range. *)

val read : t -> int -> (int * int) option
(** [read t item] is [Some (value, version)], or [None] when the item is
    not stored locally.  @raise Invalid_argument if out of range. *)

val version : t -> int -> int option

val apply : t -> write -> unit
(** Apply a committed write.  Versions must not regress: applying a write
    with a version at or below the stored one raises [Invalid_argument] —
    the engine's FIFO delivery and the protocol's serial execution make
    regressions a protocol bug, so we fail loudly.  Applying to an absent
    item materialises it (a write refreshes the copy).  Versions are
    above [min_int], which the dense backend reserves for an absent
    copy; {!apply} and {!materialize} reject it. *)

val apply_all : t -> write list -> unit

val wipe : t -> unit
(** Forget all volatile state back to the creation state: items covered
    at creation are pristine again ((value 0, version 0)), dynamically
    materialised copies are gone.  Models a crash losing main memory;
    write-ahead-log replay rebuilds from here. *)

val snapshot : t -> (int * int) option array
(** Per-item [(value, version)] copies; [None] for absent items. *)

type image
(** A checkpoint image: an immutable copy of a database in its backend's
    own format.  A partial-replication database images its placement
    predicate plus its diverged copies, O(stored copies); a dense one
    copies its array. *)

val image : ?reuse:image -> t -> image
(** The database's current state; later mutations do not affect it.
    [reuse] is an image the caller gives up: when both it and [t] are
    dense over the same items, its storage is overwritten and it is
    returned, so re-imaging allocates nothing.  The caller must hold no
    other reference to it.  Otherwise a fresh image is returned. *)

val restore : t -> image -> unit
(** [restore t img] makes every [read t item] equal to the [read] of the
    imaged database, whichever backend either side uses.  A
    partial-replication database keeps no slot for an item that reads as
    its pristine base state, so restoring an image of itself costs
    O(image), not O(items).
    @raise Invalid_argument if the item counts differ. *)

val equal : t -> t -> bool
(** Same item count and identical (value, version) for every item. *)
