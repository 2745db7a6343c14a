(** Replica placement: which sites hold a copy of which items.

    The paper's prototype is fully replicated — "each site stores a copy
    of every data item" — which makes every write, fail-lock table and
    2PC participant set O(sites).  This module introduces k-replication
    with *consecutive replica sets*: each item has a primary site chosen
    by a sharding function, and its k copies live on sites
    [primary, primary+1, ..., primary+k-1 (mod num_sites)].  Membership
    tests are O(1) (a circular-distance comparison, no per-item storage)
    and replica iteration is O(k) with no allocation, so protocol state
    shrinks from O(sites) to O(k) per item.  This is the sharded
    replica-group architecture of Sutra & Shapiro (fault-tolerant partial
    replication) and Bravo et al. (reconfigurable atomic commit).

    Control transactions of type 3 can still spawn *backup* copies on
    sites outside an item's static replica set; those dynamic extras are
    carried by a {!View} overlay per site, kept out of the O(1) base. *)

type sharding =
  | Hash  (** primary = splitmix64(item) mod sites — the default; spreads
              any item-id distribution evenly. *)
  | Range  (** contiguous key ranges: primary = item * sites / num_items;
               preserves key locality. *)
  | Modular  (** primary = item mod sites — matches the consecutive
                 placements used in the paper-era tests and examples. *)

type spec = { factor : int; sharding : sharding }
(** A declarative placement: [factor] copies per item ([k]); clamped to
    the site count at resolution time, so [factor >= num_sites]
    degenerates to full replication. *)

val spec : ?sharding:sharding -> factor:int -> unit -> spec
(** [spec ~factor ()] with [sharding] defaulting to {!Hash}. *)

val sharding_of_string : string -> (sharding, string) result
val sharding_to_string : sharding -> string
(** Round-trip the shardings ("hash", "range", "modular"). *)

type t
(** A resolved placement over a fixed [num_sites] x [num_items] space. *)

val full : num_sites:int -> num_items:int -> t
(** Every site holds every item (the paper's model). *)

val make : num_sites:int -> num_items:int -> spec -> t
(** Resolve a spec.  @raise Invalid_argument when [factor <= 0]. *)

val is_full : t -> bool
(** True when every site holds every item — either built with {!full} or
    a spec whose factor covers all sites.  The protocol uses this to keep
    full-replication fast paths byte-identical to the original code. *)

val factor : t -> int
(** Number of copies per item (= [num_sites] when full). *)

val primary : t -> int -> int
(** [primary t item] is the first site of the item's replica set. *)

val holds : t -> site:int -> item:int -> bool
(** O(1) membership: circular distance from the primary < factor. *)

val iter_replicas : t -> int -> (int -> unit) -> unit
(** [iter_replicas t item f] applies [f] to each of the item's k holders.
    Allocation-free.  Under full replication sites are visited in
    ascending order [0 .. num_sites-1]; under sharding, in ring order
    starting at the primary. *)

val fold_replicas : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a

val replicas : t -> int -> int list
(** The item's holders as a list (ring order from the primary). *)

(** {2 Per-site views with dynamic backups}

    A [View.t] is one site's belief about placement: the shared static
    base plus mutable per-site extras recording control-3 backup copies.
    Views are what the protocol consults; the hot path stays O(1)/O(k)
    because the extras overlay is empty until a backup is spawned. *)

module View : sig
  type placement := t
  type t

  val create : placement -> t
  (** Fresh view with no extras. *)

  val holds : t -> site:int -> item:int -> bool
  (** Static base OR a recorded backup. *)

  val add_backup : t -> site:int -> item:int -> unit
  (** Record that [site] now stores a dynamically spawned copy of [item].
      No-op when the base already covers it. *)

  val iter_holders : t -> int -> (int -> unit) -> unit
  (** Static replicas (ring order) then any backup holders (ascending
      site order), each site at most once. *)

  val count_holders_if : t -> int -> (int -> bool) -> int
  (** Number of holders of [item] satisfying the predicate. *)

  val exists_holder : t -> int -> (int -> bool) -> bool

  val extras : t -> (int * int list) list
  (** Backup copies as [(item, sites)] pairs, items ascending, sites
      ascending — the wire form shipped in recovery-state messages. *)

  val install_extras : t -> (int * int list) list -> unit
  (** Replace this view's extras wholesale (recovery installation). *)
end
