(** Session numbers and nominal session vectors (paper §1.1-1.2).

    A session number "identifies a time period in which a site is up"; it
    increments every time the site recovers.  A nominal session vector is
    "an array of records, with each record representing a site", holding
    the perceived session number and state of every site — the paper's
    four states are [Up], [Down], [Waiting_recover] and [Terminating].
    Each site consults its own vector to decide which sites participate in
    ROWAA transaction processing.

    The representation is sparse: every vector starts as "all sites up
    with session 1", so only entries that have diverged from that default
    are stored (plus a bitmap of non-[Up] sites for the hot-path
    queries).  Under k-holder partial replication a site only ever learns
    about its placement groups and the failures it witnesses, so
    {!create}, {!copy} and {!equal} are O(diverged) rather than O(sites)
    — the cost of spinning up or checkpointing a vector no longer grows
    with the cluster. *)

type state = Up | Down | Waiting_recover | Terminating

type entry = { session : int; state : state }

type t
(** A nominal session vector. *)

type hook = site:int -> session:int -> state:state -> unit
(** Observability callback, fired whenever a vector entry {e actually}
    changes (the arguments are the new entry). *)

val create : num_sites:int -> t
(** All sites perceived [Up] with session number 1 (the initial
    "consistent and up-to-date" configuration of every experiment).
    O(1) in the number of sites. *)

val set_hook : t -> hook option -> unit
(** Install (or remove) the change hook.  {!copy} never carries the hook
    over — copies are inert data shipped in messages.  With no hook the
    per-update overhead is one branch. *)

val num_sites : t -> int
val get : t -> int -> entry
val session : t -> int -> int
val state : t -> int -> state

val mark_down : t -> int -> unit
(** Session number is retained; only the state changes. *)

val mark_waiting : t -> int -> session:int -> unit

val mark_terminating : t -> int -> unit
(** Graceful departure announced; session number retained. *)

val mark_up : t -> int -> session:int -> unit

val is_up : t -> int -> bool

val up_count : t -> int
(** Number of sites perceived [Up].  O(1): the count is cached and
    maintained by every state transition. *)

val non_up : t -> Raid_util.Bitset.t
(** The sites not perceived [Up], as the vector's own bitmap — a live,
    read-only view that follows every state transition.  Callers must
    not mutate it; {!copy} it to keep a snapshot. *)

val iter_operational : t -> (int -> unit) -> unit
(** Apply to every site perceived [Up], in increasing id order, without
    materialising a list. *)

val iter_operational_except : t -> self:int -> (int -> unit) -> unit
(** {!iter_operational} skipping [self] (a coordinator's participants). *)

val operational_count_except : t -> self:int -> int
(** The number of sites {!iter_operational_except} visits, in O(1). *)

val first_operational : t -> (int -> bool) -> int option
(** Lowest-id [Up] site satisfying the predicate. *)

val copy : t -> t
(** O(diverged): only entries differing from the initial default are
    copied.  The hook is never carried over. *)

val diverged : t -> int
(** Number of entries currently differing from the initial default
    [{session = 1; state = Up}] — the size of the sparse storage. *)

val install : t -> from:t -> unit
(** Overwrite every entry of [t] with those of [from] (control-1
    installation at a recovering site).  @raise Invalid_argument on a
    size mismatch. *)

val merge_failure : t -> int list -> unit
(** Control-2: mark each listed site [Down]. *)

val equal : t -> t -> bool
val pp_state : Format.formatter -> state -> unit

val state_name : state -> string
(** ["up"], ["down"], ["waiting"] or ["terminating"]. *)
