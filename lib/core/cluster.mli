(** The managing site: builds a cluster and drives it.

    The paper's managing site "provide[s] interactive control of system
    actions ... used to cause sites to fail and recover and to initiate a
    database transaction to a site" (§1.2).  This module is that driver:
    it owns the engine and the sites, injects transactions serially (the
    paper processes transactions serially, with no concurrency control),
    fails and recovers sites at transaction boundaries, and exposes the
    oracle views (global fail-lock counts, reference versions) the
    experiment harness plots.

    How a crash becomes known is chosen per call, not per cluster:
    - {!fail_site} crashes the site and tells the lowest-numbered
      survivor, which runs control transaction type 2 — how the paper's
      experiments stage failures between numbered transactions;
    - {!crash_site_now} crashes the site and tells nobody: survivors
      learn of it only when a send to the dead site fails during a later
      transaction (Appendix A's "site is now down" branches), which
      aborts that transaction and runs control-2. *)

(** The full construction row, as one record: the observation knobs,
    plus everything a cluster needs to exist as {e one tenant among
    many} in a process rather than the implicit only cluster.

    - [messages], when given, receives one {!Raid_obs.Trace.Message}
      event per network message arrival, delivered or not, through the
      engine's probe ({!Raid_net.Engine.set_probe}); without it no
      message event is built.  It may be the same sink as [obs], which
      interleaves arrivals with the protocol events they cause;
    - [obs] is handed to every site: one sink collects the whole
      cluster's protocol trace (entries carry the emitting site's id);
    - [telemetry], when given, is instrumented over every layer — per-site
      gauges (fail-lock table sizes, pending 2PC cardinalities, session
      up-counts), engine event/message/virtual-time counters via
      {!Raid_net.Engine.set_probe}, polled {!Metrics} totals and
      per-outcome latency histograms — and sampled at its interval as the
      engine's clock advances; telemetry reads but never changes the
      run;
    - [telemetry_labels] is prepended to the labels of {e every} series
      this cluster registers (the multi-tenant engine passes
      [("tenant", n)]), so thousands of clusters can share one registry
      without (name, labels) collisions;
    - [wal_factory] replaces each site's private {!Raid_storage.Wal}
      with one built by the caller — the hook through which all of a
      shard's tenants write into one group-committed
      {!Raid_storage.Shared_wal}.  Only consulted when the config's
      durability is [Durable_wal]. *)
module Spec : sig
  type wal_factory = site:int -> initial:Raid_storage.Database.t -> Raid_storage.Wal.t

  type t = {
    config : Config.t;
    messages : Raid_obs.Trace.sink option;
    obs : Raid_obs.Trace.sink option;
    telemetry : Raid_obs.Telemetry.t option;
    telemetry_labels : (string * string) list;
    wal_factory : wal_factory option;
  }

  val make :
    ?messages:Raid_obs.Trace.sink ->
    ?obs:Raid_obs.Trace.sink ->
    ?telemetry:Raid_obs.Telemetry.t ->
    ?telemetry_labels:(string * string) list ->
    ?wal_factory:wal_factory ->
    Config.t ->
    t
  (** Defaults: no sinks, no telemetry, no labels, private WALs. *)
end

type t

val of_spec : Spec.t -> t
(** A fresh cluster built from the full specification: all sites up,
    databases identical, no fail-locks. *)

val create : Config.t -> t
(** [of_spec (Spec.make config)]: every knob at its default. *)

val config : t -> Config.t
val metrics : t -> Metrics.t
val engine : t -> Message.t Raid_net.Engine.t
val num_sites : t -> int
val site : t -> int -> Site.t

val alive : t -> int -> bool
val alive_sites : t -> int list

val is_operational : t -> int -> bool
(** Can the site coordinate a transaction now: alive and not waiting
    for a recovery donor? *)

val operational : t -> int list
(** Ascending ids of the {!is_operational} sites.  Computed fresh on
    every call, so it never goes stale across fail and recover. *)

val fail_site : t -> int -> unit
(** Crash a site between transactions ({!crash_site_now}), then tell the
    lowest-numbered survivor, whose control transaction type 2 updates
    every survivor's session vector before this returns.  Volatile state
    is lost; database, fail-locks and session vector survive.  No-op if
    already down. *)

val terminate_site : t -> int -> unit
(** Graceful shutdown: the site announces its departure (the paper's
    [Terminating] session state), survivors update their vectors without
    control transaction 2 or timeouts, and the site then stops.  It
    rejoins later through the normal recovery protocol. *)

val crash_site_now : t -> int -> unit
(** Crash a site at the engine's current virtual time {e without}
    notifying survivors or draining the queue — the crash-matrix
    primitive for killing a site mid-protocol, between two handler
    events.  Messages already in flight to or from the site stay in the
    queue ({!Raid_net.Engine} semantics); survivors learn of the death
    through [Send_failed] bounces or a later [Failure_noticed]
    injection.  Also sweeps the dying site's fail-lock table for
    staleness knowledge no surviving site holds (the DESIGN.md §11
    knowledge-loss gap), counting and logging each lost fact.  No-op if
    already down. *)

val knowledge_lost : t -> item:int -> site:int -> bool
(** Whether the staleness fact "[site]'s copy of [item] is behind" was
    ever lost with its last alive witness (recorded by the crash sweep;
    never un-recorded).  {!Invariant.faillocks_track_staleness} tolerates
    recorded pairs. *)

val knowledge_loss_events : t -> int
(** Total (item, site) staleness facts lost across all crashes so far —
    also exported as the [raid_knowledge_loss_total] telemetry series. *)

val note_ghost_commit : t -> Txn.t -> unit
(** Record a committed outcome for a transaction whose coordinator
    crashed after durably deciding commit but before reporting — the
    writes land at the surviving participants, and without this the
    oracle ({!committed_version}, {!Invariant.no_stale_reads}) would
    treat them as uncommitted.  The caller must first prove the decision
    was commit (a survivor's {!Site.applied_commit} or the coordinator's
    durable decision record), and must call this before injecting any
    later transaction so the outcome history keeps submission order. *)

val recover_site : t -> int -> [ `Recovered | `Blocked ]
(** Bring a down site back: control transaction type 1 runs to
    completion.  [`Blocked] when no operational donor exists: the site
    stays alive but waiting, and a later call on it re-runs control 1.
    @raise Invalid_argument if the site is up and not waiting. *)

val submit : t -> coordinator:int -> Txn.t -> Metrics.outcome
(** Hand a database transaction to [coordinator] and run the system to
    quiescence; returns the transaction's outcome.  Transaction ids must
    be fresh and increasing across the life of the cluster (use
    {!next_txn_id}).
    @raise Invalid_argument if the coordinator is down or waiting, or
    an operation names an item outside [0 .. num_items - 1]; nothing is
    run then. *)

val next_txn_id : t -> int
(** Serial transaction numbers starting at 1, as in the paper. *)

val run_to_quiescence : t -> unit
(** Drain pending events (normally a no-op; every driver call already
    runs to quiescence). *)

(** {2 Concurrent driving}

    The concurrency extension ({!Raid_sim.Concurrent}) keeps several
    transactions in flight: it injects without draining and reacts to
    completions through a hook. *)

val inject_txn : t -> coordinator:int -> Txn.t -> unit
(** Hand a transaction to a coordinator {e without} running the engine;
    combine with {!run_to_quiescence} and {!set_outcome_hook}.  The
    caller is responsible for never injecting conflicting transactions
    concurrently (see {!Lock_manager}).
    @raise Invalid_argument as {!submit} does, before injecting
    anything. *)

val set_outcome_hook : t -> (Metrics.outcome -> unit) option -> unit
(** Called on every transaction outcome, in completion order, in
    addition to the internal bookkeeping. *)

(** {2 Oracle views}

    Computed over the union of the {e alive} sites' fail-lock tables —
    down sites' tables are frozen and may be stale. *)

val faillocks_for : t -> int -> int list
(** Items currently fail-locked for the given site, per the union view —
    the y-value the paper's figures plot per site. *)

val faillock_count_for : t -> int -> int

val faillock_counts : t -> int array
(** [faillock_count_for] for every site in one sweep over the tables —
    use this when a caller wants the whole per-site profile (the sweep
    runner samples it after every transaction). *)

val total_faillocks : t -> int
(** Set bits in the union view, over all items and sites. *)

type site_status = {
  st_id : int;
  st_alive : bool;
  st_waiting : bool;  (** down-then-recovered but still blocked on a donor *)
  st_faillocks : int;  (** items fail-locked {e for} this site, union view *)
  st_table_bits : int;  (** set bits in this site's own fail-lock table *)
  st_pending_2pc : int;  (** outstanding 2PC acks across its coordinated txns *)
  st_buffered_prepares : int;  (** participant write sets awaiting a decision *)
  st_session_up : int;  (** sites this site believes operational *)
}
(** One site's externally visible state — what a task-manager-style
    introspection API (the [raid serve] [/sites] endpoint) reports.
    Every field is read-only derived state; computing a status never
    perturbs the run. *)

val status : t -> site_status array
(** Every site's status, with the fail-lock oracle swept once
    ({!faillock_counts}). *)

val committed_version : t -> int -> int
(** Highest version ever committed for the item (0 initially), from the
    outcome history. *)

type stale_read = {
  reader : int;  (** the committed transaction that read *)
  item : int;
  version : int;  (** the version it read *)
  latest : int;  (** the newest version committed before it *)
}

val first_stale_read : t -> stale_read option
(** The first committed read, in completion order, that returned neither
    the newest version committed before it nor the reader's own write.
    Checked as each outcome arrives, so the cluster keeps no outcomes. *)

val fully_consistent : t -> bool
(** All alive sites' databases equal and the union fail-lock view empty —
    the paper's "completely recovered" condition when all sites are up. *)
