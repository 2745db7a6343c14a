(** A database site: the message-driven state machine implementing the
    ROWAA replicated copy control protocol.

    One value of type {!t} holds everything a mini-RAID site process held:
    a copy of the database, a nominal session vector, a fail-lock table
    and the transient coordinator/participant state of the two-phase
    commit of Appendix A.  Sites communicate only through
    {!Raid_net.Engine} messages; the managing site injects
    [Begin_txn]/[Recover_command]/[Failure_noticed] inputs (see
    {!Cluster} for the driver that does this).

    Protocol summary (paper §1.1, §1.2, Appendix A):
    - A coordinator receiving a transaction first runs copier
      transactions for every read of a fail-locked copy; if any needed
      copy has no operational up-to-date source the transaction aborts.
    - Phase 1 sends the copy updates to the participants — every
      operational site under full replication, the operational holders
      of the written items under partial replication; phase 2 commits.
      A participant failure aborts the transaction and triggers control
      transaction type 2; a missing commit-ack triggers control-2 but
      the commit still completes.
    - Commitment (re-)clears each written item's fail-lock bit for every
      up site and sets it for every down site.
    - Recovery (control-1) announces a fresh session number to every
      other site (its own vector may be stale) and installs the session
      vector and fail-lock table fetched from one of them, trying the
      believed-operational sites first.
    - The two-step recovery policy and control transaction type 3 are the
      paper's §3.2 proposed extensions. *)

type t

val create :
  id:int ->
  config:Config.t ->
  metrics:Metrics.t ->
  on_outcome:(Metrics.outcome -> unit) ->
  ?obs:Raid_obs.Trace.sink ->
  ?wal_factory:(site:int -> initial:Raid_storage.Database.t -> Raid_storage.Wal.t) ->
  unit ->
  t
(** A fresh site in the initial consistent state (database of zeros,
    everything up, no fail-locks).  [on_outcome] fires once per database
    transaction this site coordinates, committed or aborted.  [obs], when
    given, receives the typed protocol trace ({!Raid_obs.Trace.event})
    this site emits; without it tracing costs one [None] branch per
    emission point.  [wal_factory], when given and the config's
    durability is [Durable_wal], builds this site's stable store instead
    of a private {!Raid_storage.Wal.create} — the multi-tenant engine
    passes a factory whose WALs share one group-committed
    {!Raid_storage.Shared_wal} shard log.  [initial] is the site's own
    initial database (the factory must pass it through, or partial
    replication resurrects phantom copies on replay).
    @raise Invalid_argument if [id] is outside [0, num_sites). *)

val handler : t -> Message.t Raid_net.Engine.handler
(** The event handler to register with the engine. *)

(** {2 Inspection} *)

val id : t -> int
val database : t -> Raid_storage.Database.t
val faillocks : t -> Faillock.t
val vector : t -> Session.t
val log : t -> Raid_storage.Update_log.t

val stores : t -> item:int -> bool
(** Current placement view for this site itself (static placement plus
    any control-3 backups materialised here). *)

val believes_stored : t -> site:int -> item:int -> bool
(** This site's view of another site's placement. *)

val is_waiting : t -> bool
(** [true] between [Recover_command] and the installation of the fetched
    state (control-1 in flight). *)

val session_number : t -> int
(** This site's own current session number. *)

val pending_2pc : t -> int
(** Sum over this site's in-flight coordinated transactions of the
    pending-acknowledgement set cardinality (copier sources awaited,
    phase-1 acks, phase-2 acks) — 0 at quiescence.  O(in-flight
    transactions): the bitset cardinalities are cached. *)

val buffered_prepares : t -> int
(** Participant-side phase-1 write sets buffered awaiting the
    coordinator's decision — 0 at quiescence. *)

val in_doubt : t -> int
(** Prepares this site would still have to resolve after a crash: the
    durable prepare records under [Config.Durable_wal], the volatile
    buffered prepares otherwise.  0 once every transaction this site
    voted on has been decided or presumed aborted. *)

val wal : t -> Raid_storage.Wal.t option
(** The site's simulated stable storage ([None] under
    [Config.In_memory]).  Read-only introspection for tests and the
    crash matrix; mutating it mid-run voids the recovery guarantees. *)

val on_crash : t -> unit
(** Reset volatile state (in-flight coordination, buffered phase-1
    writes).  The cluster driver calls this when it fails the site;
    database, fail-locks and session vector survive, as they would on
    stable storage.  A coordinated transaction past its decide point has
    durably logged the decision with its Commit messages already in
    flight, so its writes are preserved locally (logged to the WAL under
    [Config.Durable_wal]) rather than lost. *)
