(** Simulated stable storage: a write-ahead log with checkpoints.

    The paper factors data I/O out ("our system kept data copies within
    the virtual memory of each process", §1.2 assumption 3), which this
    repository reproduces by default.  For users who want crashes to mean
    something, [Raid_core.Config.durability = Wal _] switches each site to
    this store: every committed write is logged before the transaction
    completes, the volatile database is {e wiped} on a crash, and recovery
    rebuilds it by replaying the last checkpoint plus the log tail.  The
    site's own session number also lives here, because session numbers
    must be monotone across crashes.

    The store is an in-memory simulation of a disk: nothing is written to
    the file system, but the information flow is exactly that of a
    checkpointed redo log, so recovery correctness is exercised for
    real. *)

type prepared = { p_txn : int; coordinator : int; writes : Database.write list }
(** A durably buffered prepare: the participant voted yes for [p_txn]
    (coordinated by [coordinator]) and must be able to apply [writes]
    after a crash if the decision turns out to be commit. *)

type t

val create :
  ?checkpoint_interval:int ->
  ?backing:Shared_wal.handle ->
  ?initial:Database.t ->
  num_items:int ->
  unit ->
  t
(** A fresh store whose checkpoint is the owner's initial database:
    [initial] when given (a partial-replication site must pass its own
    database, or the first post-crash replay resurrects phantom copies
    of items it never stored), otherwise all items at (value 0,
    version 0).  [checkpoint_interval] (default 64) is the number of
    appended entries after which {!maybe_checkpoint} compacts.

    When [backing] is given, every durable mutation (redo append,
    prepare, decision, session bump, checkpoint, forget) additionally
    emits a tenant-prefixed record into that {!Shared_wal} shard log —
    the multi-tenant engine's group-commit path.  The WAL's own contents
    and recovery semantics are unchanged; the backing only accounts the
    durable byte stream.
    @raise Invalid_argument on non-positive interval, negative
    [num_items], or an [initial] of a different shape. *)

val append : t -> txn:int -> Database.write -> unit
(** Log one committed write of [txn] (redo record).  The log keeps the
    write's item, value and version in [int] arrays, not the write
    itself, and allocates nothing beyond amortised growth of those
    arrays.  [txn] counts in the record's simulated size but is not
    kept: replay does not need it. *)

val log_length : t -> int
(** Entries since the last checkpoint. *)

val checkpoint : t -> Database.t -> unit
(** Compact: take a {!Database.image} of the given database as the new
    checkpoint and truncate the log.  The database must already contain
    every logged write (it is the authoritative copy at a quiescent
    point).  The image costs O(stored copies) for a partial-replication
    database; the [Checkpoint] record accounted to a [backing] log is
    still [num_items] image slots.
    @raise Invalid_argument if the database shape differs. *)

val maybe_checkpoint : t -> Database.t -> bool
(** [checkpoint] iff the log tail has reached the interval; returns
    whether it did. *)

val checkpoints_taken : t -> int

val replay_into : t -> Database.t -> int
(** Rebuild the database from the checkpoint plus the log tail: every
    item is restored to its checkpointed state ({!Database.restore}) and
    redo records are re-applied in order, O(image + log tail).  Returns
    the number of log entries replayed.
    @raise Invalid_argument if the database shape differs. *)

val session : t -> int
(** The durably stored session number (initially 1). *)

val record_session : t -> int -> unit
(** Persist a new session number.  @raise Invalid_argument if it does
    not increase. *)

(** {1 In-doubt transaction records}

    Prepare and decision records are stored in side tables, {e not} in
    the redo log: {!checkpoint} truncates the log without touching them
    (a checkpoint taken while a prepare is buffered must not drop the
    in-doubt transaction), and {!replay_into} never materializes a
    prepared-but-undecided write (only committed redo records replay).
    A participant logs a prepare before voting yes and forgets it once
    the decision is applied or the transaction aborts; a coordinator
    logs a commit decision at the decide point (before any [Commit]
    message leaves) and forgets it once every participant has acked. *)

val log_prepare : t -> txn:int -> coordinator:int -> Database.write list -> unit
(** Durably buffer an in-doubt prepare (overwrites any record for the
    same transaction). *)

val forget_prepare : t -> txn:int -> unit
(** Drop the prepare record once the transaction is decided locally. *)

val prepared : t -> prepared list
(** All in-doubt prepares, in transaction-id order. *)

val prepared_count : t -> int

val log_decision : t -> txn:int -> unit
(** Durably record a commit decision for a transaction this site
    coordinates.  There is no abort record: absence means presumed
    abort. *)

val forget_decision : t -> txn:int -> unit

val decided_commit : t -> txn:int -> bool
(** Whether a durable commit decision exists for [txn]. *)
