(** Protocol invariant checkers.

    These implement the DESIGN.md §5 invariants as executable checks over
    a quiescent cluster; unit tests and qcheck properties call them after
    random failure/recovery/transaction schedules.  Each checker returns
    [Ok ()] or [Error description]. *)

type result = (unit, string) Stdlib.result

val faillocks_track_staleness : Cluster.t -> result
(** For every alive, non-waiting site [s] and item [i] stored by [s]:
    [s]'s copy is behind the reference version among alive sites iff the
    union fail-lock view has bit [(i, s)] set.  A behind-but-unlocked
    pair recorded by the cluster's knowledge-loss sweep
    ({!Cluster.knowledge_lost}) is tolerated: that is the DESIGN.md §11
    gap, already counted and warned about at the crash that caused it. *)

val no_stale_reads : Cluster.t -> result
(** Every read in every committed outcome returned the newest version
    committed before the reading transaction (or the reader's own write);
    see {!Cluster.first_stale_read}. *)

val write_durability : Cluster.t -> Metrics.outcome -> operational:int list -> result
(** Call right after the outcome completes: if it committed, every site
    in [operational] (those operational at commit) that stores a written
    item holds that item at version = the transaction's id.  This reads
    the data itself; checked later, a newer write would mask a missing
    one.  The cluster keeps no outcome history, so the caller passes
    each outcome as it observes it. *)

val convergence : Cluster.t -> result
(** With every site up: all databases equal and no fail-locks set.  Use
    after the recovery protocol should have completed. *)

val session_vectors_sane : Cluster.t -> result
(** Alive, non-waiting sites agree on which sites are up, and no alive
    site's perceived session number for a site exceeds that site's own. *)

val all : Cluster.t -> result
(** [faillocks_track_staleness], [no_stale_reads] and
    [session_vectors_sane] in sequence (the always-applicable checks). *)
