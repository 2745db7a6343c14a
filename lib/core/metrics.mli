(** Cluster-wide protocol accounting.

    One instance is shared by all sites of a cluster.  Counters follow
    the quantities the paper records per experiment ("the number of
    fail-locks set, the number of fail-locks cleared, and the number of
    copier transactions requested", §3.1.1) plus the event-time samples
    behind every Experiment-1 table row. *)

type abort_reason =
  | Copier_unavailable
      (** a read hit a fail-locked copy and no operational site holds an
          up-to-date copy (the 13 aborts of Figure 2's scenario) *)
  | Copier_source_failed
      (** the site a copy request was sent to is now down (Appendix A) *)
  | Participant_failed  (** a participant died during phase 1 *)
  | Write_unavailable
      (** partial replication: a written item has no operational holder,
          so the update would be installed nowhere *)

type outcome = {
  txn : Txn.t;
  coordinator : int;
  committed : bool;
  abort_reason : abort_reason option;
  copier_requests : int;  (** copier transactions issued for this txn *)
  copier_items : int;  (** items refreshed by those copiers *)
  reads : (int * int * int) list;  (** (item, value, version) as read *)
  writes : Raid_storage.Database.write list;  (** installed writes; [] if aborted *)
  elapsed : Raid_net.Vtime.t;  (** coordinator time, reception to completion *)
}

(** Latency samples in the order recorded, stored unboxed. *)
module Samples : sig
  type t

  val add : t -> Raid_net.Vtime.t -> unit
  (** Record one virtual duration.  A group keeps its first 65,536
      samples and drops the rest, so memory stays bounded. *)

  val to_list : t -> float list
  (** In milliseconds ({!Raid_net.Vtime.to_ms}), most recent first. *)
end

type t = {
  mutable txns_committed : int;
  mutable txns_aborted : int;
  mutable copier_requests : int;
  mutable copier_items_refreshed : int;
  mutable batch_copier_rounds : int;
  mutable clear_specials_sent : int;
  mutable control1_completed : int;
  mutable control2_announcements : int;
  mutable control3_backups : int;
  mutable faillocks_set : int;  (** bit transitions clear->set, all sites *)
  mutable faillocks_cleared : int;  (** bit transitions set->clear, all sites *)
  coordinator_ms : Samples.t;  (** committed txns without copiers *)
  coordinator_copier_ms : Samples.t;  (** committed txns with >= 1 copier *)
  abort_ms : Samples.t;  (** aborted txns, reception to abort *)
  participant_ms : Samples.t;
  phase_copy_ms : Samples.t;
      (** coordinator time in the copier round, per txn that ran one *)
  phase_prepare_ms : Samples.t;
      (** 2PC phase 1: prepare sent to last vote received *)
  phase_commit_ms : Samples.t;
      (** 2PC phase 2: decide sent to last commit-ack (or send-failure) *)
  control1_recovering_ms : Samples.t;
  control1_operational_ms : Samples.t;
  control2_ms : Samples.t;
  copy_serve_ms : Samples.t;
  clear_special_ms : Samples.t;
}

val create : unit -> t

val counters : (string * (t -> int)) list
(** Every counter's name and getter, in report order. *)

val snapshot_counts : t -> (string * int) list
(** Counter names and values, for reports ({!counters} applied). *)

val latency_groups : t -> (string * float list) list
(** Every latency sample list with a stable label — per-transaction
    virtual latencies by outcome, by 2PC phase, and the control/service
    samples.  Groups may be empty; samples are most-recent-first. *)

val pp_abort_reason : Format.formatter -> abort_reason -> unit
