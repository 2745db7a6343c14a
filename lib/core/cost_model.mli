(** Virtual-time processing costs.

    The paper measured event times on one processor's clock and stressed
    that "the average times are not intended to represent the absolute
    performance of the system but rather the performance of the system
    for a particular configuration" (§2.1) — comparisons between averages
    are what matter.  This module is the corresponding configuration: a
    set of named per-event processing costs that sites charge through
    {!Raid_net.Engine.work}.  [calibrated] reproduces the paper's
    configuration (its only published hardware constant is the 9 ms
    intersite communication; the remaining constants were fitted so the
    Experiment-1 tables land on the published averages); [free] zeroes all
    processing so tests can reason about pure message counts. *)

type t = {
  message_latency : Raid_net.Vtime.t;
      (** one intersite communication; the paper measured 9 ms *)
  txn_setup : Raid_net.Vtime.t;
      (** coordinator: receive a database transaction, plan its execution *)
  op_process : Raid_net.Vtime.t;
      (** execute one read or write operation against the local copy *)
  prepare_send : Raid_net.Vtime.t;
      (** coordinator: format one phase-1 copy-update message *)
  prepare_process : Raid_net.Vtime.t;
      (** participant: buffer a phase-1 copy update and acknowledge *)
  commit_apply_per_write : Raid_net.Vtime.t;
      (** commit one written copy into the local database *)
  faillock_update_per_write : Raid_net.Vtime.t;
      (** per written item: set/clear the per-site fail-lock bits during
          commitment (the cost Experiment 1 isolates) *)
  faillock_read_check : Raid_net.Vtime.t;
      (** per read operation: test whether the local copy is fail-locked *)
  ack_process : Raid_net.Vtime.t;
      (** coordinator: absorb one phase-1 or phase-2 acknowledgement *)
  copier_request_send : Raid_net.Vtime.t;
      (** recovering coordinator: build one copy request *)
  copier_serve_base : Raid_net.Vtime.t;
      (** source site: format a response with the specified copies (paper:
          25 ms including the send) *)
  copier_serve_per_item : Raid_net.Vtime.t;
  copier_install_per_item : Raid_net.Vtime.t;
      (** recovering site: write a refreshed copy and clear its fail-lock *)
  faillock_clear_send : Raid_net.Vtime.t;
      (** coordinator: issue the special transaction that clears fail-lock
          bits at one other site after a copier transaction *)
  faillock_clear_process : Raid_net.Vtime.t;
      (** receiver of that special transaction (paper: 20 ms with send) *)
  recovery_announce_send : Raid_net.Vtime.t;
      (** recovering site: format and send one control-1 announcement *)
  recovery_state_build_base : Raid_net.Vtime.t;
      (** operational site: start formatting session vector + fail-locks *)
  recovery_state_build_per_item : Raid_net.Vtime.t;
      (** ... per data item of fail-locks (the paper notes this cost grows
          with database size) *)
  recovery_install_base : Raid_net.Vtime.t;
      (** recovering site: install the received session vector *)
  recovery_install_per_item : Raid_net.Vtime.t;
      (** ... and fail-locks, per item *)
  failure_announce_process : Raid_net.Vtime.t;
      (** control-2: update a session vector on receiving a failure
          announcement (paper: 68 ms including the send) *)
  backup_spawn : Raid_net.Vtime.t;
      (** control-3 extension: create a backup copy on another site *)
  wal_append : Raid_net.Vtime.t;
      (** durability extension: log one redo record to stable storage
          (zero in [calibrated] — the paper factors data I/O out) *)
  wal_replay_per_entry : Raid_net.Vtime.t;
      (** durability extension: replay one redo record at recovery *)
}

val calibrated : t
(** Fitted to the paper's Experiment-1 configuration (50 items, 4 sites,
    max transaction size 10). *)

val free : t
(** All processing costs zero; [message_latency] still 9 ms. *)

val zero : t
(** Everything zero, including latency — for logic-only tests. *)
