type t = {
  message_latency : Raid_net.Vtime.t;
  txn_setup : Raid_net.Vtime.t;
  op_process : Raid_net.Vtime.t;
  prepare_send : Raid_net.Vtime.t;
  prepare_process : Raid_net.Vtime.t;
  commit_apply_per_write : Raid_net.Vtime.t;
  faillock_update_per_write : Raid_net.Vtime.t;
  faillock_read_check : Raid_net.Vtime.t;
  ack_process : Raid_net.Vtime.t;
  copier_request_send : Raid_net.Vtime.t;
  copier_serve_base : Raid_net.Vtime.t;
  copier_serve_per_item : Raid_net.Vtime.t;
  copier_install_per_item : Raid_net.Vtime.t;
  faillock_clear_send : Raid_net.Vtime.t;
  faillock_clear_process : Raid_net.Vtime.t;
  recovery_announce_send : Raid_net.Vtime.t;
  recovery_state_build_base : Raid_net.Vtime.t;
  recovery_state_build_per_item : Raid_net.Vtime.t;
  recovery_install_base : Raid_net.Vtime.t;
  recovery_install_per_item : Raid_net.Vtime.t;
  failure_announce_process : Raid_net.Vtime.t;
  backup_spawn : Raid_net.Vtime.t;
  wal_append : Raid_net.Vtime.t;
  wal_replay_per_entry : Raid_net.Vtime.t;
}

let ms = Raid_net.Vtime.of_ms_f

(* Fitted so that with the paper's Experiment-1 configuration (4 sites, 50
   items, maximum transaction size 10, hence 5.5 operations and 2.75
   writes per transaction on average) the measured averages land on the
   published table: coordinating 176 -> 186 ms, participating 90 -> 97 ms,
   control-1 190/50 ms, control-2 68 ms, copier transaction 270 ms with
   copy service 25 ms and fail-lock clearing 20 ms per site. *)
let calibrated =
  {
    message_latency = ms 9.0;
    txn_setup = ms 17.5;
    op_process = ms 8.0;
    prepare_send = ms 3.0;
    prepare_process = ms 35.5;
    commit_apply_per_write = ms 12.0;
    faillock_update_per_write = ms 2.5;
    faillock_read_check = ms 1.1;
    ack_process = ms 1.0;
    copier_request_send = ms 18.0;
    copier_serve_base = ms 12.0;
    copier_serve_per_item = ms 4.0;
    copier_install_per_item = ms 10.5;
    faillock_clear_send = ms 8.5;
    faillock_clear_process = ms 11.0;
    recovery_announce_send = ms 12.0;
    recovery_state_build_base = ms 5.0;
    recovery_state_build_per_item = ms 0.72;
    recovery_install_base = ms 15.0;
    recovery_install_per_item = ms 1.6;
    failure_announce_process = ms 59.0;
    backup_spawn = ms 12.0;
    (* The paper factors data I/O out (§1.2 assumption 3): stable-storage
       costs are zero in the calibrated model and only charged when the
       durability extension sets them explicitly. *)
    wal_append = 0;
    wal_replay_per_entry = 0;
  }

let zero =
  {
    message_latency = 0;
    txn_setup = 0;
    op_process = 0;
    prepare_send = 0;
    prepare_process = 0;
    commit_apply_per_write = 0;
    faillock_update_per_write = 0;
    faillock_read_check = 0;
    ack_process = 0;
    copier_request_send = 0;
    copier_serve_base = 0;
    copier_serve_per_item = 0;
    copier_install_per_item = 0;
    faillock_clear_send = 0;
    faillock_clear_process = 0;
    recovery_announce_send = 0;
    recovery_state_build_base = 0;
    recovery_state_build_per_item = 0;
    recovery_install_base = 0;
    recovery_install_per_item = 0;
    failure_announce_process = 0;
    backup_spawn = 0;
    wal_append = 0;
    wal_replay_per_entry = 0;
  }

let free = { zero with message_latency = ms 9.0 }
