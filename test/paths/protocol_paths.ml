(* Prints the message timeline and metric counters of one short
   scenario per rare protocol path, for the golden
   test/golden/protocol_paths.txt.  Each scenario names the message it
   exists to exercise and exits non-zero if its trace lacks it, so the
   golden cannot silently stop covering the path. *)

module Engine = Raid_net.Engine
module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Message = Raid_core.Message
module Metrics = Raid_core.Metrics
module Placement = Raid_core.Placement
module Txn = Raid_core.Txn
module Timeline = Raid_sim.Timeline

let cluster ?(detection = Cluster.Immediate) config =
  Cluster.of_spec (Cluster.Spec.make ~detection ~trace:true config)

let submit c ~coordinator ops =
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator (Txn.make ~id ops))

(* Step the engine until [pred] holds for some trace entry. *)
let step_until c pred =
  let engine = Cluster.engine c in
  while not (List.exists pred (Engine.trace engine)) do
    if not (Engine.step engine) then failwith "quiescent before the awaited delivery"
  done

let delivered ~dst pred e =
  e.Engine.trace_outcome = Engine.Delivered && e.Engine.trace_dst = dst
  && pred e.Engine.trace_payload

(* Item [i] on sites {i mod n, i+1 mod n}. *)
let two_copies = Config.Partial (Placement.spec ~sharding:Placement.Modular ~factor:2 ())

(* A non-holder coordinator picks the lowest-id holder as copier source;
   that holder recovered stale, refuses, and the retry goes to the next
   holder. *)
let copy_unavailable_retry () =
  let c = cluster (Config.make ~replication:two_copies ~num_sites:3 ~num_items:3 ()) in
  Cluster.fail_site c 0;
  submit c ~coordinator:1 [ Txn.Write 0 ];
  ignore (Cluster.recover_site c 0);
  submit c ~coordinator:2 [ Txn.Read 0 ];
  c

(* A write that leaves one operational holder spawns a backup copy. *)
let backup_copy () =
  let c =
    cluster
      (Config.make ~replication:two_copies ~spawn_backups:true ~num_sites:3 ~num_items:3 ())
  in
  Cluster.fail_site c 1;
  submit c ~coordinator:0 [ Txn.Write 0 ];
  c

let departure_announce () =
  let c = cluster (Config.make ~num_sites:3 ~num_items:4 ()) in
  Cluster.terminate_site c 2;
  submit c ~coordinator:0 [ Txn.Write 1 ];
  ignore (Cluster.recover_site c 2);
  c

let durable = Config.Durable_wal { checkpoint_interval = 4 }

(* Participant 1 votes, then it and the coordinator crash.  Recovering,
   site 1 asks the dead coordinator about its in-doubt prepare; the
   bounce fans the probe out to every other site. *)
let status_probe_fanout () =
  let c =
    cluster ~detection:Cluster.On_timeout
      (Config.make ~durability:durable ~num_sites:4 ~num_items:4 ())
  in
  submit c ~coordinator:0 [ Txn.Write 3 ];
  let id = Cluster.next_txn_id c in
  Engine.inject (Cluster.engine c) ~dst:0 (Message.Begin_txn (Txn.make ~id [ Txn.Write 1 ]));
  step_until c
    (fun e ->
      e.Engine.trace_src = 1
      && delivered ~dst:0 (function Message.Prepare_ack { txn } -> txn = id | _ -> false) e);
  Cluster.crash_site_now c 1;
  Cluster.crash_site_now c 0;
  Cluster.run_to_quiescence c;
  ignore (Cluster.recover_site c 1);
  c

(* The designated donor is dead but the recoverer's stale vector
   believes it up: its want_state announce bounces and control-1 fails
   over to the next candidate. *)
let donor_failover () =
  let c = cluster ~detection:Cluster.On_timeout (Config.make ~num_sites:3 ~num_items:4 ()) in
  Cluster.fail_site c 2;
  Cluster.fail_site c 0;
  ignore (Cluster.recover_site c 2);
  c

(* A copier clears the coordinator's own fail-lock; phase 1 then finds a
   participant dead, and the abort carries the cleared items. *)
let abort_with_embedded_clears () =
  let c =
    cluster ~detection:Cluster.On_timeout
      (Config.make ~embed_clears:true ~num_sites:3 ~num_items:8 ())
  in
  Cluster.fail_site c 2;
  submit c ~coordinator:0 [ Txn.Write 1 ];
  submit c ~coordinator:0 [ Txn.Write 1 ];
  ignore (Cluster.recover_site c 2);
  Cluster.fail_site c 1;
  submit c ~coordinator:2 [ Txn.Read 1; Txn.Write 3 ];
  c

(* Recovery installs state and starts a batch copier round at the
   lowest-id source, which crashes before the request arrives: the
   round moves to the next source. *)
let batch_source_crash () =
  let c =
    cluster
      (Config.make
         ~recovery:(Config.Two_step { threshold = 1.0; batch_size = 2 })
         ~num_sites:3 ~num_items:6 ())
  in
  Cluster.fail_site c 0;
  submit c ~coordinator:1 [ Txn.Write 1 ];
  submit c ~coordinator:1 [ Txn.Write 3 ];
  let engine = Cluster.engine c in
  Engine.set_alive engine 0 true;
  Engine.inject engine ~dst:0 Message.Recover_command;
  step_until c (delivered ~dst:0 (function Message.Recovery_state _ -> true | _ -> false));
  Cluster.crash_site_now c 1;
  Cluster.run_to_quiescence c;
  c

(* Participant 1 votes and dies before the Commit arrives: the bounce
   makes the coordinator broadcast site 1's missed items as hints. *)
let commit_bounce_hint () =
  let c = cluster ~detection:Cluster.On_timeout (Config.make ~num_sites:3 ~num_items:4 ()) in
  let id = Cluster.next_txn_id c in
  Engine.inject (Cluster.engine c) ~dst:0 (Message.Begin_txn (Txn.make ~id [ Txn.Write 1 ]));
  step_until c
    (fun e ->
      e.Engine.trace_src = 1
      && delivered ~dst:0 (function Message.Prepare_ack { txn } -> txn = id | _ -> false) e);
  Cluster.crash_site_now c 1;
  Cluster.run_to_quiescence c;
  c

let undeliverable pred e =
  e.Engine.trace_outcome = Engine.Undeliverable && pred e.Engine.trace_payload

let any pred e = pred e.Engine.trace_payload

let scenarios =
  [
    ( "copy_unavailable retry",
      copy_unavailable_retry,
      "copy_unavailable",
      any (function Message.Copy_unavailable _ -> true | _ -> false) );
    ( "control-3 backup",
      backup_copy,
      "backup_copy",
      any (function Message.Backup_copy _ -> true | _ -> false) );
    ( "graceful departure",
      departure_announce,
      "departure_announce",
      any (function Message.Departure_announce _ -> true | _ -> false) );
    ( "status probe fan-out, coordinator dead",
      status_probe_fanout,
      "txn_status_request to a live non-coordinator",
      fun e ->
        e.Engine.trace_dst <> 0
        && delivered ~dst:e.Engine.trace_dst
             (function Message.Txn_status_request _ -> true | _ -> false)
             e );
    ( "control-1 donor failover",
      donor_failover,
      "undeliverable recovery_announce asking for state",
      undeliverable (function
        | Message.Recovery_announce { want_state; _ } -> want_state
        | _ -> false) );
    ( "timeout abort with embedded clears",
      abort_with_embedded_clears,
      "abort carrying cleared items",
      any (function Message.Abort { cleared; _ } -> cleared <> [] | _ -> false) );
    ( "batch round source crash",
      batch_source_crash,
      "undeliverable batch copy_request",
      undeliverable (function Message.Copy_request { txn; _ } -> txn < 0 | _ -> false) );
    ( "faillock_hint after commit bounce",
      commit_bounce_hint,
      "faillock_hint",
      any (function Message.Faillock_hint _ -> true | _ -> false) );
  ]

let () =
  List.iter
    (fun (name, run, expect, pred) ->
      let c = run () in
      if not (List.exists pred (Timeline.entries c)) then begin
        Printf.eprintf "protocol_paths: scenario %S never sent %s\n" name expect;
        exit 1
      end;
      Printf.printf "== %s (expects %s) ==\n%s\n-- counters --\n" name expect
        (Timeline.render c);
      List.iter
        (fun (counter, value) -> Printf.printf "%s %d\n" counter value)
        (Metrics.snapshot_counts (Cluster.metrics c));
      print_newline ())
    scenarios
