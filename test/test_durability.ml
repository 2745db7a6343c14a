(* Tests for the stable-storage extension: WAL mechanics, crash-wipe and
   replay at recovery, checkpoint compaction, durable session numbers. *)

module Wal = Raid_storage.Wal
module Database = Raid_storage.Database
module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Site = Raid_core.Site

(* Items fail-locked for [site] in its own table: its out-of-date copies. *)
let locked_items site =
  Raid_core.Faillock.locked_items_for (Site.faillocks site) ~site:(Site.id site)
module Invariant = Raid_core.Invariant

let write ~item ~value ~version = { Database.item; value; version }

(* {2 Wal unit tests} *)

let test_wal_initial () =
  let wal = Wal.create ~num_items:4 () in
  Alcotest.(check int) "empty log" 0 (Wal.log_length wal);
  Alcotest.(check int) "session 1" 1 (Wal.session wal);
  let db = Database.create ~num_items:4 in
  Database.apply db (write ~item:0 ~value:9 ~version:9);
  Alcotest.(check int) "replay of empty store" 0 (Wal.replay_into wal db);
  (* Replay resets to the initial checkpoint. *)
  Alcotest.(check (option (pair int int))) "reset to initial" (Some (0, 0)) (Database.read db 0)

let test_wal_replay () =
  let wal = Wal.create ~num_items:4 () in
  Wal.append wal ~txn:1 (write ~item:2 ~value:5 ~version:1);
  Wal.append wal ~txn:2 (write ~item:2 ~value:7 ~version:2);
  Wal.append wal ~txn:3 (write ~item:0 ~value:1 ~version:3);
  let db = Database.create ~num_items:4 in
  Alcotest.(check int) "three replayed" 3 (Wal.replay_into wal db);
  Alcotest.(check (option (pair int int))) "last write wins" (Some (7, 2)) (Database.read db 2);
  Alcotest.(check (option (pair int int))) "other item" (Some (1, 3)) (Database.read db 0)

let test_wal_checkpoint_truncates () =
  let wal = Wal.create ~checkpoint_interval:3 ~num_items:2 () in
  let db = Database.create ~num_items:2 in
  let apply_and_log txn item =
    let w = write ~item ~value:txn ~version:txn in
    Database.apply db w;
    Wal.append wal ~txn w;
    ignore (Wal.maybe_checkpoint wal db)
  in
  apply_and_log 1 0;
  apply_and_log 2 1;
  Alcotest.(check int) "no checkpoint yet" 0 (Wal.checkpoints_taken wal);
  apply_and_log 3 0;
  Alcotest.(check int) "checkpointed" 1 (Wal.checkpoints_taken wal);
  Alcotest.(check int) "log truncated" 0 (Wal.log_length wal);
  (* Replay from checkpoint only still reproduces the state. *)
  let fresh = Database.create ~num_items:2 in
  ignore (Wal.replay_into wal fresh);
  Alcotest.(check bool) "checkpoint state equals db" true (Database.equal fresh db)

let test_wal_session_monotone () =
  let wal = Wal.create ~num_items:1 () in
  Wal.record_session wal 2;
  Alcotest.(check int) "recorded" 2 (Wal.session wal);
  Alcotest.check_raises "no regression"
    (Invalid_argument "Wal.record_session: session numbers must increase") (fun () ->
      Wal.record_session wal 2)

let test_wal_validation () =
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Wal.create: non-positive checkpoint interval") (fun () ->
      ignore (Wal.create ~checkpoint_interval:0 ~num_items:1 ()));
  let wal = Wal.create ~num_items:2 () in
  let db = Database.create ~num_items:3 in
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Wal.replay_into: database shape mismatch")
    (fun () -> ignore (Wal.replay_into wal db))

(* {2 Site-level durability} *)

let durable_config ?(checkpoint_interval = 5) () =
  Config.make ~cost:Cost_model.free
    ~durability:(Config.Durable_wal { checkpoint_interval })
    ~num_sites:3 ~num_items:8 ()

let test_crash_wipes_then_replay_restores () =
  let cluster = Cluster.create (durable_config ()) in
  List.iter
    (fun item ->
      let id = Cluster.next_txn_id cluster in
      ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write item ])))
    [ 0; 3; 5; 3 ];
  let before = Database.snapshot (Site.database (Cluster.site cluster 1)) in
  Cluster.fail_site cluster 1;
  (* The crash wiped the volatile database for real. *)
  Alcotest.(check (option (pair int int))) "wiped" (Some (0, 0))
    (Database.read (Site.database (Cluster.site cluster 1)) 3);
  (match Cluster.recover_site cluster 1 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "blocked");
  let after = Database.snapshot (Site.database (Cluster.site cluster 1)) in
  Alcotest.(check (array (option (pair int int)))) "replay restored everything" before after;
  (match Invariant.all cluster with Ok () -> () | Error m -> Alcotest.fail m)

let test_replay_then_copiers_catch_up () =
  (* Updates committed while the site was down are NOT in its log; they
     must come back through fail-locks and copiers, not replay. *)
  let cluster = Cluster.create (durable_config ()) in
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 2 ]));
  Cluster.fail_site cluster 1;
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 2 ]));
  ignore (Cluster.recover_site cluster 1);
  (* Replay restored the pre-crash version (1), and the fail-lock marks
     the missed version (2). *)
  Alcotest.(check (option (pair int int))) "pre-crash version" (Some (1, 1))
    (Database.read (Site.database (Cluster.site cluster 1)) 2);
  Alcotest.(check (list int)) "fail-locked" [ 2 ] (locked_items (Cluster.site cluster 1));
  let id = Cluster.next_txn_id cluster in
  let outcome = Cluster.submit cluster ~coordinator:1 (Txn.make ~id [ Txn.Read 2 ]) in
  Alcotest.(check (list (triple int int int))) "copier caught up" [ (2, 2, 2) ]
    outcome.Raid_core.Metrics.reads;
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster)

let test_durable_session_numbers () =
  let cluster = Cluster.create (durable_config ()) in
  Cluster.fail_site cluster 2;
  ignore (Cluster.recover_site cluster 2);
  Cluster.fail_site cluster 2;
  ignore (Cluster.recover_site cluster 2);
  Alcotest.(check int) "session 3 after two crashes" 3
    (Site.session_number (Cluster.site cluster 2))

(* {2 Checkpoint vs in-flight 2PC (the Wal.checkpoint hazard)}

   Prepare and decision records live in side tables outside the redo log,
   so a checkpoint taken while a prepare is buffered must neither drop
   the in-doubt record nor let replay materialize the undecided write. *)

let test_checkpoint_preserves_prepares () =
  let wal = Wal.create ~checkpoint_interval:2 ~num_items:4 () in
  let db = Database.create ~num_items:4 in
  (* A participant votes yes: the prepare is durably buffered. *)
  Wal.log_prepare wal ~txn:9 ~coordinator:2 [ write ~item:3 ~value:9 ~version:9 ];
  (* Two committed writes reach the interval and trigger compaction. *)
  List.iter
    (fun (txn, item) ->
      let w = write ~item ~value:txn ~version:txn in
      Database.apply db w;
      Wal.append wal ~txn w;
      ignore (Wal.maybe_checkpoint wal db))
    [ (1, 0); (2, 1) ];
  Alcotest.(check int) "log truncated" 0 (Wal.log_length wal);
  Alcotest.(check int) "checkpointed" 1 (Wal.checkpoints_taken wal);
  (* The in-doubt prepare survived the truncation... *)
  Alcotest.(check int) "prepare survives checkpoint" 1 (Wal.prepared_count wal);
  (match Wal.prepared wal with
  | [ { Wal.p_txn = 9; coordinator = 2; writes = [ w ] } ] ->
    Alcotest.(check int) "prepared write intact" 3 w.Database.item
  | _ -> Alcotest.fail "prepare record lost or mangled by the checkpoint");
  (* ...and replay never materializes the prepared-but-undecided write. *)
  let fresh = Database.create ~num_items:4 in
  ignore (Wal.replay_into wal fresh);
  Alcotest.(check (option (pair int int))) "undecided write not replayed" (Some (0, 0))
    (Database.read fresh 3);
  (* Decision records survive checkpoints the same way. *)
  Wal.log_decision wal ~txn:11;
  Wal.checkpoint wal db;
  Alcotest.(check bool) "decision survives checkpoint" true (Wal.decided_commit wal ~txn:11);
  Wal.forget_prepare wal ~txn:9;
  Alcotest.(check int) "forgotten once decided" 0 (Wal.prepared_count wal)

(* {2 The initial checkpoint image under partial replication}

   Wal.create's image must mirror the owner's real initial database: a
   full all-items image made the first post-crash replay resurrect
   phantom version-0 copies of items a partial site never stored. *)

let test_initial_image_respects_partial_shape () =
  let stored item = item mod 2 = 0 in
  let db = Database.create_partial ~num_items:4 ~stored in
  let wal = Wal.create ~initial:db ~num_items:4 () in
  let crashed = Database.create_partial ~num_items:4 ~stored in
  (* Pollute with a copy the site never stored, as the old full initial
     image effectively did; replay must drop it, not legitimize it. *)
  Database.materialize crashed { Database.item = 1; value = 5; version = 5 };
  ignore (Wal.replay_into wal crashed);
  Alcotest.(check (option (pair int int))) "stored item restored" (Some (0, 0))
    (Database.read crashed 0);
  Alcotest.(check (option (pair int int))) "unstored item absent after replay" None
    (Database.read crashed 1);
  Alcotest.check_raises "initial shape validated"
    (Invalid_argument "Wal.create: initial database shape mismatch") (fun () ->
      ignore (Wal.create ~initial:db ~num_items:5 ()))

(* {2 Replay idempotence (property)}

   A recovering site can be told to recover again before it finishes
   (duplicate Recover_command, a re-noticed failure): replaying the same
   store twice — even into a polluted database — must land in exactly
   the state of a single replay into a fresh one. *)

let replay_idempotent_prop =
  QCheck.Test.make ~name:"replay_into twice = once" ~count:100
    QCheck.(list (pair (int_bound 7) (int_bound 100)))
    (fun writes ->
      let num_items = 8 in
      let wal = Wal.create ~checkpoint_interval:4 ~num_items () in
      let db = Database.create ~num_items in
      List.iteri
        (fun i (item, value) ->
          let w = write ~item ~value ~version:(i + 1) in
          Database.apply db w;
          Wal.append wal ~txn:(i + 1) w;
          ignore (Wal.maybe_checkpoint wal db))
        writes;
      let once = Database.create ~num_items in
      ignore (Wal.replay_into wal once);
      let twice = Database.create ~num_items in
      Database.materialize twice { Database.item = 0; value = 999; version = 999 };
      ignore (Wal.replay_into wal twice);
      ignore (Wal.replay_into wal twice);
      Database.equal once twice)

let test_duplicate_recover_command () =
  (* Two Recover_command events delivered back to back: the second
     re-enters begin_recovery while the first recovery is still waiting
     for its donor.  Each pass replays the WAL and records the next
     session number; the monotonicity guard in Wal.record_session must
     never fire, and the site must come up exactly once. *)
  let module Engine = Raid_net.Engine in
  let module Message = Raid_core.Message in
  let cluster = Cluster.create (durable_config ()) in
  List.iter
    (fun item ->
      let id = Cluster.next_txn_id cluster in
      ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write item ])))
    [ 0; 1; 2 ];
  let before = Database.snapshot (Site.database (Cluster.site cluster 1)) in
  Cluster.fail_site cluster 1;
  let engine = Cluster.engine cluster in
  Engine.set_alive engine 1 true;
  Engine.inject engine ~dst:1 Message.Recover_command;
  Engine.inject engine ~dst:1 Message.Recover_command;
  Cluster.run_to_quiescence cluster;
  Alcotest.(check bool) "came up, not stuck waiting" false
    (Site.is_waiting (Cluster.site cluster 1));
  (* Both passes burned a session number (1 -> 2 -> 3). *)
  Alcotest.(check int) "both sessions recorded" 3 (Site.session_number (Cluster.site cluster 1));
  let after = Database.snapshot (Site.database (Cluster.site cluster 1)) in
  Alcotest.(check (array (option (pair int int)))) "replay still exact" before after;
  (match Invariant.all cluster with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster)

let test_checkpoints_bound_replay () =
  let cluster = Cluster.create (durable_config ~checkpoint_interval:4 ()) in
  for _ = 1 to 30 do
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write (id mod 8) ]))
  done;
  Cluster.fail_site cluster 1;
  ignore (Cluster.recover_site cluster 1);
  Alcotest.(check bool) "consistent after checkpointed replay" true
    (Cluster.fully_consistent cluster)

let test_backup_copy_is_durable () =
  (* item 0 held by sites {0,1}, item 1 by {1,2} (two consecutive
     holders from [item mod 3]) *)
  let placement =
    Raid_core.Placement.spec ~sharding:Raid_core.Placement.Modular ~factor:2 ()
  in
  let config =
    Config.make ~cost:Cost_model.free ~spawn_backups:true
      ~replication:(Config.Partial placement)
      ~durability:(Config.Durable_wal { checkpoint_interval = 100 })
      ~num_sites:3 ~num_items:2 ()
  in
  let cluster = Cluster.create config in
  (* Item 1 is held by sites 1 and 2; fail the shared holder 1 so a
     write leaves one holder and spawns a backup on site 0. *)
  Cluster.fail_site cluster 1;
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Write 1 ]));
  Alcotest.(check bool) "backup at site 0" true (Site.stores (Cluster.site cluster 0) ~item:1);
  (* Crash the backup holder: the backup must survive through its log. *)
  Cluster.fail_site cluster 0;
  ignore (Cluster.recover_site cluster 0);
  Alcotest.(check (option (pair int int))) "backup replayed" (Some (id, id))
    (Database.read (Site.database (Cluster.site cluster 0)) 1)

let test_mid_protocol_crash_with_wal () =
  (* A participant dies between its phase-1 ack and the commit message,
     with durability on: its volatile database is wiped, the write it
     never received is fail-locked on its behalf, and recovery = replay
     (its own history) + copier (the missed write). *)
  let module Engine = Raid_net.Engine in
  let module Message = Raid_core.Message in
  let config =
    Config.make ~cost:Cost_model.free
      ~durability:(Config.Durable_wal { checkpoint_interval = 4 })
      ~num_sites:3 ~num_items:8 ()
  in
  let cluster =
    Cluster.of_spec (Cluster.Spec.make ~trace:true config)
  in
  (* Seed history so the crashed site has something to replay. *)
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 7 ]));
  let engine = Cluster.engine cluster in
  let id = Cluster.next_txn_id cluster in
  Engine.inject engine ~dst:0 (Message.Begin_txn (Txn.make ~id [ Txn.Write 2 ]));
  let acks () =
    List.length
      (List.filter
         (fun e ->
           e.Engine.trace_outcome = Engine.Delivered
           && (match e.Engine.trace_payload with
              | Message.Prepare_ack { txn } -> txn = id && e.Engine.trace_dst = 0
              | _ -> false))
         (Engine.trace engine))
  in
  while acks () < 2 do
    if not (Engine.step engine) then Alcotest.fail "quiescent too early"
  done;
  Engine.set_alive engine 1 false;
  Site.on_crash (Cluster.site cluster 1);
  Engine.run engine;
  (* The commit completed without site 1 and fail-locked the write. *)
  Alcotest.(check (list int)) "missed write fail-locked" [ 2 ] (Cluster.faillocks_for cluster 1);
  (match Cluster.recover_site cluster 1 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "blocked");
  (* Replay restored the pre-crash write; the missed one arrives by copier. *)
  Alcotest.(check (option (pair int int))) "replayed history" (Some (1, 1))
    (Database.read (Site.database (Cluster.site cluster 1)) 7);
  let id = Cluster.next_txn_id cluster in
  let outcome = Cluster.submit cluster ~coordinator:1 (Txn.make ~id [ Txn.Read 2 ]) in
  Alcotest.(check bool) "copier caught it up" true
    (outcome.Raid_core.Metrics.copier_requests = 1 && outcome.Raid_core.Metrics.committed);
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster);
  match Invariant.all cluster with Ok () -> () | Error m -> Alcotest.fail m

(* Drive txn [id] (a write of [item] coordinated by site 0) until site
   1's yes-vote has reached the coordinator, then crash site 1: its
   prepare is on stable storage and the Commit is not yet delivered. *)
let vote_then_crash cluster ~id ~item =
  let module Engine = Raid_net.Engine in
  let module Message = Raid_core.Message in
  let engine = Cluster.engine cluster in
  Engine.inject engine ~dst:0 (Message.Begin_txn (Txn.make ~id [ Txn.Write item ]));
  let voted e =
    e.Engine.trace_outcome = Engine.Delivered
    && e.Engine.trace_src = 1
    && match e.Engine.trace_payload with Message.Prepare_ack { txn } -> txn = id | _ -> false
  in
  while not (List.exists voted (Engine.trace engine)) do
    if not (Engine.step engine) then Alcotest.fail "quiescent too early"
  done;
  Engine.set_alive engine 1 false;
  Site.on_crash (Cluster.site cluster 1)

(* The in-doubt probe's fan-out.  Participant 1 votes and crashes with
   its prepare on stable storage; coordinator 0 commits without it, then
   crashes too.  When site 1 recovers, its status request to 0 bounces,
   so it probes every other site.  Site 2 applied the commit and its
   commit record says so: site 1 must apply the write, not presume an
   abort. *)
let test_probe_fan_out_finds_commit () =
  let module Engine = Raid_net.Engine in
  let module Message = Raid_core.Message in
  let config =
    Config.make ~durability:(Config.Durable_wal { checkpoint_interval = 5 }) ~num_sites:3
      ~num_items:8 ()
  in
  let cluster = Cluster.of_spec (Cluster.Spec.make ~trace:true config) in
  let engine = Cluster.engine cluster in
  let id = Cluster.next_txn_id cluster in
  vote_then_crash cluster ~id ~item:2;
  Cluster.run_to_quiescence cluster;
  Alcotest.(check bool) "site 2 applied the commit" true
    (Site.applied_commit (Cluster.site cluster 2) ~txn:id);
  Cluster.fail_site cluster 0;
  (match Cluster.recover_site cluster 1 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "blocked");
  let probe dst outcome =
    List.exists
      (fun e ->
        e.Engine.trace_src = 1 && e.Engine.trace_dst = dst && e.Engine.trace_outcome = outcome
        && e.Engine.trace_payload = Message.Txn_status_request { txn = id })
      (Engine.trace engine)
  in
  Alcotest.(check bool) "probe to the coordinator bounced" true (probe 0 Engine.Undeliverable);
  Alcotest.(check bool) "probe fanned out to site 2" true (probe 2 Engine.Delivered);
  Alcotest.(check int) "resolved" 0 (Site.in_doubt (Cluster.site cluster 1));
  Alcotest.(check (option (pair int int))) "decided write applied" (Some (id, id))
    (Database.read (Site.database (Cluster.site cluster 1)) 2);
  Alcotest.(check bool) "site 1 records the commit" true
    (Site.applied_commit (Cluster.site cluster 1) ~txn:id)

let test_participant_time_samples () =
  (* A participant samples its prepare-to-commit time once per prepare it
     received and then saw committed.  A prepare reloaded from the WAL at
     recovery has no arrival time in this incarnation, so committing it
     records no sample — whether the verdict comes from in-doubt
     resolution or from the Commit sent to the previous incarnation. *)
  let module Engine = Raid_net.Engine in
  let module Message = Raid_core.Message in
  let config =
    Config.make ~durability:(Config.Durable_wal { checkpoint_interval = 5 }) ~num_sites:3
      ~num_items:8 ()
  in
  let cluster = Cluster.of_spec (Cluster.Spec.make ~trace:true config) in
  let engine = Cluster.engine cluster in
  let samples () =
    List.length
      (Raid_core.Metrics.Samples.to_list (Cluster.metrics cluster).Raid_core.Metrics.participant_ms)
  in
  let commit_to_1_delivered id =
    List.exists
      (fun e ->
        e.Engine.trace_outcome = Engine.Delivered && e.Engine.trace_dst = 1
        && e.Engine.trace_payload = Message.Commit { txn = id })
      (Engine.trace engine)
  in
  let recovered () =
    match Cluster.recover_site cluster 1 with
    | `Recovered -> ()
    | `Blocked -> Alcotest.fail "recovery blocked"
  in
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 7 ]));
  Alcotest.(check int) "one sample per participant" 2 (samples ());
  (* In-doubt resolution: site 1 stays down until the commit completes
     without it, then recovers and asks the coordinator. *)
  let id = Cluster.next_txn_id cluster in
  vote_then_crash cluster ~id ~item:2;
  Cluster.run_to_quiescence cluster;
  Alcotest.(check int) "only the surviving participant sampled" 3 (samples ());
  Alcotest.(check int) "prepare on stable storage" 1 (Site.in_doubt (Cluster.site cluster 1));
  recovered ();
  Alcotest.(check bool) "commit never reached site 1" false (commit_to_1_delivered id);
  Alcotest.(check int) "resolved" 0 (Site.in_doubt (Cluster.site cluster 1));
  Alcotest.(check (option (pair int int))) "decided write applied" (Some (id, id))
    (Database.read (Site.database (Cluster.site cluster 1)) 2);
  Alcotest.(check int) "resolution records no sample" 3 (samples ());
  (* The Commit of the previous incarnation: site 1 restarts within one
     message latency, so the Commit reaches the reloaded prepare. *)
  let id = Cluster.next_txn_id cluster in
  vote_then_crash cluster ~id ~item:3;
  recovered ();
  Alcotest.(check bool) "commit reached the reloaded prepare" true (commit_to_1_delivered id);
  Alcotest.(check int) "resolved" 0 (Site.in_doubt (Cluster.site cluster 1));
  Alcotest.(check (option (pair int int))) "committed write applied" (Some (id, id))
    (Database.read (Site.database (Cluster.site cluster 1)) 3);
  Alcotest.(check int) "reloaded commit records no sample" 4 (samples ());
  (* Only the Commit that bounced off site 1 left a fail-lock for it (the
     resolved write is current; a copier read clears the bit). *)
  Alcotest.(check (list int)) "fail-locks for site 1" [ 2 ] (Cluster.faillocks_for cluster 1);
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:1 (Txn.make ~id [ Txn.Read 2 ]));
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster);
  match Invariant.all cluster with Ok () -> () | Error m -> Alcotest.fail m

(* {2 Checkpoint images and restore (differential property)}

   The reference is the image format the WAL kept before images moved
   into [Database]: one [(value, version) option] per item, replayed item
   by item.  Every item's [read] must agree with it after every
   operation, on both backends, and every image must also restore into
   the other backends — among them the fresh dense database that
   [Cluster.detect_knowledge_loss] replays a dead partial site's log
   into. *)

type image_op = Apply | Materialize | Checkpoint | Wipe | Replay

let image_ops = [| Apply; Materialize; Checkpoint; Wipe; Replay |]

let image_restore_prop =
  let num_items = 12 in
  let all_items = List.init num_items Fun.id in
  QCheck.Test.make ~name:"image and restore match the per-item reference" ~count:300
    QCheck.(
      triple bool (int_bound 0xfff)
        (list (triple (int_bound (Array.length image_ops - 1)) (int_bound (num_items - 1)) small_nat)))
    (fun (dense, mask, ops) ->
      let stored item = mask land (1 lsl item) <> 0 in
      let initial () =
        Array.init num_items (fun item -> if dense || stored item then Some (0, 0) else None)
      in
      let db =
        if dense then Database.create ~num_items else Database.create_partial ~num_items ~stored
      in
      let wal = Wal.create ~checkpoint_interval:1000 ~initial:db ~num_items () in
      let model = ref (initial ()) and image = ref (initial ()) and log_rev = ref [] in
      let replayed () =
        let m = Array.copy !image in
        List.iter
          (fun { Database.item; value; version } -> m.(item) <- Some (value, version))
          (List.rev !log_rev);
        m
      in
      let agrees db expected =
        List.for_all (fun item -> Database.read db item = expected.(item)) all_items
      in
      (* Targets of every backend and base, each dirtied first so the
         restore has state to overwrite.  [stored] itself is the image's
         own base; a fresh closure over it, or another predicate, is not. *)
      let others () =
        List.map
          (fun db ->
            Database.materialize db (write ~item:(num_items - 1) ~value:999 ~version:999);
            db)
          [
            Database.create ~num_items;
            Database.create_partial ~num_items ~stored;
            Database.create_partial ~num_items ~stored:(fun item -> stored item);
            Database.create_partial ~num_items ~stored:(fun item -> item mod 3 = 0);
          ]
      in
      let version = ref 0 in
      let next_write item value =
        incr version;
        write ~item ~value ~version:!version
      in
      List.for_all
        (fun (op, item, value) ->
          let op = image_ops.(op) in
          (match op with
          | Apply ->
            let w = next_write item value in
            Database.apply db w;
            Wal.append wal ~txn:!version w;
            log_rev := w :: !log_rev;
            !model.(item) <- Some (value, !version)
          | Materialize ->
            Database.materialize db (next_write item value);
            !model.(item) <- Some (value, !version)
          | Checkpoint ->
            Wal.checkpoint wal db;
            image := Array.copy !model;
            log_rev := []
          | Wipe ->
            Database.wipe db;
            model := initial ()
          | Replay ->
            ignore (Wal.replay_into wal db);
            model := replayed ());
          agrees db !model
          &&
          match op with
          | Checkpoint | Replay ->
            List.for_all
              (fun other ->
                ignore (Wal.replay_into wal other);
                agrees other (replayed ()))
              (others ())
          | Apply | Materialize | Wipe -> true)
        ops)

let test_image_shape_checks () =
  let wal = Wal.create ~num_items:2 () in
  let db = Database.create ~num_items:3 in
  Alcotest.check_raises "checkpoint" (Invalid_argument "Wal.checkpoint: database shape mismatch")
    (fun () -> Wal.checkpoint wal db);
  Alcotest.check_raises "replay" (Invalid_argument "Wal.replay_into: database shape mismatch")
    (fun () -> ignore (Wal.replay_into wal db));
  Alcotest.check_raises "initial" (Invalid_argument "Wal.create: initial database shape mismatch")
    (fun () -> ignore (Wal.create ~initial:db ~num_items:2 ()));
  Alcotest.check_raises "restore" (Invalid_argument "Database.restore: shape mismatch")
    (fun () -> Database.restore db (Database.image (Database.create ~num_items:2)))

(* {2 Recovery footprint follows what a site holds}

   k=3 over 128 sites and 20,000 items: a site holds about 470 copies.
   After a crash and a WAL replay, its database and its WAL (checkpoint
   image plus log tail) must stay within a small constant of that, not
   keep a slot per item of the database. *)

let test_recovery_footprint () =
  let num_items = 20_000 and checkpoint_interval = 8 in
  let config =
    Config.make ~cost:Cost_model.free ~num_sites:128 ~num_items
      ~replication:(Config.Partial (Raid_core.Placement.spec ~factor:3 ()))
      ~durability:(Config.Durable_wal { checkpoint_interval })
      ()
  in
  let cluster = Cluster.create config in
  let write_items items =
    List.iter
      (fun item ->
        let id = Cluster.next_txn_id cluster in
        ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write item ])))
      items
  in
  let victim = 5 in
  let site = Cluster.site cluster victim in
  let held = List.filter (fun item -> Site.stores site ~item) (List.init num_items Fun.id) in
  (* Every fourth held item, for a log tail and several checkpoints at
     the victim, then 100 items spread over the database. *)
  write_items (List.filteri (fun i _ -> i mod 4 = 0) held);
  write_items (List.init 100 (fun i -> i * 197));
  let reads () = List.init num_items (Database.read (Site.database site)) in
  let before = reads () in
  Cluster.fail_site cluster victim;
  let missed = List.filteri (fun i _ -> i < 3) held in
  write_items missed;
  (match Cluster.recover_site cluster victim with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "blocked");
  let held = List.length held in
  let bound = (32 * held) + (16 * checkpoint_interval) + 1024 in
  let within what words =
    if words > bound then
      Alcotest.failf "%s: %d words for %d held items (bound %d)" what words held bound
  in
  within "database" (Obj.reachable_words (Obj.repr (Site.database site)));
  (match Site.wal site with
  | Some wal -> within "WAL" (Obj.reachable_words (Obj.repr wal))
  | None -> Alcotest.fail "no WAL");
  (* Replay restored every item's pre-crash state; the writes missed
     while down are fail-locked for the copiers instead. *)
  Alcotest.(check (list int)) "missed writes fail-locked" missed (locked_items site);
  List.iteri
    (fun item (before, after) ->
      if before <> after then Alcotest.failf "item %d not restored by replay" item)
    (List.combine before (reads ()))

let suite =
  [
    Alcotest.test_case "wal initial state" `Quick test_wal_initial;
    Alcotest.test_case "participant time per fresh prepare" `Quick test_participant_time_samples;
    Alcotest.test_case "probe fan-out finds the commit" `Quick test_probe_fan_out_finds_commit;
    Alcotest.test_case "mid-protocol crash with WAL" `Quick test_mid_protocol_crash_with_wal;
    Alcotest.test_case "wal replay order" `Quick test_wal_replay;
    Alcotest.test_case "wal checkpoint truncates" `Quick test_wal_checkpoint_truncates;
    Alcotest.test_case "wal session monotone" `Quick test_wal_session_monotone;
    Alcotest.test_case "wal validation" `Quick test_wal_validation;
    Alcotest.test_case "crash wipes, replay restores" `Quick test_crash_wipes_then_replay_restores;
    Alcotest.test_case "missed updates come via copiers" `Quick test_replay_then_copiers_catch_up;
    Alcotest.test_case "session numbers durable" `Quick test_durable_session_numbers;
    Alcotest.test_case "checkpoints bound replay" `Quick test_checkpoints_bound_replay;
    Alcotest.test_case "control-3 backups durable" `Quick test_backup_copy_is_durable;
    Alcotest.test_case "checkpoint preserves in-doubt records" `Quick
      test_checkpoint_preserves_prepares;
    Alcotest.test_case "initial image respects partial shape" `Quick
      test_initial_image_respects_partial_shape;
    QCheck_alcotest.to_alcotest replay_idempotent_prop;
    Alcotest.test_case "duplicate recover command is safe" `Quick test_duplicate_recover_command;
    QCheck_alcotest.to_alcotest image_restore_prop;
    Alcotest.test_case "image shape checks" `Quick test_image_shape_checks;
    Alcotest.test_case "recovery footprint follows holdings" `Quick test_recovery_footprint;
  ]
