(* Tests for the paper's §3.2 proposed extensions: two-step recovery
   (batch copiers), control transaction type 3 (backup spawning) under
   partial replication, and the §2.2.3 embed-clears optimisation. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Metrics = Raid_core.Metrics
module Site = Raid_core.Site
module Invariant = Raid_core.Invariant
module Database = Raid_storage.Database

let check_invariants cluster =
  match Invariant.all cluster with
  | Ok () -> ()
  | Error message -> Alcotest.failf "invariant violated: %s" message

let lock_items cluster ~down ~coordinator items =
  Cluster.fail_site cluster down;
  List.iter
    (fun item ->
      let id = Cluster.next_txn_id cluster in
      ignore (Cluster.submit cluster ~coordinator (Txn.make ~id [ Txn.Write item ])))
    items

let test_immediate_batch_recovers_fully () =
  let config =
    Config.make ~cost:Cost_model.free
      ~recovery:(Config.Two_step { threshold = 1.0; batch_size = 4 })
      ~num_sites:2 ~num_items:10 ()
  in
  let cluster = Cluster.create config in
  lock_items cluster ~down:0 ~coordinator:1 [ 0; 2; 4; 6; 8 ];
  Alcotest.(check int) "five locks" 5 (Cluster.faillock_count_for cluster 0);
  (match Cluster.recover_site cluster 0 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "blocked");
  (* Batch copiers ran during the recovery quiescence: no transactions
     were needed. *)
  Alcotest.(check int) "no locks remain" 0 (Cluster.faillock_count_for cluster 0);
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster);
  let metrics = Cluster.metrics cluster in
  Alcotest.(check bool)
    (Printf.sprintf "batch rounds ran (%d)" metrics.Metrics.batch_copier_rounds)
    true
    (metrics.Metrics.batch_copier_rounds >= 2);
  check_invariants cluster

let test_threshold_defers_batching () =
  (* Threshold 0.2 of 10 items = 2: with 5 locked items batching must NOT
     start at recovery; it starts once traffic brings locks to <= 2. *)
  let config =
    Config.make ~cost:Cost_model.free
      ~recovery:(Config.Two_step { threshold = 0.2; batch_size = 4 })
      ~num_sites:2 ~num_items:10 ()
  in
  let cluster = Cluster.create config in
  lock_items cluster ~down:0 ~coordinator:1 [ 0; 2; 4; 6; 8 ];
  ignore (Cluster.recover_site cluster 0);
  Alcotest.(check int) "still locked after recovery" 5 (Cluster.faillock_count_for cluster 0);
  (* Writes through normal traffic clear three locks; at <= 2 the batch
     kicks in on the post-commit hook and clears the rest. *)
  List.iter
    (fun item ->
      let id = Cluster.next_txn_id cluster in
      ignore (Cluster.submit cluster ~coordinator:1 (Txn.make ~id [ Txn.Write item ])))
    [ 0; 2; 4 ];
  Alcotest.(check int) "batch finished the job" 0 (Cluster.faillock_count_for cluster 0);
  Alcotest.(check bool) "rounds > 0" true
    ((Cluster.metrics cluster).Metrics.batch_copier_rounds > 0);
  check_invariants cluster

let test_batch_survives_source_failure () =
  let config =
    Config.make ~cost:Cost_model.free
      ~recovery:(Config.Two_step { threshold = 1.0; batch_size = 2 })
      ~num_sites:3 ~num_items:6 ()
  in
  let cluster = Cluster.create config in
  lock_items cluster ~down:0 ~coordinator:1 [ 1; 3; 5 ];
  ignore (Cluster.recover_site cluster 0);
  Alcotest.(check int) "recovered via batches" 0 (Cluster.faillock_count_for cluster 0);
  check_invariants cluster

(* two copies per item, on consecutive sites from [item mod num_sites] *)
let two_copy_placement ~num_sites:_ ~num_items:_ =
  Raid_core.Placement.spec ~sharding:Raid_core.Placement.Modular ~factor:2 ()

let test_partial_replication_reads () =
  let num_sites = 3 and num_items = 6 in
  let config =
    Config.make ~cost:Cost_model.free
      ~replication:(Config.Partial (two_copy_placement ~num_sites ~num_items))
      ~num_sites ~num_items ()
  in
  let cluster = Cluster.create config in
  (* Item 0 is stored at sites 0 and 1; site 2 must fetch it remotely. *)
  Alcotest.(check bool) "site 2 lacks item 0" false (Site.stores (Cluster.site cluster 2) ~item:0);
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 0 ]));
  let id = Cluster.next_txn_id cluster in
  let outcome = Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Read 0 ]) in
  Alcotest.(check bool) "committed" true outcome.Metrics.committed;
  Alcotest.(check (list (triple int int int))) "remote read sees the write" [ (0, 1, 1) ]
    outcome.Metrics.reads;
  (* The fetch-only read did not materialise a copy. *)
  Alcotest.(check bool) "still not stored" false (Site.stores (Cluster.site cluster 2) ~item:0);
  check_invariants cluster

let test_partial_write_unavailable () =
  let num_sites = 3 and num_items = 6 in
  let config =
    Config.make ~cost:Cost_model.free
      ~replication:(Config.Partial (two_copy_placement ~num_sites ~num_items))
      ~num_sites ~num_items ()
  in
  let cluster = Cluster.create config in
  (* Item 0 lives on sites 0 and 1; fail both. *)
  Cluster.fail_site cluster 0;
  Cluster.fail_site cluster 1;
  let id = Cluster.next_txn_id cluster in
  let outcome = Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Write 0 ]) in
  Alcotest.(check bool) "aborted" false outcome.Metrics.committed;
  (match outcome.Metrics.abort_reason with
  | Some Metrics.Write_unavailable -> ()
  | _ -> Alcotest.fail "expected Write_unavailable")

let test_control3_spawns_backup () =
  let num_sites = 3 and num_items = 6 in
  let config =
    Config.make ~cost:Cost_model.free ~spawn_backups:true
      ~replication:(Config.Partial (two_copy_placement ~num_sites ~num_items))
      ~num_sites ~num_items ()
  in
  let cluster = Cluster.create config in
  (* Item 0 lives on {0,1}; fail 1, then write item 0: a single
     operational holder remains, so a backup must be spawned on site 2. *)
  Cluster.fail_site cluster 1;
  let id = Cluster.next_txn_id cluster in
  let outcome = Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 0 ]) in
  Alcotest.(check bool) "committed" true outcome.Metrics.committed;
  Alcotest.(check int) "one backup" 1 (Cluster.metrics cluster).Metrics.control3_backups;
  Alcotest.(check bool) "site 2 now stores item 0" true
    (Site.stores (Cluster.site cluster 2) ~item:0);
  Alcotest.(check (option (pair int int))) "backup copy current" (Some (id, id))
    (Database.read (Site.database (Cluster.site cluster 2)) 0);
  (* Now failing the original holder keeps the item readable. *)
  Cluster.fail_site cluster 0;
  let id = Cluster.next_txn_id cluster in
  let outcome = Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Read 0 ]) in
  Alcotest.(check bool) "readable from backup" true outcome.Metrics.committed

let test_backup_placement_survives_recovery () =
  let num_sites = 3 and num_items = 6 in
  let config =
    Config.make ~cost:Cost_model.free ~spawn_backups:true
      ~replication:(Config.Partial (two_copy_placement ~num_sites ~num_items))
      ~num_sites ~num_items ()
  in
  let cluster = Cluster.create config in
  Cluster.fail_site cluster 1;
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 0 ]));
  (* Site 1 was down during the spawn; after recovery its placement view
     must still record site 2's backup (shipped with control-1 state). *)
  ignore (Cluster.recover_site cluster 1);
  Alcotest.(check bool) "recovered view knows the backup" true
    (Site.believes_stored (Cluster.site cluster 1) ~site:2 ~item:0);
  check_invariants cluster

let test_embed_clears_equivalent_state () =
  (* The embed-clears optimisation must leave the same final fail-lock and
     database state as the special transactions it replaces. *)
  let run ~embed =
    let config =
      Config.make ~cost:Cost_model.free ~embed_clears:embed ~num_sites:3 ~num_items:8 ()
    in
    let cluster = Cluster.create config in
    lock_items cluster ~down:2 ~coordinator:0 [ 1; 5 ];
    ignore (Cluster.recover_site cluster 2);
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Read 1; Txn.Read 5 ]));
    check_invariants cluster;
    ( Cluster.total_faillocks cluster,
      (Cluster.metrics cluster).Metrics.clear_specials_sent,
      Cluster.fully_consistent cluster )
  in
  let locks_plain, specials_plain, consistent_plain = run ~embed:false in
  let locks_embed, specials_embed, consistent_embed = run ~embed:true in
  Alcotest.(check int) "no locks either way" locks_plain locks_embed;
  Alcotest.(check bool) "plain used specials" true (specials_plain > 0);
  Alcotest.(check int) "embedded sent none" 0 specials_embed;
  Alcotest.(check bool) "both consistent" true (consistent_plain && consistent_embed)

let test_embed_clears_on_abort () =
  (* If the transaction aborts after its copiers ran, the cleared bits
     must still propagate (piggy-backed on the abort messages). *)
  let config =
    Config.make ~cost:Cost_model.free ~embed_clears:true ~num_sites:3 ~num_items:8 ()
  in
  let cluster = Cluster.of_spec (Cluster.Spec.make ~detection:Cluster.On_timeout config) in
  lock_items cluster ~down:2 ~coordinator:0 [ 1 ];
  ignore (Cluster.recover_site cluster 2);
  (* Fail a participant without telling anyone, then coordinate at site 2
     a transaction that needs a copier: the copier succeeds (source site
     0), phase 1 discovers site 1's death, the txn aborts. *)
  Cluster.fail_site cluster 1;
  let id = Cluster.next_txn_id cluster in
  let outcome =
    Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Read 1; Txn.Write 3 ])
  in
  Alcotest.(check bool) "aborted" false outcome.Metrics.committed;
  (* Site 0 must have learned that site 2's copy of item 1 is fresh. *)
  Alcotest.(check bool) "clear propagated despite abort" false
    (Raid_core.Faillock.is_locked (Site.faillocks (Cluster.site cluster 0)) ~item:1 ~site:2);
  check_invariants cluster

let suite =
  [
    Alcotest.test_case "immediate batch recovers fully" `Quick test_immediate_batch_recovers_fully;
    Alcotest.test_case "threshold defers batching" `Quick test_threshold_defers_batching;
    Alcotest.test_case "batch survives source failure" `Quick test_batch_survives_source_failure;
    Alcotest.test_case "partial replication remote reads" `Quick test_partial_replication_reads;
    Alcotest.test_case "write with no holder aborts" `Quick test_partial_write_unavailable;
    Alcotest.test_case "control-3 spawns a backup" `Quick test_control3_spawns_backup;
    Alcotest.test_case "backup placement survives recovery" `Quick
      test_backup_placement_survives_recovery;
    Alcotest.test_case "embed-clears equivalent state" `Quick test_embed_clears_equivalent_state;
    Alcotest.test_case "embed-clears propagates on abort" `Quick test_embed_clears_on_abort;
  ]
