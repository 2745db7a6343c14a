(* Tests for the concurrency-control extension: the conservative strict
   2PL lock manager, and correctness of concurrent batches (consistency,
   no stale reads, per-item version order). *)

module Lock_manager = Raid_core.Lock_manager
module Txn = Raid_core.Txn
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Cluster = Raid_core.Cluster
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Invariant = Raid_core.Invariant
module Concurrent = Raid_sim.Concurrent

(* {2 Lock manager} *)

let test_shared_compatible () =
  let t = Lock_manager.create ~num_items:4 in
  Alcotest.(check bool) "t1 shared" true
    (Lock_manager.try_acquire t ~txn:1 [ (0, Lock_manager.Shared) ]);
  Alcotest.(check bool) "t2 shared too" true
    (Lock_manager.try_acquire t ~txn:2 [ (0, Lock_manager.Shared) ]);
  Alcotest.(check int) "two holders" 2 (List.length (Lock_manager.holders t 0))

let test_exclusive_blocks () =
  let t = Lock_manager.create ~num_items:4 in
  ignore (Lock_manager.try_acquire t ~txn:1 [ (0, Lock_manager.Exclusive) ]);
  Alcotest.(check bool) "shared blocked" false
    (Lock_manager.try_acquire t ~txn:2 [ (0, Lock_manager.Shared) ]);
  Alcotest.(check bool) "exclusive blocked" false
    (Lock_manager.try_acquire t ~txn:3 [ (0, Lock_manager.Exclusive) ]);
  Lock_manager.release_all t ~txn:1;
  Alcotest.(check bool) "free after release" true
    (Lock_manager.try_acquire t ~txn:2 [ (0, Lock_manager.Exclusive) ])

let test_all_or_nothing () =
  let t = Lock_manager.create ~num_items:4 in
  ignore (Lock_manager.try_acquire t ~txn:1 [ (2, Lock_manager.Exclusive) ]);
  (* txn 2 wants items 1 and 2; 2 is taken, so it must get NEITHER. *)
  Alcotest.(check bool) "atomic failure" false
    (Lock_manager.try_acquire t ~txn:2
       [ (1, Lock_manager.Exclusive); (2, Lock_manager.Exclusive) ]);
  Alcotest.(check bool) "item 1 untouched" true
    (Lock_manager.try_acquire t ~txn:3 [ (1, Lock_manager.Exclusive) ])

let test_duplicate_requests_strongest_wins () =
  let t = Lock_manager.create ~num_items:4 in
  ignore
    (Lock_manager.try_acquire t ~txn:1 [ (0, Lock_manager.Shared); (0, Lock_manager.Exclusive) ]);
  (* The single lock held must be exclusive. *)
  Alcotest.(check bool) "other shared blocked" false
    (Lock_manager.try_acquire t ~txn:2 [ (0, Lock_manager.Shared) ])

let test_double_acquire_rejected () =
  let t = Lock_manager.create ~num_items:4 in
  ignore (Lock_manager.try_acquire t ~txn:1 [ (0, Lock_manager.Shared) ]);
  Alcotest.check_raises "already holds"
    (Invalid_argument "Lock_manager.try_acquire: txn already holds locks") (fun () ->
      ignore (Lock_manager.try_acquire t ~txn:1 [ (1, Lock_manager.Shared) ]))

let test_conflicts_predicate () =
  let sh item = (item, Lock_manager.Shared) and ex item = (item, Lock_manager.Exclusive) in
  Alcotest.(check bool) "rw conflict" true (Lock_manager.conflicts [ sh 1 ] [ ex 1 ]);
  Alcotest.(check bool) "ww conflict" true (Lock_manager.conflicts [ ex 1 ] [ ex 1 ]);
  Alcotest.(check bool) "rr fine" false (Lock_manager.conflicts [ sh 1 ] [ sh 1 ]);
  Alcotest.(check bool) "disjoint fine" false (Lock_manager.conflicts [ ex 1 ] [ ex 2 ])

let test_of_txn () =
  let txn = Txn.make ~id:1 [ Txn.Read 1; Txn.Write 2; Txn.Read 2; Txn.Read 3 ] in
  let locks = List.sort compare (Lock_manager.of_txn txn) in
  Alcotest.(check bool) "item 2 exclusive despite read" true
    (List.mem (2, Lock_manager.Exclusive) locks);
  Alcotest.(check bool) "item 1 shared" true (List.mem (1, Lock_manager.Shared) locks);
  Alcotest.(check int) "three locks" 3 (List.length locks)

let prop_lock_manager_model =
  (* Random acquire/release sequences: at all times, an item has either
     any number of shared holders or exactly one exclusive holder. *)
  QCheck.Test.make ~name:"lock table never holds incompatible locks" ~count:200
    QCheck.(list (triple (int_range 1 6) (int_range 0 5) bool))
    (fun ops ->
      let t = Lock_manager.create ~num_items:6 in
      let active = Hashtbl.create 8 in
      List.iter
        (fun (txn, item, exclusive) ->
          if Hashtbl.mem active txn then begin
            Lock_manager.release_all t ~txn;
            Hashtbl.remove active txn
          end
          else
            let mode = if exclusive then Lock_manager.Exclusive else Lock_manager.Shared in
            if Lock_manager.try_acquire t ~txn [ (item, mode) ] then Hashtbl.add active txn ())
        ops;
      List.for_all
        (fun item ->
          match Lock_manager.holders t item with
          | [] -> true
          | [ _ ] -> true
          | holders -> List.for_all (fun (_, mode) -> mode = Lock_manager.Shared) holders)
        (List.init 6 Fun.id))

(* {2 Concurrent batches} *)

let base_config ?(num_sites = 4) () =
  Config.make ~cost:Cost_model.free ~num_sites ~num_items:20 ()

let workload = Workload.Uniform { max_ops = 4; write_prob = 0.5 }

let test_concurrent_batch_correct () =
  let result = Concurrent.run ~concurrency:6 ~txns:150 ~config:(base_config ()) ~workload () in
  Alcotest.(check int) "all committed" 150 result.Concurrent.committed;
  Alcotest.(check int) "none aborted" 0 result.Concurrent.aborted;
  Alcotest.(check bool) "parallelism happened" true (result.Concurrent.max_in_flight > 1);
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent result.Concurrent.cluster);
  (match Invariant.no_stale_reads result.Concurrent.cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match Invariant.faillocks_track_staleness result.Concurrent.cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_concurrent_matches_serial_final_state () =
  (* The same batch at concurrency 1 and 8 must produce identical final
     databases: conservative 2PL serializes all conflicts in id order. *)
  let final_snapshot concurrency =
    let result =
      Concurrent.run ~seed:5 ~concurrency ~txns:120 ~config:(base_config ()) ~workload ()
    in
    Raid_storage.Database.snapshot
      (Raid_core.Site.database (Cluster.site result.Concurrent.cluster 0))
  in
  Alcotest.(check (array (option (pair int int))))
    "same final state" (final_snapshot 1) (final_snapshot 8)

let test_concurrency_shrinks_makespan () =
  let config = Config.make ~num_sites:4 ~num_items:50 () in
  let serial = Concurrent.run ~seed:3 ~concurrency:1 ~txns:80 ~config ~workload () in
  let parallel = Concurrent.run ~seed:3 ~concurrency:8 ~txns:80 ~config ~workload () in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %.0f < %.0f" parallel.Concurrent.makespan_ms
       serial.Concurrent.makespan_ms)
    true
    (parallel.Concurrent.makespan_ms *. 2.0 < serial.Concurrent.makespan_ms)

let test_per_item_version_order () =
  (* Versions applied to any single item must be strictly increasing in
     application order at every site (regression would have raised in
     Database.apply; verify through the update logs as well). *)
  let result = Concurrent.run ~concurrency:8 ~txns:150 ~config:(base_config ()) ~workload () in
  for s = 0 to 3 do
    let log = Raid_core.Site.log (Cluster.site result.Concurrent.cluster s) in
    for item = 0 to 19 do
      let versions =
        let acc = ref [] in
        ignore
          (Raid_storage.Update_log.exists log (fun ~txn:_ w ->
               if w.Raid_storage.Database.item = item then
                 acc := w.Raid_storage.Database.version :: !acc;
               false));
        !acc
      in
      let sorted = List.sort compare versions in
      Alcotest.(check (list int)) (Printf.sprintf "site %d item %d ordered" s item) sorted versions
    done
  done

let test_churn_mid_batch () =
  (* Fail a site 30 completions into a concurrent batch and bring it back
     at 80: transactions coordinated there at the moment of the crash are
     lost, everything else completes, and the books balance. *)
  let result =
    Concurrent.run ~seed:11 ~concurrency:6 ~txns:150
      ~churn:[ (30, `Fail 3); (80, `Recover 3) ]
      ~config:(base_config ()) ~workload ()
  in
  Alcotest.(check int) "books balance" 150
    (result.Concurrent.committed + result.Concurrent.aborted + result.Concurrent.lost);
  Alcotest.(check bool) "most committed" true (result.Concurrent.committed > 120);
  Alcotest.(check bool)
    (Printf.sprintf "bounded losses (%d lost, %d aborted)" result.Concurrent.lost
       result.Concurrent.aborted)
    true
    (result.Concurrent.lost <= 6);
  let cluster = result.Concurrent.cluster in
  (match Invariant.faillocks_track_staleness cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* One serial write pass converges the cluster. *)
  for item = 0 to 19 do
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:0 (Raid_core.Txn.make ~id [ Raid_core.Txn.Write item ]))
  done;
  Alcotest.(check bool) "converges after churn" true (Cluster.fully_consistent cluster)

let test_churn_without_recovery () =
  let result =
    Concurrent.run ~seed:12 ~concurrency:4 ~txns:100
      ~churn:[ (20, `Fail 2) ]
      ~config:(base_config ()) ~workload ()
  in
  Alcotest.(check int) "books balance" 100
    (result.Concurrent.committed + result.Concurrent.aborted + result.Concurrent.lost);
  Alcotest.(check bool) "fail-locks accumulated for the dead site" true
    (Cluster.faillock_count_for result.Concurrent.cluster 2 > 0)

let test_validation () =
  Alcotest.check_raises "bad concurrency"
    (Invalid_argument "Concurrent.run: concurrency must be positive") (fun () ->
      ignore (Concurrent.run ~concurrency:0 ~config:(base_config ()) ~workload ()))

(* Regression: [normalize] used to return requests in [Hashtbl.fold]
   order, which is unspecified and changed across OCaml releases.  It
   must sort by item regardless of request order. *)
let test_normalize_sorted () =
  let requests =
    [
      (9, Lock_manager.Shared);
      (2, Lock_manager.Exclusive);
      (17, Lock_manager.Shared);
      (2, Lock_manager.Shared);
      (0, Lock_manager.Shared);
      (9, Lock_manager.Exclusive);
    ]
  in
  let normalized = Lock_manager.normalize requests in
  Alcotest.(check (list int)) "sorted by item" [ 0; 2; 9; 17 ] (List.map fst normalized);
  let mode item = List.assoc item normalized in
  Alcotest.(check bool) "strongest wins (2)" true (mode 2 = Lock_manager.Exclusive);
  Alcotest.(check bool) "strongest wins (9)" true (mode 9 = Lock_manager.Exclusive);
  Alcotest.(check bool) "shared kept (0)" true (mode 0 = Lock_manager.Shared);
  (* Same requests, shuffled: identical output. *)
  let shuffled = List.rev requests in
  Alcotest.(check bool)
    "order-independent" true
    (Lock_manager.normalize shuffled = normalized)

let suite =
  [
    Alcotest.test_case "normalize sorted by item" `Quick test_normalize_sorted;
    Alcotest.test_case "shared locks compatible" `Quick test_shared_compatible;
    Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
    Alcotest.test_case "all-or-nothing acquisition" `Quick test_all_or_nothing;
    Alcotest.test_case "strongest mode wins" `Quick test_duplicate_requests_strongest_wins;
    Alcotest.test_case "double acquire rejected" `Quick test_double_acquire_rejected;
    Alcotest.test_case "conflicts predicate" `Quick test_conflicts_predicate;
    Alcotest.test_case "lock set of a transaction" `Quick test_of_txn;
    QCheck_alcotest.to_alcotest prop_lock_manager_model;
    Alcotest.test_case "concurrent batch correct" `Quick test_concurrent_batch_correct;
    Alcotest.test_case "concurrent equals serial state" `Quick
      test_concurrent_matches_serial_final_state;
    Alcotest.test_case "concurrency shrinks makespan" `Quick test_concurrency_shrinks_makespan;
    Alcotest.test_case "per-item version order" `Quick test_per_item_version_order;
    Alcotest.test_case "churn mid-batch" `Quick test_churn_mid_batch;
    Alcotest.test_case "churn without recovery" `Quick test_churn_without_recovery;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
