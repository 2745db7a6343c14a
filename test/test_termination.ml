(* Graceful shutdown (the paper's Terminating session state) and
   per-link latency (its "communication delays across machines" future
   work). *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Metrics = Raid_core.Metrics
module Session = Raid_core.Session
module Site = Raid_core.Site
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime

let config ?(cost = Cost_model.free) () = Config.make ~cost ~num_sites:3 ~num_items:8 ()

let test_departure_updates_vectors () =
  let cluster = Cluster.create (config ()) in
  Cluster.terminate_site cluster 2;
  Alcotest.(check bool) "site is down" false (Cluster.alive cluster 2);
  List.iter
    (fun s ->
      let vector = Site.vector (Cluster.site cluster s) in
      Alcotest.(check bool)
        (Printf.sprintf "site %d sees terminating" s)
        true
        (Session.state vector 2 = Session.Terminating))
    [ 0; 1 ]

let test_no_aborts_after_graceful_departure () =
  (* Unlike an unannounced crash ([Cluster.crash_site_now]), a graceful
     departure never costs an aborted transaction. *)
  let cluster = Cluster.create (config ()) in
  Cluster.terminate_site cluster 2;
  let id = Cluster.next_txn_id cluster in
  let outcome = Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 1 ]) in
  Alcotest.(check bool) "committed first try" true outcome.Metrics.committed;
  Alcotest.(check int) "no control-2 traffic" 0
    (Cluster.metrics cluster).Metrics.control2_announcements

let test_faillocks_accumulate_for_terminated () =
  let cluster = Cluster.create (config ()) in
  Cluster.terminate_site cluster 2;
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 5 ]));
  Alcotest.(check (list int)) "stale copy tracked" [ 5 ] (Cluster.faillocks_for cluster 2)

let test_terminated_site_rejoins () =
  let cluster = Cluster.create (config ()) in
  Cluster.terminate_site cluster 2;
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 5 ]));
  (match Cluster.recover_site cluster 2 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "blocked");
  Alcotest.(check int) "session incremented" 2 (Site.session_number (Cluster.site cluster 2));
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 5 ]));
  Alcotest.(check bool) "consistent again" true (Cluster.fully_consistent cluster);
  match Raid_core.Invariant.all cluster with Ok () -> () | Error m -> Alcotest.fail m

let test_terminate_is_idempotent () =
  let cluster = Cluster.create (config ()) in
  Cluster.terminate_site cluster 2;
  Cluster.terminate_site cluster 2;
  Alcotest.(check bool) "still down" false (Cluster.alive cluster 2)

let suite =
  [
    Alcotest.test_case "departure updates vectors" `Quick test_departure_updates_vectors;
    Alcotest.test_case "no aborts after graceful departure" `Quick
      test_no_aborts_after_graceful_departure;
    Alcotest.test_case "fail-locks accumulate for terminated" `Quick
      test_faillocks_accumulate_for_terminated;
    Alcotest.test_case "terminated site rejoins" `Quick test_terminated_site_rejoins;
    Alcotest.test_case "terminate idempotent" `Quick test_terminate_is_idempotent;
  ]
