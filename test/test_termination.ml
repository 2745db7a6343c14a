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
  (* Unlike an undetected crash under timeout detection, a graceful
     departure never costs an aborted transaction. *)
  let cluster = Cluster.of_spec (Cluster.Spec.make ~detection:Cluster.On_timeout (config ())) in
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

(* {2 Per-link latency} *)

let test_link_latency_defaults () =
  let engine = Engine.create ~message_latency:(Vtime.of_ms 9) ~num_sites:3 () in
  Alcotest.(check int) "default link" (Vtime.of_ms 9) (Engine.link_latency engine 0 1);
  Engine.set_link_latency engine 0 1 (Vtime.of_ms 80);
  Alcotest.(check int) "overridden" (Vtime.of_ms 80) (Engine.link_latency engine 0 1);
  Alcotest.(check int) "symmetric" (Vtime.of_ms 80) (Engine.link_latency engine 1 0);
  Alcotest.(check int) "other links untouched" (Vtime.of_ms 9) (Engine.link_latency engine 0 2);
  Alcotest.check_raises "negative" (Invalid_argument "Engine.set_link_latency: negative latency")
    (fun () -> Engine.set_link_latency engine 0 1 (-1))

let test_wan_link_slows_transaction () =
  (* 2 LAN sites + 1 across a slow WAN link: the commit must wait for the
     slow participant, so the coordinator time grows by 4 x the latency
     difference (two round trips). *)
  let run ~wan_ms =
    let cluster = Cluster.create (config ()) in
    let engine = Cluster.engine cluster in
    Engine.set_link_latency engine 0 2 (Vtime.of_ms wan_ms);
    Engine.set_link_latency engine 1 2 (Vtime.of_ms wan_ms);
    let id = Cluster.next_txn_id cluster in
    let outcome = Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 1 ]) in
    Vtime.to_ms outcome.Metrics.elapsed
  in
  let lan = run ~wan_ms:9 and wan = run ~wan_ms:59 in
  Alcotest.check (Alcotest.float 0.01) "4 extra half-trips" (4.0 *. 50.0) (wan -. lan)

let suite =
  [
    Alcotest.test_case "departure updates vectors" `Quick test_departure_updates_vectors;
    Alcotest.test_case "no aborts after graceful departure" `Quick
      test_no_aborts_after_graceful_departure;
    Alcotest.test_case "fail-locks accumulate for terminated" `Quick
      test_faillocks_accumulate_for_terminated;
    Alcotest.test_case "terminated site rejoins" `Quick test_terminated_site_rejoins;
    Alcotest.test_case "terminate idempotent" `Quick test_terminate_is_idempotent;
    Alcotest.test_case "link latency accessors" `Quick test_link_latency_defaults;
    Alcotest.test_case "WAN link slows the commit" `Quick test_wan_link_slows_transaction;
  ]
