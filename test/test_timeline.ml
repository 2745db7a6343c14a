(* Golden-trace conformance tests: the exact message sequences of the
   protocol's main paths, straight from Appendix A. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Timeline = Raid_sim.Timeline
module Trace = Raid_obs.Trace

(* Just the labels of delivered messages, in order: the skeleton these
   tests compare against. *)
let message_kinds arrivals =
  List.filter_map
    (function Trace.Message { delivered = true; label; _ } -> Some label | _ -> None)
    (Arrivals.all arrivals)

let cluster ?(num_sites = 3) () =
  Arrivals.cluster (Config.make ~cost:Cost_model.free ~num_sites ~num_items:8 ())

let test_plain_commit_trace () =
  let c, arrivals = cluster () in
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 3 ]));
  Alcotest.(check (list string)) "two-phase commit sequence"
    [
      "begin_txn(1)";
      "prepare(1,1 writes,0 cleared)";  (* 0 -> 1 *)
      "prepare(1,1 writes,0 cleared)";  (* 0 -> 2 *)
      "prepare_ack(1)";
      "prepare_ack(1)";
      "commit(1)";
      "commit(1)";
      "commit_ack(1)";
      "commit_ack(1)";
    ]
    (message_kinds arrivals)

let test_copier_trace () =
  let c, arrivals = cluster () in
  Cluster.fail_site c 2;
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 3 ]));
  ignore (Cluster.recover_site c 2);
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:2 (Txn.make ~id [ Txn.Read 3 ]));
  let kinds = message_kinds arrivals in
  (* The copier must run before phase 1 begins (Appendix A). *)
  let index_of needle =
    let rec find i = function
      | [] -> Alcotest.failf "%s not in trace" needle
      | k :: rest -> if k = needle then i else find (i + 1) rest
    in
    find 0 kinds
  in
  Alcotest.(check bool) "copy request precedes reply" true
    (index_of "copy_request(2,1 items)" < index_of "copy_reply(2,1 items)");
  Alcotest.(check bool) "reply precedes phase 1" true
    (index_of "copy_reply(2,1 items)" < index_of "prepare(2,0 writes,0 cleared)");
  Alcotest.(check bool) "special clear transaction ran" true
    (List.mem "faillocks_cleared(site 2,1 items)" kinds)

let test_recovery_trace () =
  let c, arrivals = cluster () in
  Cluster.fail_site c 1;
  ignore (Cluster.recover_site c 1);
  let kinds = message_kinds arrivals in
  (* Control-2 from the witness, then control-1: announcements to every
     other site and exactly one state shipment. *)
  Alcotest.(check bool) "failure announce" true
    (List.mem "failure_announce(1)" kinds);
  let announces =
    List.length (List.filter (fun k -> String.length k >= 17 && String.sub k 0 17 = "recovery_announce") kinds)
  in
  Alcotest.(check int) "announce to both other sites" 2 announces;
  Alcotest.(check int) "one state shipment" 1
    (List.length (List.filter (( = ) "recovery_state") kinds))

let test_render_format () =
  let c, arrivals = cluster () in
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 1 ]));
  let mark = Raid_net.Engine.now (Cluster.engine c) in
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 2 ]));
  let all = Timeline.lines arrivals.Arrivals.ring in
  Alcotest.(check string) "the managing site's injection" "     9.00 ms    mgr -> 0   begin_txn(1)"
    (List.hd all);
  (* since/last select one way: the arrivals at or after [since], then
     the last [last] of those. *)
  let last = Timeline.lines ~last:2 arrivals.Arrivals.ring in
  Alcotest.(check (list string)) "the last two lines" (List.filteri (fun i _ -> i >= 16) all) last;
  let since = Timeline.lines ~since:(Raid_net.Vtime.add mark 1) arrivals.Arrivals.ring in
  Alcotest.(check int) "the second transaction's nine messages" 9 (List.length since);
  Alcotest.(check (list string)) "since, then last" (List.filteri (fun i _ -> i >= 7) since)
    (Timeline.lines ~since:(Raid_net.Vtime.add mark 1) ~last:2 arrivals.Arrivals.ring)

let test_undeliverable_marked () =
  let c, arrivals =
    Arrivals.cluster (Config.make ~cost:Cost_model.free ~num_sites:2 ~num_items:4 ())
  in
  Cluster.crash_site_now c 1;
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 0 ]));
  Alcotest.(check bool) "failed delivery marked" true
    (List.exists
       (fun line -> String.length line > 14 && String.sub line 13 2 = "!!")
       (Timeline.lines arrivals.Arrivals.ring))

let suite =
  [
    Alcotest.test_case "plain commit golden trace" `Quick test_plain_commit_trace;
    Alcotest.test_case "copier golden trace" `Quick test_copier_trace;
    Alcotest.test_case "recovery golden trace" `Quick test_recovery_trace;
    Alcotest.test_case "render format" `Quick test_render_format;
    Alcotest.test_case "undeliverable marked" `Quick test_undeliverable_marked;
  ]
