(* Golden-trace conformance tests: the exact message sequences of the
   protocol's main paths, straight from Appendix A. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Timeline = Raid_sim.Timeline
module Engine = Raid_net.Engine

(* Just the message descriptions of delivered entries, in order: the
   skeleton these tests compare against. *)
let message_kinds c =
  List.filter_map
    (fun e ->
      match e.Engine.trace_outcome with
      | Engine.Delivered -> Some (Raid_core.Message.describe e.Engine.trace_payload)
      | Engine.Undeliverable -> None)
    (Timeline.entries c)

let cluster ?(num_sites = 3) () =
  Cluster.of_spec
    (Cluster.Spec.make ~trace:true (Config.make ~cost:Cost_model.free ~num_sites ~num_items:8 ()))

let test_plain_commit_trace () =
  let c = cluster () in
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
    (message_kinds c)

let test_copier_trace () =
  let c = cluster () in
  Cluster.fail_site c 2;
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 3 ]));
  ignore (Cluster.recover_site c 2);
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:2 (Txn.make ~id [ Txn.Read 3 ]));
  let kinds = message_kinds c in
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
  let c = cluster () in
  Cluster.fail_site c 1;
  ignore (Cluster.recover_site c 1);
  let kinds = message_kinds c in
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
  let c = cluster () in
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 1 ]));
  let rendered = Timeline.render c in
  Alcotest.(check bool) "mentions manager source" true
    (String.length rendered > 0
    &&
    let lines = String.split_on_char '\n' rendered in
    List.exists (fun l -> String.length l > 0 && String.contains l 'm' (* mgr *)) lines);
  (* since/limit filters *)
  let limited = Timeline.render ~limit:2 c in
  Alcotest.(check int) "limit respected" 2
    (List.length (String.split_on_char '\n' limited))

let test_undeliverable_marked () =
  let c =
    Cluster.of_spec
      (Cluster.Spec.make ~detection:Cluster.On_timeout ~trace:true
         (Config.make ~cost:Cost_model.free ~num_sites:2 ~num_items:4 ()))
  in
  Cluster.fail_site c 1;
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 0 ]));
  let rendered = Timeline.render c in
  Alcotest.(check bool) "failed delivery marked" true
    (let lines = String.split_on_char '\n' rendered in
     List.exists
       (fun l ->
         String.length l > 12
         &&
         let rec has i = i + 2 <= String.length l && (String.sub l i 2 = "!!" || has (i + 1)) in
         has 0)
       lines)

let suite =
  [
    Alcotest.test_case "plain commit golden trace" `Quick test_plain_commit_trace;
    Alcotest.test_case "copier golden trace" `Quick test_copier_trace;
    Alcotest.test_case "recovery golden trace" `Quick test_recovery_trace;
    Alcotest.test_case "render format" `Quick test_render_format;
    Alcotest.test_case "undeliverable marked" `Quick test_undeliverable_marked;
  ]
