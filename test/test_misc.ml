(* Failure-path and coverage tests: the invariant checkers must actually
   fire on violating states, metrics bookkeeping must balance, message
   descriptions and CSV exports must render. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Metrics = Raid_core.Metrics
module Faillock = Raid_core.Faillock
module Session = Raid_core.Session
module Site = Raid_core.Site
module Invariant = Raid_core.Invariant
module Message = Raid_core.Message
module Export = Raid_sim.Export
module Database = Raid_storage.Database

let cluster () = Cluster.create (Config.make ~cost:Cost_model.free ~num_sites:3 ~num_items:6 ())

let expect_error name = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: violation not detected" name

(* {2 Invariant checkers fire on violations} *)

let test_staleness_checker_fires_on_bogus_lock () =
  let c = cluster () in
  (* Corrupt a fail-lock table directly: claim site 1 missed item 2. *)
  ignore (Faillock.set (Site.faillocks (Cluster.site c 0)) ~item:2 ~site:1);
  expect_error "bogus lock" (Invariant.faillocks_track_staleness c)

let test_staleness_checker_fires_on_missing_lock () =
  let c = cluster () in
  Cluster.fail_site c 2;
  let id = Cluster.next_txn_id c in
  ignore (Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 3 ]));
  ignore (Cluster.recover_site c 2);
  (* Erase the legitimate lock everywhere: site 2 is now silently stale. *)
  for s = 0 to 2 do
    ignore (Faillock.clear (Site.faillocks (Cluster.site c s)) ~item:3 ~site:2)
  done;
  expect_error "missing lock" (Invariant.faillocks_track_staleness c)

let test_vector_checker_fires_on_disagreement () =
  let c = cluster () in
  Session.mark_down (Site.vector (Cluster.site c 0)) 1;
  expect_error "vector disagreement" (Invariant.session_vectors_sane c)

let test_convergence_checker_fires_when_down () =
  let c = cluster () in
  Cluster.fail_site c 1;
  expect_error "down site" (Invariant.convergence c)

let test_durability_checker_fires_on_false_claim () =
  let c = cluster () in
  Cluster.fail_site c 2;
  let id = Cluster.next_txn_id c in
  let outcome = Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write 1 ]) in
  (* Claim the dead site was operational at commit: its copy lacks the write. *)
  expect_error "false operational claim"
    (Invariant.write_durability c outcome ~operational:[ 0; 1; 2 ])

(* {2 Metrics bookkeeping} *)

let test_metrics_balance () =
  let c = cluster () in
  Cluster.fail_site c 2;
  let outcomes =
    List.init 10 (fun _ ->
        let id = Cluster.next_txn_id c in
        Cluster.submit c ~coordinator:0 (Txn.make ~id [ Txn.Write (id mod 6) ]))
  in
  ignore (Cluster.recover_site c 2);
  let metrics = Cluster.metrics c in
  Alcotest.(check int) "committed counter matches outcomes"
    (List.length (List.filter (fun o -> o.Metrics.committed) outcomes))
    metrics.Metrics.txns_committed;
  Alcotest.(check int) "aborted counter matches outcomes"
    (List.length (List.filter (fun o -> not o.Metrics.committed) outcomes))
    metrics.Metrics.txns_aborted;
  Alcotest.(check int) "one control-1" 1 metrics.Metrics.control1_completed;
  (* Counter names are stable (reports depend on them). *)
  Alcotest.(check bool) "snapshot has faillocks_set" true
    (List.mem_assoc "faillocks_set" (Metrics.snapshot_counts metrics))

(* {2 Message descriptions} *)

let test_message_descriptions () =
  let write = { Database.item = 3; value = 7; version = 9 } in
  let cases =
    [
      (Message.Begin_txn (Txn.make ~id:4 [ Txn.Read 1 ]), "begin_txn(4)");
      (Message.Recover_command, "recover_command");
      (Message.Terminate_command, "terminate_command");
      (Message.Departure_announce { site = 2 }, "departure_announce(site 2)");
      (Message.Prepare { txn = 4; writes = [ write ]; cleared = [ 1; 2 ] },
       "prepare(4,1 writes,2 cleared)");
      (Message.Prepare_ack { txn = 4 }, "prepare_ack(4)");
      (Message.Commit { txn = 4 }, "commit(4)");
      (Message.Commit_ack { txn = 4 }, "commit_ack(4)");
      (Message.Abort { txn = 4; cleared = [] }, "abort(4,0 cleared)");
      (Message.Copy_request { txn = 4; items = [ 1; 2 ] }, "copy_request(4,2 items)");
      (Message.Copy_reply { txn = 4; writes = [ write ] }, "copy_reply(4,1 items)");
      (Message.Copy_unavailable { txn = 4; items = [ 1 ] }, "copy_unavailable(4,1 items)");
      (Message.Faillocks_cleared { site = 1; items = [ 0 ] },
       "faillocks_cleared(site 1,1 items)");
      (Message.Failure_announce { failed = [ 1; 2 ] }, "failure_announce(1,2)");
      (Message.Backup_copy { target = 2; write }, "backup_copy(item 3 -> site 2)");
    ]
  in
  List.iter
    (fun (message, expected) ->
      Alcotest.(check string) expected expected (Message.describe message))
    cases

(* {2 CSV export} *)

let test_series_csv () =
  let csv = Export.series_csv ~header:("txn", "locks") [ (1.0, 46.0); (2.5, 40.25) ] in
  Alcotest.(check string) "rendered" "txn,locks\n1,46\n2.5,40.25\n" csv

let test_multi_series_csv () =
  let csv =
    Export.multi_series_csv ~x_name:"txn"
      [ ("a", [ (1.0, 2.0); (2.0, 3.0) ]); ("b", [ (2.0, 9.0) ]) ]
  in
  Alcotest.(check string) "joined" "txn,a,b\n1,2,\n2,3,9\n" csv

let test_records_csv () =
  let scenario =
    Raid_sim.Scenario.make
      ~config:(Config.make ~cost:Cost_model.free ~num_sites:2 ~num_items:4 ())
      ~workload:(Raid_core.Workload.Uniform { max_ops = 2; write_prob = 1.0 })
      [ Raid_sim.Scenario.Run_txns 3 ]
  in
  let result = Raid_sim.Runner.run scenario in
  let csv = Export.records_csv result in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 3 rows" 4 (List.length lines);
  Alcotest.(check string) "header"
    "txn,coordinator,committed,abort_reason,copiers,elapsed_ms,faillocks_site_0,faillocks_site_1"
    (List.hd lines)

let test_write_file () =
  let path = Filename.temp_file "raid_export" ".csv" in
  Export.write_file ~path "a,b\n1,2\n";
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "round trip" "a,b\n1,2\n" content

let suite =
  [
    Alcotest.test_case "staleness checker: bogus lock" `Quick test_staleness_checker_fires_on_bogus_lock;
    Alcotest.test_case "staleness checker: missing lock" `Quick
      test_staleness_checker_fires_on_missing_lock;
    Alcotest.test_case "vector checker fires" `Quick test_vector_checker_fires_on_disagreement;
    Alcotest.test_case "convergence checker fires" `Quick test_convergence_checker_fires_when_down;
    Alcotest.test_case "durability checker fires" `Quick test_durability_checker_fires_on_false_claim;
    Alcotest.test_case "metrics balance" `Quick test_metrics_balance;
    Alcotest.test_case "message descriptions" `Quick test_message_descriptions;
    Alcotest.test_case "series csv" `Quick test_series_csv;
    Alcotest.test_case "multi-series csv" `Quick test_multi_series_csv;
    Alcotest.test_case "records csv" `Quick test_records_csv;
    Alcotest.test_case "write file" `Quick test_write_file;
  ]
