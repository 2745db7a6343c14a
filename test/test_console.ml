(* Tests for the interactive managing-site console's command interpreter. *)

module Console = Raid_sim.Console
module Cluster = Raid_core.Cluster

let run_commands ?(sites = 3) ?(items = 10) commands =
  let console = Console.create ~sites ~items () in
  let output = Buffer.create 256 in
  let print line =
    Buffer.add_string output line;
    Buffer.add_char output '\n'
  in
  let quit =
    List.exists
      (fun line -> Console.command console ~print line = `Quit)
      commands
  in
  (console, Buffer.contents output, quit)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let test_txn_and_status () =
  let _, output, _ = run_commands [ "txn 0 w3 r3"; "status" ] in
  Alcotest.(check bool) "commit reported" true (contains output "T1 committed");
  Alcotest.(check bool) "status table" true (contains output "fully consistent: true")

let test_fail_recover_cycle () =
  let console, output, _ =
    run_commands [ "fail 2"; "txn 0 w5"; "faillocks 2"; "recover 2"; "txn 2 r5"; "check" ]
  in
  Alcotest.(check bool) "failure reported" true (contains output "site 2 failed");
  Alcotest.(check bool) "lock listed" true (contains output "items fail-locked for site 2: 5");
  Alcotest.(check bool) "recovery reported" true (contains output "site 2 recovered");
  Alcotest.(check bool) "copier ran" true (contains output "copiers: 1");
  Alcotest.(check bool) "invariants" true (contains output "all invariants hold");
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent (Console.cluster console))

let count_lines haystack needle =
  List.length (List.filter (( = ) needle) (String.split_on_char '\n' haystack))

(* Failing a site that is already down changes nothing and says so. *)
let test_fail_down_site () =
  let _, output, _ = run_commands [ "fail 2"; "fail 2" ] in
  Alcotest.(check int) "failed once" 1 (count_lines output "site 2 failed");
  Alcotest.(check int) "second fail reported" 1 (count_lines output "site 2 is already down")

(* [recover] on a blocked site (alive, waiting for a donor) retries
   control 1; once the network heals the retry completes. *)
let test_recover_blocked_site () =
  let console = Console.create ~sites:3 ~items:10 () in
  let engine = Cluster.engine (Console.cluster console) in
  let isolate up = List.iter (fun s -> Raid_net.Engine.set_link engine 1 s up) [ 0; 2 ] in
  let run line =
    let output = Buffer.create 64 in
    ignore
      (Console.command console line ~print:(fun l ->
           Buffer.add_string output l;
           Buffer.add_char output '\n'));
    Buffer.contents output
  in
  Alcotest.(check string) "failed" "site 1 failed\n" (run "fail 1");
  isolate false;
  let blocked = "site 1 blocked: no operational donor\n" in
  Alcotest.(check string) "blocked" blocked (run "recover 1");
  Alcotest.(check string) "blocked again" blocked (run "recover 1");
  isolate true;
  Alcotest.(check string) "retry recovers" "site 1 recovered\n" (run "recover 1");
  Alcotest.(check bool) "operational site refuses" true (contains (run "recover 1") "error:")

let test_terminate () =
  let _, output, _ = run_commands [ "terminate 1"; "txn 0 w2" ] in
  Alcotest.(check bool) "graceful" true (contains output "site 1 terminated gracefully");
  Alcotest.(check bool) "still working" true (contains output "T1 committed")

let outcomes console =
  let m = Cluster.metrics (Console.cluster console) in
  m.Raid_core.Metrics.txns_committed + m.Raid_core.Metrics.txns_aborted

let test_auto_counts () =
  let console, output, _ = run_commands [ "auto 5" ] in
  Alcotest.(check int) "five outcomes" 5 (outcomes console);
  Alcotest.(check bool) "reported" true (contains output "T5")

(* With no operational site, [auto n] reports it once and stops,
   whether or not a coordinator is named. *)
let test_auto_without_operational_site () =
  let count haystack needle =
    List.length (List.filter (( = ) needle) (String.split_on_char '\n' haystack))
  in
  let console, output, _ = run_commands ~sites:2 [ "fail 0"; "fail 1"; "auto 4" ] in
  Alcotest.(check int) "reported once" 1 (count output "no operational site");
  Alcotest.(check int) "nothing submitted" 0 (outcomes console);
  let _, output, _ = run_commands ~sites:2 [ "fail 0"; "fail 1"; "auto 3 0" ] in
  Alcotest.(check int) "named site: reported once" 1 (count output "no operational site")

let test_db_inspection () =
  let _, output, _ = run_commands [ "txn 0 w3"; "db 1 3" ] in
  Alcotest.(check bool) "copy shown" true (contains output "item 3: value=1 version=1")

let test_trace_and_metrics () =
  let _, output, _ = run_commands [ "txn 0 w1"; "trace 3"; "metrics" ] in
  Alcotest.(check bool) "trace lines" true (contains output "commit_ack");
  Alcotest.(check bool) "counters" true (contains output "txns_committed")

let test_bad_input_is_safe () =
  let _, output, quit =
    run_commands [ "txn"; "txn x w1"; "txn 0 z9"; "fail nine"; "frobnicate"; "recover 0" ]
  in
  Alcotest.(check bool) "usage hints" true (contains output "usage: txn <site> <rN|wN>...");
  Alcotest.(check bool) "unknown hint" true (contains output "unknown command");
  (* recover of an up site raises Invalid_argument; must be caught. *)
  Alcotest.(check bool) "error caught" true (contains output "error:");
  Alcotest.(check bool) "no quit" false quit

(* A write to an item outside the database is refused before anything
   runs: every copy of the in-range item it names still agrees, the
   engine holds nothing, and the next transaction commits. *)
let test_out_of_range_write () =
  let console = Console.create ~sites:3 ~items:10 () in
  let cluster = Console.cluster console in
  let output = Buffer.create 64 in
  let run line =
    Buffer.clear output;
    ignore
      (Console.command console line ~print:(fun l ->
           Buffer.add_string output l;
           Buffer.add_char output '\n'));
    Buffer.contents output
  in
  Alcotest.(check bool)
    "refused" true
    (contains (run "txn 0 w1 w999") "error: Cluster.submit: item 999 out of range");
  let copies =
    List.init 3 (fun s ->
        Raid_storage.Database.read (Raid_core.Site.database (Cluster.site cluster s)) 1)
  in
  Alcotest.(check (list (option (pair int int))))
    "every copy of item 1 agrees" [ Some (0, 0); Some (0, 0); Some (0, 0) ] copies;
  Alcotest.(check int) "nothing queued" 0 (Raid_net.Engine.pending_events (Cluster.engine cluster));
  Alcotest.(check string) "invariants" "all invariants hold\n" (run "check");
  Alcotest.(check bool) "next txn commits" true (contains (run "txn 1 w1") "T2 committed");
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster);
  Alcotest.check_raises "a read is checked too"
    (Invalid_argument "Cluster.submit: item -1 out of range") (fun () ->
      ignore (Cluster.submit cluster ~coordinator:0 (Raid_core.Txn.make ~id:3 [ Read (-1) ])))

(* Ids and counts are ASCII digits only: forms [int_of_string] reads as
   a real id are usage errors, and nothing fails, recovers or runs. *)
let test_ids_are_digits () =
  let console, output, _ =
    run_commands
      [
        "fail 0x1"; "fail 0b1"; "fail 1_0"; "fail -0"; "fail +1"; "terminate 0o1"; "txn 0b10 w1";
        "txn 0 w0x1"; "auto 0x2"; "auto 1 0x1"; "faillocks 0x1"; "db 0x1"; "trace 0x1";
      ]
  in
  let cluster = Console.cluster console in
  Alcotest.(check int) "every site up" 3 (List.length (Cluster.alive_sites cluster));
  Alcotest.(check int) "nothing submitted" 0 (outcomes console);
  List.iter
    (fun usage -> Alcotest.(check bool) usage true (contains output ("usage: " ^ usage)))
    [
      "fail <site>"; "terminate <site>"; "txn <site> <rN|wN>..."; "auto <n> [site]";
      "faillocks <site>"; "db <site> [item]"; "trace [n]";
    ];
  Alcotest.(check bool) "no site named" false (contains output "site 1 failed");
  let _, output, _ = run_commands [ "fail 1"; "recover 0x1"; "recover 1" ] in
  Alcotest.(check bool) "recover usage" true (contains output "usage: recover <site>");
  Alcotest.(check bool) "digits still work" true (contains output "site 1 recovered")

let test_quit () =
  let _, _, quit = run_commands [ "status"; "quit" ] in
  Alcotest.(check bool) "quit" true quit

let test_help () =
  let _, output, _ = run_commands [ "help" ] in
  Alcotest.(check bool) "lists commands" true (contains output "faillocks <site>")

let suite =
  [
    Alcotest.test_case "txn and status" `Quick test_txn_and_status;
    Alcotest.test_case "fail/recover cycle" `Quick test_fail_recover_cycle;
    Alcotest.test_case "fail a down site" `Quick test_fail_down_site;
    Alcotest.test_case "recover a blocked site" `Quick test_recover_blocked_site;
    Alcotest.test_case "terminate" `Quick test_terminate;
    Alcotest.test_case "auto" `Quick test_auto_counts;
    Alcotest.test_case "auto without operational site" `Quick test_auto_without_operational_site;
    Alcotest.test_case "db inspection" `Quick test_db_inspection;
    Alcotest.test_case "trace and metrics" `Quick test_trace_and_metrics;
    Alcotest.test_case "bad input is safe" `Quick test_bad_input_is_safe;
    Alcotest.test_case "out-of-range write" `Quick test_out_of_range_write;
    Alcotest.test_case "ids are digits only" `Quick test_ids_are_digits;
    Alcotest.test_case "quit" `Quick test_quit;
    Alcotest.test_case "help" `Quick test_help;
  ]
