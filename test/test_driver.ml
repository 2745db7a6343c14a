(* Tests for the managing site's workload loop: [Cluster.operational]
   against a reference filter, the failure plan's firing rules, and a
   driver built on it (multi-tenant). *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Driver = Raid_core.Driver
module Site = Raid_core.Site
module Workload = Raid_core.Workload
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Rng = Raid_util.Rng

(* Alive minus waiting, written the obvious way: the reference the
   one-pass [Cluster.operational] must match. *)
let reference_operational cluster =
  List.filter
    (fun s -> not (Site.is_waiting (Cluster.site cluster s)))
    (Cluster.alive_sites cluster)

let ints = Alcotest.(list int)

type op = Fail of int | Recover of int | Crash_now of int | Terminate of int | Submit

let show_op = function
  | Fail s -> Printf.sprintf "fail %d" s
  | Recover s -> Printf.sprintf "recover %d" s
  | Crash_now s -> Printf.sprintf "crash %d" s
  | Terminate s -> Printf.sprintf "terminate %d" s
  | Submit -> "txn"

let make_cluster ?(num_sites = 4) () =
  Cluster.create (Config.make ~cost:Cost_model.free ~num_sites ~num_items:8 ())

(* Apply one op the way a managing site may: recover only down sites,
   submit only when some site can coordinate. *)
let apply cluster rng workload = function
  | Fail s -> Cluster.fail_site cluster s
  | Crash_now s -> Cluster.crash_site_now cluster s
  | Terminate s -> Cluster.terminate_site cluster s
  | Recover s -> if not (Cluster.alive cluster s) then ignore (Cluster.recover_site cluster s)
  | Submit -> (
    match reference_operational cluster with
    | [] -> ()
    | sites ->
      let id = Cluster.next_txn_id cluster in
      let coordinator = Rng.choose rng sites in
      ignore (Cluster.submit cluster ~coordinator (Workload.next workload ~id)))

let check_matches cluster what =
  Alcotest.check ints what (reference_operational cluster) (Cluster.operational cluster)

let gen_ops num_sites =
  QCheck.Gen.(
    let site = int_bound (num_sites - 1) in
    list_size (int_range 1 40)
      (frequency
         [
           (4, return Submit);
           (2, map (fun s -> Fail s) site);
           (3, map (fun s -> Recover s) site);
           (1, map (fun s -> Crash_now s) site);
           (1, map (fun s -> Terminate s) site);
         ]))

(* [Crash_now] ops cover crashes nobody announces, so one property
   covers both ways to fail a site. *)
let prop_operational_matches =
  let num_sites = 4 in
  QCheck.Test.make ~name:"operational = reference, immediate detection" ~count:60
    (QCheck.pair
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map show_op ops))
          (gen_ops num_sites))
       QCheck.small_int)
    (fun (ops, seed) ->
      let cluster = make_cluster ~num_sites () in
      let rng = Rng.create seed in
      let workload =
        Workload.create (Workload.Uniform { max_ops = 3; write_prob = 0.5 }) ~num_items:8
          ~rng:(Rng.split rng)
      in
      List.for_all
        (fun op ->
          apply cluster rng workload op;
          let expected = reference_operational cluster in
          Cluster.operational cluster = expected
          || QCheck.Test.fail_reportf "after %s: operational differs from reference" (show_op op))
        ops)

(* A recovery with every other site out of reach blocks (the site is
   alive but waiting, so it must not coordinate); once the network heals,
   failing and recovering it again completes control-1.  [fail] is
   either way to fail a site: announced or not. *)
let test_blocked_then_unblocked fail () =
  let cluster = make_cluster ~num_sites:3 () in
  let engine = Cluster.engine cluster in
  let isolate up = List.iter (fun s -> Engine.set_link engine 1 s up) [ 0; 2 ] in
  fail cluster 1;
  check_matches cluster "site 1 down";
  isolate false;
  (match Cluster.recover_site cluster 1 with
  | `Blocked -> ()
  | `Recovered -> Alcotest.fail "recovery with no reachable donor completed");
  check_matches cluster "blocked recovery";
  Alcotest.(check bool) "site 1 alive" true (Cluster.alive cluster 1);
  Alcotest.check ints "waiting site excluded" [ 0; 2 ] (Cluster.operational cluster);
  isolate true;
  fail cluster 1;
  check_matches cluster "waiting site failed again";
  (match Cluster.recover_site cluster 1 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "recovery still blocked after the network healed");
  check_matches cluster "unblocked";
  Alcotest.check ints "all operational" [ 0; 1; 2 ] (Cluster.operational cluster)

(* A blocked site stays alive and waiting, and recovering it again
   re-runs control 1: blocked while no donor is reachable, complete once
   the network heals.  An operational site still refuses recovery. *)
let test_blocked_then_retried fail () =
  let cluster = make_cluster ~num_sites:3 () in
  let engine = Cluster.engine cluster in
  let isolate up = List.iter (fun s -> Engine.set_link engine 1 s up) [ 0; 2 ] in
  fail cluster 1;
  isolate false;
  for attempt = 1 to 2 do
    (match Cluster.recover_site cluster 1 with
    | `Blocked -> ()
    | `Recovered -> Alcotest.failf "attempt %d completed with no reachable donor" attempt);
    check_matches cluster (Printf.sprintf "blocked attempt %d" attempt);
    Alcotest.(check bool) "site 1 alive" true (Cluster.alive cluster 1);
    Alcotest.check ints "waiting site excluded" [ 0; 2 ] (Cluster.operational cluster)
  done;
  isolate true;
  (match Cluster.recover_site cluster 1 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "retry still blocked after the network healed");
  check_matches cluster "retried";
  Alcotest.check ints "all operational" [ 0; 1; 2 ] (Cluster.operational cluster);
  Alcotest.check_raises "operational site"
    (Invalid_argument "Cluster.recover_site: site is already up") (fun () ->
      ignore (Cluster.recover_site cluster 1))

(* {2 The driver} *)

let make_driver ?plan ?(num_sites = 4) () =
  let cluster = make_cluster ~num_sites () in
  let rng = Rng.create 5 in
  let workload =
    Workload.create (Workload.Uniform { max_ops = 3; write_prob = 0.5 }) ~num_items:8
      ~rng:(Rng.split rng)
  in
  Driver.create ?plan cluster ~workload ~rng

let down cluster =
  List.filter
    (fun s -> not (Cluster.alive cluster s))
    (List.init (Cluster.num_sites cluster) Fun.id)

(* Entries fire in list order: a later entry that is already due waits
   for the earlier one, then both fire in the same step. *)
let test_plan_order_and_once () =
  let plan =
    Driver.
      [
        (After_txns 2, Fail 1);
        (After_txns 1, Fail 2);
        (After_txns 4, Recover 1);
        (At_ms 0.0, Recover 2);
      ]
  in
  let d = make_driver ~plan () in
  let c = Driver.cluster d in
  let step_then expected what =
    ignore (Driver.step d);
    Alcotest.check ints what expected (down c)
  in
  step_then [] "step 1: nothing due";
  step_then [] "step 2: the due second entry waits for the first";
  step_then [ 1; 2 ] "step 3: both failures fire, in order";
  step_then [ 1; 2 ] "step 4: recovery not yet due";
  step_then [] "step 5: both recoveries fire";
  Alcotest.(check int) "recoveries tallied" 2 (Driver.recovered d);
  Cluster.fail_site c 1;
  step_then [ 1 ] "entries fire once: the spent plan leaves site 1 down";
  Alcotest.(check int) "submitted" 6 (Driver.submitted d);
  Alcotest.(check int) "tallies add up" 6 (Driver.committed d + Driver.aborted d)

(* A virtual-time entry fires at the first step that starts at or after
   its time, and not before. *)
let test_plan_at_ms () =
  let d = make_driver ~plan:Driver.[ (At_ms 500.0, Fail 3) ] () in
  let c = Driver.cluster d in
  let now () = Vtime.to_ms (Engine.now (Cluster.engine c)) in
  let rec loop () =
    let started = now () in
    ignore (Driver.step d);
    if started < 500.0 then begin
      Alcotest.check ints (Printf.sprintf "step at %.1f ms: not yet" started) [] (down c);
      loop ()
    end
    else Alcotest.check ints "fired at the first step due" [ 3 ] (down c)
  in
  loop ()

let test_no_operational_site () =
  let d = make_driver ~num_sites:2 () in
  let c = Driver.cluster d in
  Cluster.fail_site c 0;
  Cluster.fail_site c 1;
  Alcotest.check_raises "raises" Driver.No_operational_site (fun () -> ignore (Driver.step d));
  Alcotest.(check int) "nothing submitted" 0 (Driver.submitted d);
  Alcotest.(check int) "no id drawn" 1 (Cluster.next_txn_id c)

(* A one-transaction tenant stream fires both of its plan entries
   before that transaction, so its victim fails and recovers. *)
let test_multi_one_txn_plan () =
  let result =
    Raid_multi.run (Raid_multi.spec ~tenants:3 ~shards:1 ~sites:4 ~txns:1 ~fail_every:1 ())
  in
  Array.iter
    (fun (r : Raid_multi.tenant_result) ->
      Alcotest.(check int) (Printf.sprintf "tenant %d submitted" r.Raid_multi.tenant) 1
        r.Raid_multi.submitted;
      Alcotest.(check int) (Printf.sprintf "tenant %d recovered" r.Raid_multi.tenant) 1
        r.Raid_multi.recovered)
    result.Raid_multi.results

let suite =
  [
    QCheck_alcotest.to_alcotest prop_operational_matches;
    Alcotest.test_case "blocked then unblocked, immediate" `Quick
      (test_blocked_then_unblocked Cluster.fail_site);
    Alcotest.test_case "blocked then unblocked, timeout" `Quick
      (test_blocked_then_unblocked Cluster.crash_site_now);
    Alcotest.test_case "blocked then retried, immediate" `Quick
      (test_blocked_then_retried Cluster.fail_site);
    Alcotest.test_case "blocked then retried, timeout" `Quick
      (test_blocked_then_retried Cluster.crash_site_now);
    Alcotest.test_case "plan fires in order, once each" `Quick test_plan_order_and_once;
    Alcotest.test_case "plan fires at virtual time" `Quick test_plan_at_ms;
    Alcotest.test_case "no operational site" `Quick test_no_operational_site;
    Alcotest.test_case "multi: one-txn plan recovers" `Quick test_multi_one_txn_plan;
  ]
