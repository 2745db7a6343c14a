(* Endurance ("soak") tests: larger clusters, every extension enabled at
   once, long random schedules — the closest thing to running the full
   system in production.  All invariants must hold throughout (the runner
   checks after every action) and the cluster must converge at the end. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Driver = Raid_core.Driver
module Invariant = Raid_core.Invariant
module Workload = Raid_core.Workload
module Scenario = Raid_sim.Scenario
module Runner = Raid_sim.Runner
module Rng = Raid_util.Rng

let churn_actions ~rng ~num_sites ~rounds =
  (* Rolling churn: each round fails a random site, runs traffic, brings
     it back, runs more traffic.  Never kills the last survivor. *)
  List.concat_map
    (fun _ ->
      let victim = Rng.int rng num_sites in
      [
        Scenario.Fail victim;
        Scenario.Run_txns (10 + Rng.int rng 20);
        Scenario.Recover victim;
        Scenario.Run_txns (10 + Rng.int rng 20);
      ])
    (List.init rounds Fun.id)

let run_soak ~config ~seed ~rounds =
  let rng = Rng.create (seed * 31) in
  let actions =
    churn_actions ~rng ~num_sites:config.Config.num_sites ~rounds
    @ [ Scenario.Run_until_consistent { max_txns = 5000 } ]
  in
  let scenario =
    Scenario.make ~seed ~config
      ~workload:(Workload.Uniform { max_ops = 6; write_prob = 0.4 })
      actions
  in
  (* The runner verifies the protocol invariants after every single
     action. *)
  Runner.run scenario

let test_eight_sites_everything_on () =
  let config =
    Config.make ~cost:Cost_model.free
      ~recovery:(Config.Two_step { threshold = 0.4; batch_size = 10 })
      ~durability:(Config.Durable_wal { checkpoint_interval = 32 })
      ~embed_clears:true ~num_sites:8 ~num_items:120 ()
  in
  let result = run_soak ~config ~seed:101 ~rounds:12 in
  Alcotest.(check bool) "converged" true (Cluster.fully_consistent result.Runner.cluster);
  Alcotest.(check bool) "substantial traffic" true (result.Runner.committed > 200)

let test_partial_replication_soak () =
  let num_sites = 6 and num_items = 90 in
  (* three copies per item, on consecutive sites *)
  let placement =
    Raid_core.Placement.spec ~sharding:Raid_core.Placement.Modular ~factor:3 ()
  in
  let config =
    Config.make ~cost:Cost_model.free
      ~replication:(Config.Partial placement)
      ~spawn_backups:true ~num_sites ~num_items ()
  in
  let result = run_soak ~config ~seed:202 ~rounds:10 in
  (* With three copies and single-site churn, nothing should abort. *)
  Alcotest.(check int) "no aborts" 0 result.Runner.aborted;
  Alcotest.(check bool) "substantial traffic" true (result.Runner.committed > 200)

(* The same churn with crashes nobody announces.  The runner's [Fail]
   tells a survivor, so the schedule is walked here, the way the runner
   walks it (same seeds, coordinators drawn by the driver, invariants
   after every action), with [Cluster.crash_site_now] in its place. *)
let test_unannounced_crash_soak () =
  let config = Config.make ~cost:Cost_model.free ~num_sites:5 ~num_items:60 () in
  let cluster = Cluster.create config in
  let rng = Rng.create 303 in
  let workload =
    Workload.create (Workload.Uniform { max_ops = 5; write_prob = 0.5 }) ~num_items:60
      ~rng:(Rng.split rng)
  in
  let driver = Driver.create cluster ~workload ~rng in
  let run_txns n =
    for _ = 1 to n do
      ignore (Driver.step driver)
    done
  in
  let rec until_consistent budget =
    if budget > 0 && not (Cluster.fully_consistent cluster) then begin
      run_txns 1;
      until_consistent (budget - 1)
    end
  in
  let apply = function
    | Scenario.Fail site -> Cluster.crash_site_now cluster site
    | Scenario.Recover site -> ignore (Cluster.recover_site cluster site)
    | Scenario.Run_txns n -> run_txns n
    | Scenario.Run_until_consistent { max_txns } -> until_consistent max_txns
    | Scenario.Set_policy _ | Scenario.Run_until_recovered _ -> invalid_arg "not a churn action"
  in
  List.iter
    (fun action ->
      apply action;
      match Invariant.all cluster with
      | Ok () -> ()
      | Error message -> Alcotest.failf "invariant violated: %s" message)
    (churn_actions ~rng:(Rng.create 99) ~num_sites:5 ~rounds:10
    @ [ Scenario.Run_until_consistent { max_txns = 5000 } ]);
  Alcotest.(check bool) "converged" true (Cluster.fully_consistent cluster);
  (* Undetected failures cost some aborts, but the system always recovers. *)
  Alcotest.(check bool) "bounded aborts" true (Driver.aborted driver <= 12)

let test_sixteen_site_scale () =
  let config = Config.make ~cost:Cost_model.free ~num_sites:16 ~num_items:200 () in
  let result = run_soak ~config ~seed:404 ~rounds:8 in
  Alcotest.(check bool) "converged at 16 sites" true
    (Cluster.fully_consistent result.Runner.cluster)

let suite =
  [
    Alcotest.test_case "8 sites, every extension on" `Slow test_eight_sites_everything_on;
    Alcotest.test_case "partial replication churn" `Slow test_partial_replication_soak;
    Alcotest.test_case "timeout-detection churn" `Slow test_unannounced_crash_soak;
    Alcotest.test_case "16-site scale" `Slow test_sixteen_site_scale;
  ]
