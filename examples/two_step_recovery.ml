(* The paper's §3.2 proposal: two-step recovery.

   Step one refreshes out-of-date copies passively (writes and on-demand
   copiers); once the fail-locked fraction drops below a threshold, step
   two proactively issues batch copier transactions.  This example runs
   the same outage under both policies and prints the difference.

   Run with: dune exec examples/two_step_recovery.exe *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Scenario = Raid_sim.Scenario
module Runner = Raid_sim.Runner
module Experiment2 = Raid_sim.Experiment2

let run ~label ~recovery =
  let config = Config.make ~recovery ~num_sites:2 ~num_items:50 () in
  let scenario =
    Scenario.make ~policy:(Scenario.Fixed 1) ~seed:30 ~config
      ~workload:(Workload.Uniform { max_ops = 5; write_prob = 0.5 })
      (Scenario.outage
         ~route:(Scenario.Weighted [ (0, 0.5); (1, 0.5) ])
         ~site:0 ~down_txns:100 ~max_recovery_txns:1500 ())
  in
  let result = Runner.run scenario in
  let metrics = Cluster.metrics result.Runner.cluster in
  let stats, _ = Experiment2.recovery result ~site:0 ~down_txns:100 in
  Printf.printf "%-44s | %9d | %7d | %6d\n" label stats.Experiment2.txns_to_recover
    metrics.Metrics.copier_requests metrics.Metrics.batch_copier_rounds

let () =
  Printf.printf "%-44s | %9s | %7s | %6s\n" "recovery policy" "txns" "copiers" "rounds";
  Printf.printf "%s\n" (String.make 76 '-');
  run ~label:"on-demand (the paper's implementation)" ~recovery:Config.On_demand;
  run ~label:"two-step: batch once 30% or less locked"
    ~recovery:(Config.Two_step { threshold = 0.3; batch_size = 5 });
  run ~label:"two-step: batch immediately"
    ~recovery:(Config.Two_step { threshold = 1.0; batch_size = 10 });
  print_newline ();
  print_endline
    "Batching shortens the vulnerable window in which a second failure could\n\
     leave the last up-to-date copy unreachable (the aborts of Figure 2)."
