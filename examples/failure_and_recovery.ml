(* A narrated replay of the paper's Experiment 2 (Figure 1): watch
   fail-locks accumulate while a site is down and drain as it recovers.

   Run with: dune exec examples/failure_and_recovery.exe *)

module Scenario = Raid_sim.Scenario
module Runner = Raid_sim.Runner
module Config = Raid_core.Config
module Workload = Raid_core.Workload

let () =
  let config = Config.make ~num_sites:2 ~num_items:50 () in
  let scenario =
    Scenario.make ~policy:(Scenario.Fixed 1) ~seed:15 ~config
      ~workload:(Workload.Uniform { max_ops = 5; write_prob = 0.5 })
      (Scenario.outage
         ~route:(Scenario.Weighted [ (0, 0.05); (1, 0.95) ])
         ~site:0 ~down_txns:100 ~max_recovery_txns:1000 ())
  in
  let result = Runner.run scenario in
  print_endline "txn  | locks for site 0 | note";
  print_endline "-----+------------------+---------------------------";
  List.iter
    (fun record ->
      let index = record.Runner.index in
      let locks = record.Runner.faillocks_per_site.(0) in
      let note =
        if index = 1 then "site 0 failed before txn 1"
        else if index = 101 then "site 0 recovered before txn 101"
        else if locks = 0 && index > 100 then "fully recovered"
        else if record.Runner.outcome.Raid_core.Metrics.copier_requests > 0 then
          Printf.sprintf "%d copier txn(s)" record.Runner.outcome.Raid_core.Metrics.copier_requests
        else ""
      in
      (* Print the interesting rows: every 10th, plus events. *)
      if index mod 10 = 0 || note <> "" then Printf.printf "%4d | %16d | %s\n" index locks note)
    result.Runner.records;
  Printf.printf "\ntransactions processed: %d (aborted: %d)\n"
    (List.length result.Runner.records) result.Runner.aborted;
  Printf.printf "cluster fully consistent: %b\n"
    (Raid_core.Cluster.fully_consistent result.Runner.cluster)
