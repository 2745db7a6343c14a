module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Chart = Raid_util.Chart
module Table = Raid_util.Table

type stats = {
  peak_faillocks : int;
  peak_fraction : float;
  txns_to_recover : int;
  copier_requests : int;
  first_10_cleared_in : int option;
  last_10_cleared_in : int option;
  aborted : int;
}

type t = { result : Runner.result; stats : stats; series : (float * float) list }

let paper_workload = Workload.Uniform { max_ops = 5; write_prob = 0.5 }

let scenario ?(seed = 15) ?(recovering_weight = 0.05) ?(max_recovery_txns = 1200) () =
  let config = Config.make ~num_sites:2 ~num_items:50 () in
  Scenario.make ~policy:(Scenario.Fixed 1) ~seed ~config ~workload:paper_workload
    (Scenario.outage
       ~route:(Scenario.Weighted [ (0, recovering_weight); (1, 1.0 -. recovering_weight) ])
       ~site:0 ~down_txns:100 ~max_recovery_txns ())

let recovery (result : Runner.result) ~site ~down_txns =
  let locks r = r.Runner.faillocks_per_site.(site) in
  let recovery_records = List.filter (fun r -> r.Runner.index > down_txns) result.Runner.records in
  (* A down site's locks only grow, so the count after the outage's last
     transaction is the peak. *)
  let peak_faillocks =
    match List.find_opt (fun r -> r.Runner.index = down_txns) result.Runner.records with
    | Some r -> locks r
    | None -> 0
  in
  let txns_to_recover =
    match List.rev result.Runner.records with
    | [] -> 0
    | last :: _ -> max 0 (last.Runner.index - down_txns)
  in
  let count_while predicate =
    List.length (List.filter (fun r -> predicate (locks r)) recovery_records)
  in
  let first_10_cleared_in =
    if peak_faillocks < 10 then None
    else Some (count_while (fun l -> l > peak_faillocks - 10))
  in
  let last_10_cleared_in = if peak_faillocks < 10 then None else Some (count_while (fun l -> l < 10)) in
  let copier_requests =
    List.fold_left (fun acc r -> acc + r.Runner.outcome.Raid_core.Metrics.copier_requests) 0
      recovery_records
  in
  let num_items = (Raid_core.Cluster.config result.Runner.cluster).Config.num_items in
  ( {
      peak_faillocks;
      peak_fraction = float_of_int peak_faillocks /. float_of_int num_items;
      txns_to_recover;
      copier_requests;
      first_10_cleared_in;
      last_10_cleared_in;
      aborted = result.Runner.aborted;
    },
    Runner.series result ~site )

let run ?seed ?recovering_weight ?max_recovery_txns () =
  let result = Runner.run (scenario ?seed ?recovering_weight ?max_recovery_txns ()) in
  let stats, series = recovery result ~site:0 ~down_txns:100 in
  { result; stats; series }

let figure t =
  let chart =
    Chart.create ~title:"Figure 1: data availability during failure and recovery (db=50, txn<=5)"
      ~x_label:"number of transactions" ~y_label:"fail-locks set (site 0)" ()
  in
  Chart.add_series chart { Chart.label = "site 0"; glyph = '*'; points = t.series };
  chart

let summary_table t =
  let table =
    Table.create ~title:"Experiment 2 summary"
      [ ("statistic", Table.Left); ("paper", Table.Right); ("measured", Table.Right) ]
  in
  let opt = function None -> "-" | Some v -> string_of_int v in
  Table.add_row table
    [ "fail-locked fraction at peak"; "> 90%"; Printf.sprintf "%.0f%%" (t.stats.peak_fraction *. 100.) ];
  Table.add_row table
    [ "transactions to complete recovery"; "160"; string_of_int t.stats.txns_to_recover ];
  Table.add_row table [ "copier transactions requested"; "2"; string_of_int t.stats.copier_requests ];
  Table.add_row table
    [ "transactions to clear first 10 locks"; "6"; opt t.stats.first_10_cleared_in ];
  Table.add_row table
    [ "transactions to clear last 10 locks"; "106"; opt t.stats.last_10_cleared_in ];
  Table.add_row table [ "aborted transactions"; "0"; string_of_int t.stats.aborted ];
  table
