module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Chart = Raid_util.Chart
module Table = Raid_util.Table

type t = {
  result : Runner.result;
  series : (int * (float * float) list) list;
  aborted : int;
  paper_aborts : int;
}

let paper_workload = Workload.Uniform { max_ops = 5; write_prob = 0.5 }

let build ~paper_aborts scenario =
  let result = Runner.run scenario in
  let num_sites = scenario.Scenario.config.Config.num_sites in
  let series = List.init num_sites (fun site -> (site, Runner.series result ~site)) in
  { result; series; aborted = result.Runner.aborted; paper_aborts }

let scenario1_scenario ?(seed = 43) () =
  let config = Config.make ~num_sites:2 ~num_items:50 () in
  Scenario.make ~policy:Scenario.Uniform_random ~seed ~config ~workload:paper_workload
    [
      Scenario.Fail 0;
      Scenario.Run_txns 25;
      Scenario.Recover 0;
      Scenario.Fail 1;
      Scenario.Run_txns 25;
      Scenario.Recover 1;
      Scenario.Run_txns 70;
    ]

let scenario2_scenario ?(seed = 43) () =
  let config = Config.make ~num_sites:4 ~num_items:50 () in
  Scenario.make ~policy:Scenario.Uniform_random ~seed ~config ~workload:paper_workload
    [
      Scenario.Fail 0;
      Scenario.Run_txns 25;
      Scenario.Recover 0;
      Scenario.Fail 1;
      Scenario.Run_txns 25;
      Scenario.Recover 1;
      Scenario.Fail 2;
      Scenario.Run_txns 25;
      Scenario.Recover 2;
      Scenario.Fail 3;
      Scenario.Run_txns 25;
      Scenario.Recover 3;
      Scenario.Run_txns 60;
    ]

let scenario1 ?seed () = build ~paper_aborts:13 (scenario1_scenario ?seed ())

let scenario2 ?seed () = build ~paper_aborts:0 (scenario2_scenario ?seed ())

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let figure ~title t =
  let chart =
    Chart.create ~title ~x_label:"number of transactions" ~y_label:"fail-locks set" ()
  in
  List.iter
    (fun (site, points) ->
      Chart.add_series chart
        {
          Chart.label = Printf.sprintf "site %d" site;
          glyph = glyphs.(site mod Array.length glyphs);
          points;
        })
    t.series;
  chart

let summary_table ~title t =
  let table =
    Table.create ~title [ ("statistic", Table.Left); ("paper", Table.Right); ("measured", Table.Right) ]
  in
  Table.add_row table
    [ "aborted transactions"; string_of_int t.paper_aborts; string_of_int t.aborted ];
  Table.add_row table
    [
      "committed transactions";
      "-";
      string_of_int t.result.Runner.committed;
    ];
  List.iter
    (fun (site, _) ->
      Table.add_row table
        [
          Printf.sprintf "final fail-locks for site %d" site;
          "0";
          string_of_int (Runner.final_faillocks t.result ~site);
        ])
    t.series;
  table
