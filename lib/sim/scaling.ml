module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Stats = Raid_util.Stats
module Table = Raid_util.Table
module Pool = Raid_par.Pool

type control1_row = {
  num_sites : int;
  num_items : int;
  recovering_ms : float;
  operational_ms : float;
  control2_ms : float;
}

let mean_of = function [] -> Float.nan | samples -> Stats.mean samples

let control1_once ~seed ~num_sites ~num_items =
  let config = Config.make ~num_sites ~num_items () in
  let scenario =
    Scenario.make ~policy:(Scenario.Fixed 0) ~seed ~config
      ~workload:(Workload.Uniform { max_ops = 5; write_prob = 0.5 })
      (Scenario.cycles ~cycles:10 ~site:(num_sites - 1) ~down_txns:2 ~max_txns:200 ())
  in
  let result = Runner.run scenario in
  let metrics = Cluster.metrics result.Runner.cluster in
  {
    num_sites;
    num_items;
    recovering_ms = mean_of (Metrics.Samples.to_list metrics.Metrics.control1_recovering_ms);
    operational_ms = mean_of (Metrics.Samples.to_list metrics.Metrics.control1_operational_ms);
    control2_ms = mean_of (Metrics.Samples.to_list metrics.Metrics.control2_ms);
  }

(* Default site counts reach 64: the bitset/array hot path makes the
   large-cluster rows affordable, and the control-1 trend the paper
   predicts (recovering cost grows with sites) only shows clearly past
   16.  Tier-1 tests pass explicit small [site_counts]. *)
let control1_scaling ?domains ?(seed = 31) ?(site_counts = [ 2; 4; 8; 16; 32; 64 ])
    ?(item_counts = [ 50; 200; 800 ]) () =
  let cases =
    List.map (fun num_sites -> (num_sites, 50)) site_counts
    @ List.map (fun num_items -> (4, num_items)) item_counts
  in
  Pool.map ?domains (fun (num_sites, num_items) -> control1_once ~seed ~num_sites ~num_items) cases

let fmt_ms v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v

let control1_table rows =
  let table =
    Table.create
      ~title:
        "Control transaction scaling (paper \xc2\xa72.2.2: type-1-recovering grows with sites, \
         type-1-operational with database size, type 2 with neither)"
      [
        ("sites", Table.Right);
        ("items", Table.Right);
        ("type 1 @ recovering (ms)", Table.Right);
        ("type 1 @ operational (ms)", Table.Right);
        ("type 2 (ms)", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.num_sites;
          string_of_int r.num_items;
          fmt_ms r.recovering_ms;
          fmt_ms r.operational_ms;
          fmt_ms r.control2_ms;
        ])
    rows;
  table

type seed_summary = {
  seeds : int;
  peak : Stats.summary;
  recovery_txns : Stats.summary;
  copiers : Stats.summary;
  first_10 : Stats.summary;
  last_10 : Stats.summary;
}

let experiment2_seeds ?domains ?(seeds = List.init 25 (fun i -> i + 1))
    ?(recovering_weight = 0.05) () =
  let runs = Pool.map ?domains (fun seed -> Experiment2.run ~seed ~recovering_weight ()) seeds in
  let stat f = Stats.summarize (List.map (fun r -> f r.Experiment2.stats) runs) in
  {
    seeds = List.length seeds;
    peak = stat (fun s -> float_of_int s.Experiment2.peak_faillocks);
    recovery_txns = stat (fun s -> float_of_int s.Experiment2.txns_to_recover);
    copiers = stat (fun s -> float_of_int s.Experiment2.copier_requests);
    first_10 =
      stat (fun s -> float_of_int (Option.value ~default:0 s.Experiment2.first_10_cleared_in));
    last_10 =
      stat (fun s -> float_of_int (Option.value ~default:0 s.Experiment2.last_10_cleared_in));
  }

let experiment2_seeds_table summary =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Experiment 2 across %d seeds (the paper reports one run; paper values: peak >45, \
            recovery 160, copiers 2, first-10 6, last-10 106)"
           summary.seeds)
      [
        ("statistic", Table.Left);
        ("mean", Table.Right);
        ("sd", Table.Right);
        ("min", Table.Right);
        ("max", Table.Right);
      ]
  in
  let add name (s : Stats.summary) =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.1f" s.Stats.mean;
        Printf.sprintf "%.1f" s.Stats.stddev;
        Printf.sprintf "%.0f" s.Stats.min;
        Printf.sprintf "%.0f" s.Stats.max;
      ]
  in
  add "peak fail-locks (of 50)" summary.peak;
  add "transactions to recover" summary.recovery_txns;
  add "copier transactions" summary.copiers;
  add "txns to clear first 10" summary.first_10;
  add "txns to clear last 10" summary.last_10;
  table

type cluster_size_row = {
  cs_sites : int;
  cs_peak : int;
  cs_recovery_txns : int;
  cs_copiers : int;
}

let recovery_vs_cluster_size ?domains ?(seed = 33) ?(site_counts = [ 2; 4; 8 ]) () =
  let run num_sites =
    let config = Config.make ~num_sites ~num_items:50 () in
    let scenario =
      Scenario.make ~policy:Scenario.Uniform_random ~seed ~config
        ~workload:(Workload.Uniform { max_ops = 5; write_prob = 0.5 })
        (Scenario.outage ~site:0 ~down_txns:100 ~max_recovery_txns:2000 ())
    in
    let result = Runner.run scenario in
    let stats, _ = Experiment2.recovery result ~site:0 ~down_txns:100 in
    {
      cs_sites = num_sites;
      cs_peak = stats.Experiment2.peak_faillocks;
      cs_recovery_txns = stats.Experiment2.txns_to_recover;
      cs_copiers = (Cluster.metrics result.Runner.cluster).Metrics.copier_requests;
    }
  in
  Pool.map ?domains run site_counts

let cluster_size_table rows =
  let table =
    Table.create
      ~title:"Experiment-2 schedule at different cluster sizes (the paper used 2 sites)"
      [
        ("sites", Table.Right);
        ("peak locks (site 0)", Table.Right);
        ("txns to recover", Table.Right);
        ("copiers", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.cs_sites;
          string_of_int r.cs_peak;
          string_of_int r.cs_recovery_txns;
          string_of_int r.cs_copiers;
        ])
    rows;
  table

type partial_row = {
  ps_sites : int;
  ps_factor : int;
  ps_committed : int;
  ps_aborted : int;
  ps_txns_per_vsec : float;
  ps_events : int;
  ps_messages : int;
}

(* Write-all-available touches every site per write, so under full
   replication adding sites adds work per transaction and committed
   throughput stays flat (or falls).  With k-holder placement a write
   touches k sites regardless of cluster size, so independent shards mean
   throughput grows with the site count — the break in the wall this
   sweep demonstrates.  The full-replication baseline runs only at the
   smallest site count: a dense database at 1024 x 10^5 would be the very
   cost the placement layer exists to avoid. *)
let partial_scaling ?domains ?(seed = 47) ?(site_counts = [ 64; 256; 512; 1024 ])
    ?(items = 100_000) ?(factor = 3) ?(zipf_theta = 0.9) ?(duration_ms = 1_000.0) () =
  (match site_counts with [] -> invalid_arg "Scaling: site_counts must be non-empty" | _ -> ());
  let case (sites, replication) =
    let config =
      Throughput.make_config ~sites ~items ~duration_ms ~replication ~zipf_theta ()
    in
    let r = Throughput.run ~seed config in
    {
      ps_sites = sites;
      ps_factor =
        (match replication with
        | Config.Full -> 0
        | Config.Partial s -> s.Raid_core.Placement.factor);
      ps_committed = r.Throughput.committed;
      ps_aborted = r.Throughput.aborted;
      ps_txns_per_vsec = Throughput.txns_per_vsec r;
      ps_events = r.Throughput.events;
      ps_messages = r.Throughput.messages_sent;
    }
  in
  let spec = Raid_core.Placement.spec ~factor () in
  let cases =
    (List.hd site_counts, Config.Full)
    :: List.map (fun sites -> (sites, Config.Partial spec)) site_counts
  in
  Pool.map ?domains case cases

let partial_scaling_table rows =
  let table =
    Table.create
      ~title:
        "Partial replication scaling: k-holder placement vs the write-all-available wall \
         (k=0 means full replication)"
      [
        ("sites", Table.Right);
        ("k", Table.Right);
        ("committed", Table.Right);
        ("aborted", Table.Right);
        ("txns/vsec", Table.Right);
        ("events", Table.Right);
        ("messages", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.ps_sites;
          string_of_int r.ps_factor;
          string_of_int r.ps_committed;
          string_of_int r.ps_aborted;
          Printf.sprintf "%.1f" r.ps_txns_per_vsec;
          string_of_int r.ps_events;
          string_of_int r.ps_messages;
        ])
    rows;
  table

type scenario1_summary = { s1_seeds : int; aborts : Stats.summary }

let scenario1_seeds ?domains ?(seeds = List.init 25 (fun i -> i + 1)) () =
  let aborts =
    Pool.map ?domains
      (fun seed -> float_of_int (Experiment3.scenario1 ~seed ()).Experiment3.aborted)
      seeds
  in
  { s1_seeds = List.length seeds; aborts = Stats.summarize aborts }

let scenario1_seeds_table summary =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Experiment 3 scenario 1 aborts across %d seeds (paper reports 13 in one run)"
           summary.s1_seeds)
      [ ("statistic", Table.Left); ("value", Table.Right) ]
  in
  Table.add_row table [ "mean aborts"; Printf.sprintf "%.1f" summary.aborts.Stats.mean ];
  Table.add_row table [ "sd"; Printf.sprintf "%.1f" summary.aborts.Stats.stddev ];
  Table.add_row table
    [ "range"; Printf.sprintf "%.0f-%.0f" summary.aborts.Stats.min summary.aborts.Stats.max ];
  table
