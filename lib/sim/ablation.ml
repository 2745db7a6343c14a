module Cluster = Raid_core.Cluster
module Driver = Raid_core.Driver
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Txn = Raid_core.Txn
module Table = Raid_util.Table
module Rng = Raid_util.Rng
module Stats = Raid_util.Stats
module Protocol = Raid_baselines.Protocol

type table = Table.t

let paper_workload = Workload.Uniform { max_ops = 5; write_prob = 0.5 }

(* The Experiment-2 schedule (site 0 down for 100 transactions), with
   coordinators alternating between the two sites once it is back.  The
   copier column reads the cluster's metrics, which under two-step
   recovery also count batch-round requests. *)
let alternating_outage ~seed ~config ~workload ~max_recovery_txns =
  let scenario =
    Scenario.make ~policy:(Scenario.Fixed 1) ~seed ~config ~workload
      (Scenario.outage
         ~route:(Scenario.Weighted [ (0, 0.5); (1, 0.5) ])
         ~site:0 ~down_txns:100 ~max_recovery_txns ())
  in
  let result = Runner.run scenario in
  (fst (Experiment2.recovery result ~site:0 ~down_txns:100), Cluster.metrics result.Runner.cluster)

(* {2 A1: two-step recovery} *)

type recovery_row = {
  policy_label : string;
  txns_to_recover : int;
  copier_requests : int;
  batch_rounds : int;
}

let two_step_recovery ?(seed = 21) () =
  let run ~label ~recovery =
    let config = Config.make ~recovery ~num_sites:2 ~num_items:50 () in
    let stats, metrics =
      alternating_outage ~seed ~config ~workload:paper_workload ~max_recovery_txns:1500
    in
    {
      policy_label = label;
      txns_to_recover = stats.Experiment2.txns_to_recover;
      copier_requests = metrics.Metrics.copier_requests;
      batch_rounds = metrics.Metrics.batch_copier_rounds;
    }
  in
  let rows =
    [
      run ~label:"on-demand (paper)" ~recovery:Config.On_demand;
      run ~label:"two-step, threshold 30%, batch 5"
        ~recovery:(Config.Two_step { threshold = 0.3; batch_size = 5 });
      run ~label:"two-step, immediate batch (threshold 100%), batch 10"
        ~recovery:(Config.Two_step { threshold = 1.0; batch_size = 10 });
    ]
  in
  let table =
    Table.create ~title:"Ablation A1: two-step recovery (paper \xc2\xa73.2 proposal)"
      [
        ("recovery policy", Table.Left);
        ("txns to full recovery", Table.Right);
        ("copier requests", Table.Right);
        ("batch rounds", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.policy_label;
          string_of_int r.txns_to_recover;
          string_of_int r.copier_requests;
          string_of_int r.batch_rounds;
        ])
    rows;
  (rows, table)

(* {2 A2: read/write ratio} *)

type rw_row = {
  write_prob : float;
  peak_locked : int;
  rw_txns_to_recover : int;
  rw_copiers : int;
}

let rw_ratio ?(seed = 22) ?(write_probs = [ 0.1; 0.25; 0.5; 0.75; 0.9 ]) () =
  let run write_prob =
    let config = Config.make ~num_sites:2 ~num_items:50 () in
    let stats, metrics =
      alternating_outage ~seed ~config
        ~workload:(Workload.Uniform { max_ops = 5; write_prob })
        ~max_recovery_txns:4000
    in
    {
      write_prob;
      peak_locked = stats.Experiment2.peak_faillocks;
      rw_txns_to_recover = stats.Experiment2.txns_to_recover;
      rw_copiers = metrics.Metrics.copier_requests;
    }
  in
  let rows = List.map run write_probs in
  let table =
    Table.create
      ~title:"Ablation A2: read/write ratio (paper \xc2\xa75 discussion; paper uses P(write)=0.5)"
      [
        ("P(write)", Table.Right);
        ("locks after 100-txn outage", Table.Right);
        ("txns to full recovery", Table.Right);
        ("copier requests", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Printf.sprintf "%.2f" r.write_prob;
          string_of_int r.peak_locked;
          string_of_int r.rw_txns_to_recover;
          string_of_int r.rw_copiers;
        ])
    rows;
  (rows, table)

(* {2 A3: coordinator placement during recovery} *)

type placement_row = {
  recovering_weight : float;
  pl_txns_to_recover : int;
  pl_copiers : int;
}

let coordinator_placement ?(seed = 15) ?(weights = [ 0.0; 0.05; 0.25; 0.5; 1.0 ]) () =
  let run recovering_weight =
    let e2 = Experiment2.run ~seed ~recovering_weight () in
    {
      recovering_weight;
      pl_txns_to_recover = e2.Experiment2.stats.Experiment2.txns_to_recover;
      pl_copiers = e2.Experiment2.stats.Experiment2.copier_requests;
    }
  in
  let rows = List.map run weights in
  let table =
    Table.create
      ~title:
        "Ablation A3: share of recovery-period transactions routed to the recovering site \
         (Figure-1 routing inference)"
      [
        ("weight of recovering site", Table.Right);
        ("txns to full recovery", Table.Right);
        ("copier requests", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Printf.sprintf "%.2f" r.recovering_weight;
          string_of_int r.pl_txns_to_recover;
          string_of_int r.pl_copiers;
        ])
    rows;
  (rows, table)

(* {2 A4: embedding fail-lock clears in the commit protocol} *)

type embed_row = { embed_label : string; copier_txn_ms : float; specials_sent : int }

let copier_trials ~config ~seed ~trials =
  let cluster = Cluster.create config in
  let rng = Rng.create seed in
  for _ = 1 to trials do
    let locked_item = Rng.int rng 50 in
    Cluster.fail_site cluster 3;
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write locked_item ]));
    (match Cluster.recover_site cluster 3 with
    | `Recovered -> ()
    | `Blocked -> failwith "Ablation: recovery blocked");
    let tail =
      List.init
        (Rng.int_in rng 1 10 - 1)
        (fun _ ->
          let item = Rng.int rng 50 in
          if Rng.bool rng then Txn.Write item else Txn.Read item)
    in
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:3 (Txn.make ~id (Txn.Read locked_item :: tail)))
  done;
  Cluster.metrics cluster

let embed_clears ?(seed = 23) ?(trials = 100) () =
  let run ~label ~embed =
    let config = Config.make ~embed_clears:embed ~num_sites:4 ~num_items:50 () in
    let metrics = copier_trials ~config ~seed ~trials in
    {
      embed_label = label;
      copier_txn_ms = Stats.mean (Metrics.Samples.to_list metrics.Metrics.coordinator_copier_ms);
      specials_sent = metrics.Metrics.clear_specials_sent;
    }
  in
  let rows =
    [
      run ~label:"separate special transactions (paper)" ~embed:false;
      run ~label:"clears embedded in 2PC (paper \xc2\xa72.2.3 suggestion)" ~embed:true;
    ]
  in
  let table =
    Table.create ~title:"Ablation A4: clearing fail-locks after a copier transaction"
      [
        ("implementation", Table.Left);
        ("copier txn time (ms)", Table.Right);
        ("special txns sent", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ r.embed_label; Printf.sprintf "%.1f" r.copier_txn_ms; string_of_int r.specials_sent ])
    rows;
  (rows, table)

(* {2 A5: protocol availability comparison} *)

type protocol_row = {
  protocol_label : string;
  committed : int;
  aborted : int;
  avg_txn_ms : float;
  messages : int;
}

let protocol_availability ?(seed = 24) ?(txns = 200) () =
  let num_sites = 4 and num_items = 50 in
  let fail_at = (txns / 4) + 1 and recover_at = (3 * txns / 4) + 1 in
  let make_stream () =
    let rng = Rng.create seed in
    Workload.create paper_workload ~num_items ~rng
  in
  let rowaa () =
    let config = Config.make ~num_sites ~num_items () in
    let cluster = Cluster.create config in
    (* Every transaction is sent to site 0, so the driver's coordinator
       generator is never drawn from. *)
    let plan =
      Driver.[ (After_txns (fail_at - 1), Fail 3); (After_txns (recover_at - 1), Recover 3) ]
    in
    let driver = Driver.create ~plan cluster ~workload:(make_stream ()) ~rng:(Rng.create seed) in
    let elapsed = ref [] in
    let sent_before = (Raid_net.Engine.counters (Cluster.engine cluster)).Raid_net.Engine.sent in
    for _ = 1 to txns do
      let outcome = Driver.step ~coordinator:0 driver in
      if outcome.Metrics.committed then
        elapsed := Raid_net.Vtime.to_ms outcome.Metrics.elapsed :: !elapsed
    done;
    let sent_after = (Raid_net.Engine.counters (Cluster.engine cluster)).Raid_net.Engine.sent in
    {
      protocol_label = "ROWAA + fail-locks (this paper)";
      committed = Driver.committed driver;
      aborted = Driver.aborted driver;
      avg_txn_ms = Stats.mean !elapsed;
      messages = sent_after - sent_before - txns;
    }
  in
  let baseline ~label kind =
    let t = Protocol.create kind ~num_sites ~num_items () in
    let stream = make_stream () in
    let committed = ref 0 and aborted = ref 0 and elapsed = ref [] and messages = ref 0 in
    for i = 1 to txns do
      if i = fail_at then Protocol.fail_site t 3;
      if i = recover_at then Protocol.recover_site t 3;
      let outcome = Protocol.submit t ~coordinator:0 (Workload.next stream ~id:i) in
      messages := !messages + outcome.Protocol.messages;
      if outcome.Protocol.committed then begin
        incr committed;
        elapsed := Raid_net.Vtime.to_ms outcome.Protocol.elapsed :: !elapsed
      end
      else incr aborted
    done;
    {
      protocol_label = label;
      committed = !committed;
      aborted = !aborted;
      avg_txn_ms = Stats.mean !elapsed;
      messages = !messages;
    }
  in
  let rows =
    [
      rowaa ();
      baseline ~label:"strict read-one/write-all" Protocol.Strict_rowa;
      baseline ~label:"majority quorum (r=w=3)" (Protocol.majority ~num_sites);
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Ablation A5: availability under one site failure (txns %d-%d of %d with a site \
            down)"
           fail_at (recover_at - 1) txns)
      [
        ("protocol", Table.Left);
        ("committed", Table.Right);
        ("aborted", Table.Right);
        ("avg txn (ms)", Table.Right);
        ("messages", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.protocol_label;
          string_of_int r.committed;
          string_of_int r.aborted;
          Printf.sprintf "%.1f" r.avg_txn_ms;
          string_of_int r.messages;
        ])
    rows;
  (rows, table)

(* {2 A6: partial replication and control transaction type 3} *)

type partial_row = {
  spawn_label : string;
  pr_committed : int;
  pr_aborted : int;
  backups_spawned : int;
}

let partial_replication ?(seed = 25) () =
  let num_sites = 4 and num_items = 50 in
  (* two copies per item, on consecutive sites *)
  let spec =
    Raid_core.Placement.spec ~sharding:Raid_core.Placement.Modular ~factor:2 ()
  in
  let run ~label ~spawn_backups =
    let config =
      Config.make ~replication:(Config.Partial spec) ~spawn_backups ~num_sites ~num_items ()
    in
    let scenario =
      Scenario.make ~policy:(Scenario.Fixed 2) ~seed ~config ~workload:paper_workload
        [
          Scenario.Fail 0;
          Scenario.Run_txns 60;
          Scenario.Fail 1;
          Scenario.Run_txns 60;
          Scenario.Recover 0;
          Scenario.Recover 1;
          Scenario.Run_txns 30;
        ]
    in
    let result = Runner.run scenario in
    let metrics = Cluster.metrics result.Runner.cluster in
    {
      spawn_label = label;
      pr_committed = result.Runner.committed;
      pr_aborted = result.Runner.aborted;
      backups_spawned = metrics.Metrics.control3_backups;
    }
  in
  let rows =
    [
      run ~label:"no backups (types 1-2 only)" ~spawn_backups:false;
      run ~label:"control type 3 backup spawning" ~spawn_backups:true;
    ]
  in
  let table =
    Table.create
      ~title:
        "Ablation A6: partial replication (2 copies/item), overlapping failures of both \
         holders (paper \xc2\xa73.2 control-type-3 proposal)"
      [
        ("configuration", Table.Left);
        ("committed", Table.Right);
        ("aborted", Table.Right);
        ("backups spawned", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.spawn_label;
          string_of_int r.pr_committed;
          string_of_int r.pr_aborted;
          string_of_int r.backups_spawned;
        ])
    rows;
  (rows, table)

(* {2 A8: communication delays} *)

type latency_row = { latency_ms : float; lat_txn_ms : float; lat_control1_ms : float }

let communication_delays ?(seed = 26) ?(latencies_ms = [ 1.0; 9.0; 25.0; 50.0; 100.0 ]) () =
  let run latency_ms =
    let cost =
      { Raid_core.Cost_model.calibrated with
        Raid_core.Cost_model.message_latency = Raid_net.Vtime.of_ms_f latency_ms
      }
    in
    let config = Config.make ~cost ~num_sites:4 ~num_items:50 () in
    let scenario =
      Scenario.make ~policy:(Scenario.Fixed 0) ~seed ~config
        ~workload:(Workload.Uniform { max_ops = 10; write_prob = 0.5 })
        (Scenario.cycles ~before:5 ~cycles:8 ~site:3 ~down_txns:2 ~max_txns:80 ())
    in
    let result = Runner.run scenario in
    let metrics = Cluster.metrics result.Runner.cluster in
    let mean = function [] -> Float.nan | samples -> Stats.mean samples in
    {
      latency_ms;
      lat_txn_ms = mean (Metrics.Samples.to_list metrics.Metrics.coordinator_ms);
      lat_control1_ms = mean (Metrics.Samples.to_list metrics.Metrics.control1_recovering_ms);
    }
  in
  let rows = List.map run latencies_ms in
  let table =
    Table.create
      ~title:
        "Ablation A8: communication delays across machines (paper §5 future work; the paper measured 9 ms)"
      [
        ("message latency (ms)", Table.Right);
        ("db txn at coordinator (ms)", Table.Right);
        ("control-1 at recovering site (ms)", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Printf.sprintf "%.0f" r.latency_ms;
          Printf.sprintf "%.1f" r.lat_txn_ms;
          Printf.sprintf "%.1f" r.lat_control1_ms;
        ])
    rows;
  (rows, table)

(* {2 A9: benchmark workloads} *)

type workload_row = {
  workload_label : string;
  wl_peak_locked : int;
  wl_txns_to_recover : int;
  wl_copiers : int;
  wl_aborted : int;
}

let benchmark_workloads ?(seed = 27) () =
  let run (workload_label, workload) =
    let config = Config.make ~num_sites:2 ~num_items:50 () in
    let stats, metrics =
      alternating_outage ~seed ~config ~workload ~max_recovery_txns:4000
    in
    {
      workload_label;
      wl_peak_locked = stats.Experiment2.peak_faillocks;
      wl_txns_to_recover = stats.Experiment2.txns_to_recover;
      wl_copiers = metrics.Metrics.copier_requests;
      wl_aborted = stats.Experiment2.aborted;
    }
  in
  let rows =
    List.map run
      [
        ("uniform, P(write)=0.5 (the paper's)", Workload.Uniform { max_ops = 5; write_prob = 0.5 });
        ( "ET1 / DebitCredit [Anon85]",
          Workload.Et1 { branches = 2; tellers_per_branch = 4; accounts_per_branch = 20 } );
        ( "Wisconsin-style scan/update [Bitt83]",
          Workload.Wisconsin { scan_length = 6; update_ops = 2; scan_prob = 0.5 } );
      ]
  in
  let table =
    Table.create
      ~title:
        "Ablation A9: benchmark workloads on the Experiment-2 schedule (paper §5 future work)"
      [
        ("workload", Table.Left);
        ("locks after outage", Table.Right);
        ("txns to recover", Table.Right);
        ("copiers", Table.Right);
        ("aborted", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.workload_label;
          string_of_int r.wl_peak_locked;
          string_of_int r.wl_txns_to_recover;
          string_of_int r.wl_copiers;
          string_of_int r.wl_aborted;
        ])
    rows;
  (rows, table)

(* Each ablation is an independent deterministic study; the grid fans
   out one domain per study. *)
let all_tables ?domains ?(seed = 21) () =
  Raid_par.Pool.map ?domains
    (fun study -> study ())
    [
      (fun () -> snd (two_step_recovery ~seed ()));
      (fun () -> snd (rw_ratio ~seed:(seed + 1) ()));
      (fun () -> snd (coordinator_placement ()));
      (fun () -> snd (embed_clears ~seed:(seed + 2) ()));
      (fun () -> snd (protocol_availability ~seed:(seed + 3) ()));
      (fun () -> snd (partial_replication ~seed:(seed + 4) ()));
      (fun () -> snd (communication_delays ~seed:(seed + 5) ()));
      (fun () -> snd (benchmark_workloads ~seed:(seed + 6) ()));
    ]
