(* The `raid` command-line interface: run the paper's experiments, the
   ablation studies, or a custom failure/recovery scenario. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Placement = Raid_core.Placement
module Workload = Raid_core.Workload
module Scenario = Raid_sim.Scenario
module Runner = Raid_sim.Runner
module Observe = Raid_sim.Observe
module Table = Raid_util.Table
open Cmdliner

(* Shared [-j]/[--jobs] flag: independent simulation runs fan out over
   this many OCaml domains (Raid_par.Pool); results are identical for
   any value. *)
let jobs =
  let domain_count =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ -> Error (`Msg "domain count must be at least 1")
      | None -> Error (`Msg "expected an integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value & opt domain_count 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent simulations on $(docv) OCaml domains (default 1 = sequential). \
           Output is bit-identical for every value; use the number of cores for the fastest \
           sweep.")

let set_jobs n = Raid_par.Pool.set_default_domains n

(* One verb of the CLI.  [term] yields the verb's action; it runs under
   one guard, so a library [Invalid_argument] raised by bad user input
   is reported as [raid VERB: message] with exit code 2. *)
let verb name ~doc term =
  let guard action =
    try action ()
    with Invalid_argument message ->
      Printf.eprintf "raid %s: %s\n" name message;
      exit 2
  in
  Cmd.v (Cmd.info name ~doc) Term.(const guard $ term)

(* The observe verbs (trace, metrics, explain, incidents) replay one of
   [Observe.scenarios]; these are their shared terms. *)
let scenario_doc =
  String.concat "; "
    (List.map
       (fun (name, description) -> Printf.sprintf "$(b,%s): %s" name description)
       Observe.scenarios)

let scenario_name ~doc =
  Arg.(
    value & opt string "exp1"
    & info [ "scenario" ] ~docv:"SCENARIO" ~doc:(doc ^ " " ^ scenario_doc ^ "."))

let scenario_seed =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Override the scenario's default seed.")

let scenario_list =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"List the named scenarios (one per line with a description) and exit.")

let print_scenarios () =
  List.iter
    (fun (name, description) -> Printf.printf "%-24s %s\n" name description)
    Observe.scenarios

let named_scenario ?seed name =
  match Observe.scenario_of_name ?seed name with
  | Ok scenario -> scenario
  | Error message -> invalid_arg message

let output_file =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout.")

let write_output ~what out rendered =
  match out with
  | None -> print_string rendered
  | Some path ->
    Raid_sim.Export.write_file ~path rendered;
    Printf.printf "%s written to %s\n" what path

(* Item placement and skew, shared by throughput and serve.  The term
   yields a thunk so that an unknown sharding is reported by the verb's
   guard. *)
let placement =
  let factor =
    Arg.(
      value & opt int 0
      & info [ "replication-factor" ] ~docv:"K"
          ~doc:
            "Copies per item (k-holder placement).  0 keeps the paper's full replication; \
             K >= sites also degenerates to it.")
  in
  let sharding =
    Arg.(
      value & opt string "hash"
      & info [ "sharding" ] ~docv:"KIND"
          ~doc:
            "How $(b,--replication-factor) picks each item's primary holder: $(b,hash), \
             $(b,range) or $(b,modular).")
  in
  let zipf_theta =
    Arg.(
      value & opt (some float) None
      & info [ "zipf-theta" ] ~docv:"THETA"
          ~doc:
            "Zipfian item skew in (0,1) (YCSB's parameterisation; 0.99 is its default).  \
             Omitted: the paper's uniform item draw.")
  in
  let make factor sharding zipf_theta () =
    let replication =
      if factor = 0 then Config.Full
      else
        match Placement.sharding_of_string sharding with
        | Ok sharding -> Config.Partial (Placement.spec ~sharding ~factor ())
        | Error message -> invalid_arg message
    in
    (replication, zipf_theta)
  in
  Term.(const make $ factor $ sharding $ zipf_theta)

(* Cluster size and transaction mix, shared by throughput and serve. *)
let load =
  let sites =
    Arg.(value & opt int 16 & info [ "sites" ] ~docv:"N" ~doc:"Number of database sites.")
  in
  let items =
    Arg.(value & opt int 500 & info [ "items" ] ~docv:"N" ~doc:"Database size in data items.")
  in
  let max_ops =
    Arg.(
      value & opt int 5
      & info [ "max-ops" ] ~docv:"N" ~doc:"Maximum operations per transaction.")
  in
  let write_prob =
    Arg.(
      value & opt float 0.5
      & info [ "write-prob" ] ~docv:"P" ~doc:"Probability that an operation is a write.")
  in
  Term.(
    const (fun sites items max_ops write_prob -> (sites, items, max_ops, write_prob))
    $ sites $ items $ max_ops $ write_prob)

let print_exp1 () =
  List.iter
    (fun report ->
      Table.print (Raid_sim.Experiment1.to_table report);
      List.iter (fun note -> Printf.printf "  note: %s\n" note) report.Raid_sim.Experiment1.notes;
      print_newline ())
    (Raid_sim.Experiment1.all ())

let print_exp2 ?csv () =
  let e2 = Raid_sim.Experiment2.run () in
  Raid_util.Chart.print (Raid_sim.Experiment2.figure e2);
  print_newline ();
  Table.print (Raid_sim.Experiment2.summary_table e2);
  match csv with
  | None -> ()
  | Some path ->
    Raid_sim.Export.write_file ~path
      (Raid_sim.Export.series_csv ~header:("txn", "faillocks_site_0")
         e2.Raid_sim.Experiment2.series);
    Printf.printf "figure data exported to %s\n" path

let print_exp3 ?csv () =
  let s1 = Raid_sim.Experiment3.scenario1 () in
  Raid_util.Chart.print
    (Raid_sim.Experiment3.figure ~title:"Figure 2: database inconsistency (scenario 1)" s1);
  Table.print (Raid_sim.Experiment3.summary_table ~title:"Scenario 1 summary" s1);
  print_newline ();
  let s2 = Raid_sim.Experiment3.scenario2 () in
  Raid_util.Chart.print
    (Raid_sim.Experiment3.figure ~title:"Figure 3: database inconsistency (scenario 2)" s2);
  Table.print (Raid_sim.Experiment3.summary_table ~title:"Scenario 2 summary" s2);
  match csv with
  | None -> ()
  | Some path ->
    Raid_sim.Export.write_file ~path
      (Raid_sim.Export.multi_series_csv ~x_name:"txn"
         (List.map
            (fun (site, points) -> (Printf.sprintf "scenario2_site_%d" site, points))
            s2.Raid_sim.Experiment3.series));
    Printf.printf "figure data exported to %s\n" path

(* `raid exp N` *)
let exp_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("1", `One); ("2", `Two); ("3", `Three); ("all", `All) ])) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Which experiment to run: 1, 2, 3 or all.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the figure's series as CSV (experiments 2-3).")
  in
  let run which csv () =
    match which with
    | `One -> print_exp1 ()
    | `Two -> print_exp2 ?csv ()
    | `Three -> print_exp3 ?csv ()
    | `All ->
      print_exp1 ();
      print_exp2 ?csv ();
      print_exp3 ()
  in
  verb "exp" ~doc:"Reproduce one of the paper's experiments (tables and figures)."
    Term.(const run $ which $ csv)

(* `raid ablations` *)
let ablations_cmd =
  let run jobs () =
    set_jobs jobs;
    List.iter
      (fun table ->
        Table.print table;
        print_newline ())
      (Raid_sim.Ablation.all_tables ())
  in
  verb "ablations"
    ~doc:"Run the ablation studies listed in DESIGN.md (A1-A6, A8-A9; A7 via `concurrency`)."
    Term.(const run $ jobs)

(* `raid scaling` *)
let scaling_cmd =
  let partial =
    Arg.(
      value & flag
      & info [ "partial" ]
          ~doc:
            "Run only the partial-replication scaling sweep: zipfian throughput with k=3 \
             hash placement at 64-1024 sites over 10^5 items, against a full-replication \
             baseline at 64 sites.")
  in
  let run partial jobs () =
    set_jobs jobs;
    if partial then
      Table.print (Raid_sim.Scaling.partial_scaling_table (Raid_sim.Scaling.partial_scaling ()))
    else begin
      Table.print (Raid_sim.Scaling.control1_table (Raid_sim.Scaling.control1_scaling ()));
      print_newline ();
      let exp2_seeds = Raid_sim.Scaling.experiment2_seeds () in
      Table.print (Raid_sim.Scaling.experiment2_seeds_table exp2_seeds);
      print_newline ();
      Table.print (Raid_sim.Scaling.scenario1_seeds_table (Raid_sim.Scaling.scenario1_seeds ()));
      print_newline ();
      Table.print
        (Raid_sim.Scaling.cluster_size_table (Raid_sim.Scaling.recovery_vs_cluster_size ()));
      print_newline ();
      Table.print (Raid_sim.Analysis.comparison_table exp2_seeds);
      print_newline ();
      Raid_util.Chart.print (Raid_sim.Analysis.figure ())
    end
  in
  verb "scaling"
    ~doc:
      "Run the scaling and multi-seed robustness sweeps (control-1 scaling, Experiment-2 seed \
       sweep, cluster sizes, model comparison; $(b,--partial) for the partial-replication \
       sweep)."
    Term.(const run $ partial $ jobs)

(* `raid scenario` — a configurable single-outage scenario. *)
let scenario_cmd =
  let sites =
    Arg.(value & opt int 2 & info [ "sites" ] ~docv:"N" ~doc:"Number of database sites.")
  in
  let items =
    Arg.(value & opt int 50 & info [ "items" ] ~docv:"N" ~doc:"Hot-set size in data items.")
  in
  let max_ops =
    Arg.(
      value & opt int 5
      & info [ "max-ops" ] ~docv:"N" ~doc:"Maximum operations per transaction.")
  in
  let write_prob =
    Arg.(
      value & opt float 0.5
      & info [ "write-prob" ] ~docv:"P" ~doc:"Probability that an operation is a write.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let fail_site =
    Arg.(value & opt int 0 & info [ "fail-site" ] ~docv:"SITE" ~doc:"Site to fail.")
  in
  let down_txns =
    Arg.(
      value & opt int 100
      & info [ "down-txns" ] ~docv:"N" ~doc:"Transactions processed while the site is down.")
  in
  let max_recovery =
    Arg.(
      value & opt int 1000
      & info [ "max-recovery-txns" ] ~docv:"N"
          ~doc:"Bound on transactions processed during recovery.")
  in
  let two_step =
    Arg.(
      value & opt (some float) None
      & info [ "two-step" ] ~docv:"THRESHOLD"
          ~doc:"Enable two-step recovery with the given threshold (0..1).")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export per-transaction records as CSV.")
  in
  let run sites items max_ops write_prob seed fail_site down_txns max_recovery two_step csv () =
    if fail_site < 0 || fail_site >= sites then invalid_arg "--fail-site out of range";
    let recovery =
      match two_step with
      | None -> Config.On_demand
      | Some threshold -> Config.Two_step { threshold; batch_size = 8 }
    in
    let config = Config.make ~recovery ~num_sites:sites ~num_items:items () in
    let scenario =
      Scenario.make ~seed ~config
        ~workload:(Workload.Uniform { max_ops; write_prob })
        (Scenario.outage ~site:fail_site ~down_txns ~max_recovery_txns:max_recovery ())
    in
    let result = Runner.run scenario in
    let chart =
      Raid_util.Chart.create
        ~title:
          (Printf.sprintf "fail-locks for site %d (db=%d, txn<=%d, P(write)=%.2f)" fail_site
             items max_ops write_prob)
        ~x_label:"number of transactions" ~y_label:"fail-locks set" ()
    in
    Raid_util.Chart.add_series chart
      {
        Raid_util.Chart.label = Printf.sprintf "site %d" fail_site;
        glyph = '*';
        points = Runner.series result ~site:fail_site;
      };
    Raid_util.Chart.print chart;
    Printf.printf "\ntransactions: %d committed, %d aborted\n" result.Runner.committed
      result.Runner.aborted;
    Printf.printf "fully consistent at end: %b\n"
      (Cluster.fully_consistent result.Runner.cluster);
    List.iter
      (fun (name, value) -> Printf.printf "%-28s %d\n" name value)
      (Raid_core.Metrics.snapshot_counts (Cluster.metrics result.Runner.cluster));
    match csv with
    | None -> ()
    | Some path ->
      Raid_sim.Export.write_file ~path (Raid_sim.Export.records_csv result);
      Printf.printf "records exported to %s\n" path
  in
  verb "scenario" ~doc:"Run a custom fail/recover scenario and plot the fail-lock series."
    Term.(
      const run $ sites $ items $ max_ops $ write_prob $ seed $ fail_site $ down_txns
      $ max_recovery $ two_step $ csv)

(* `raid trace` — run a named scenario with protocol tracing on. *)
let trace_cmd =
  let scenario_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:("Scenario to trace. " ^ scenario_doc ^ "."))
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome); ("summary", `Summary) ]) `Summary
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,jsonl) (one JSON object per protocol event), $(b,chrome) \
             (Chrome trace-event JSON, loadable in Perfetto with one track per site and 2PC \
             phases nested inside transaction spans) or $(b,summary) (event counts and \
             virtual-latency histograms).")
  in
  let run list name format out seed jobs () =
    set_jobs jobs;
    if list then print_scenarios ()
    else
      match name with
      | None -> invalid_arg "a SCENARIO argument is required (see --list)"
      | Some name ->
        (* The summary's latency statistics silently skew if the ring
           wraps, so give it room; the export formats keep the default
           bound and warn instead. *)
        let capacity = match format with `Summary -> Some (1 lsl 20) | _ -> None in
        let output = Observe.run ?capacity (named_scenario ?seed name) in
        let dropped = Raid_obs.Trace.dropped output.Observe.trace in
        if dropped > 0 then
          Printf.eprintf
            "raid trace: dropped %d entries (capacity %d); oldest events are missing\n%!" dropped
            (Raid_obs.Trace.capacity output.Observe.trace);
        write_output ~what:"trace" out (Observe.render ~format output)
  in
  verb "trace"
    ~doc:
      "Run a scenario with the protocol trace enabled and export it (JSONL, Chrome trace-event \
       JSON, or a latency summary)."
    Term.(
      const run $ scenario_list $ scenario_arg $ format $ output_file $ scenario_seed $ jobs)

(* `raid metrics` — run a scenario with the telemetry registry attached
   and export the time series. *)
let metrics_cmd =
  let sample =
    Arg.(
      value & opt float 100.0
      & info [ "sample" ] ~docv:"MS"
          ~doc:
            "Virtual-time sampling interval in milliseconds.  Samples are stamped at exact \
             multiples of the interval, so output is deterministic and byte-identical for any \
             $(b,-j).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("prom", `Prom); ("csv", `Csv) ]) `Prom
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,prom) (Prometheus text exposition, final values plus histogram \
             buckets) or $(b,csv) (long-form time series: metric,labels,t_ms,value).")
  in
  let run list name sample format out seed jobs () =
    set_jobs jobs;
    if list then print_scenarios ()
    else begin
      if sample <= 0.0 then invalid_arg "--sample must be positive";
      (* Only the CSV reads the series history, so only it samples. *)
      let sample = if format = `Csv then Some (Raid_net.Vtime.of_ms_f sample) else None in
      let rendered = Observe.render ~format (Observe.run ?sample (named_scenario ?seed name)) in
      (* Build provenance rides at the end of the exposition so the
         scenario series above stay byte-identical across builds. *)
      let provenance = if format = `Prom then Raid_obs.Build_info.prom_block () else "" in
      write_output ~what:"metrics" out (rendered ^ provenance)
    end
  in
  verb "metrics"
    ~doc:
      "Run a scenario with the virtual-time telemetry registry attached and export the sampled \
       series (Prometheus text or long-form CSV)."
    Term.(
      const run $ scenario_list
      $ scenario_name ~doc:"Scenario to instrument."
      $ sample $ format $ output_file $ scenario_seed $ jobs)

(* `raid explain` — the span-tree view of one transaction: where its
   latency went, blamed site by site along the critical path. *)
let explain_cmd =
  let txn =
    Arg.(
      value & opt (some int) None
      & info [ "txn" ] ~docv:"ID"
          ~doc:
            "Transaction to explain (default: the slowest complete committed transaction of \
             the run).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the span tree and critical path as JSON instead of the text rendering.")
  in
  let run name txn json seed jobs () =
    set_jobs jobs;
    (* Span assembly needs the whole stream: a wrapped ring loses the
       oldest transactions' begins, so give the collector the same
       headroom the trace summary gets. *)
    let output = Observe.run ~capacity:(1 lsl 20) (named_scenario ?seed name) in
    let dropped = Raid_obs.Trace.dropped output.Observe.trace in
    if dropped > 0 then
      Printf.eprintf
        "raid explain: dropped %d trace entries; the oldest transactions are incomplete\n%!"
        dropped;
    let trees = Observe.spans output in
    let tree =
      match txn with
      | Some id -> (
        match Raid_obs.Span.find trees id with
        | Some tree -> tree
        | None ->
          invalid_arg
            (Printf.sprintf "no transaction %d in scenario %s (%d traced)" id name
               (List.length trees)))
      | None -> (
        match Raid_obs.Span.slowest trees with
        | Some tree -> tree
        | None -> invalid_arg "the scenario traced no transactions")
    in
    if json then print_endline (Raid_obs.Json.to_string (Raid_obs.Span.json tree))
    else print_string (Raid_obs.Span.render tree)
  in
  verb "explain"
    ~doc:
      "Trace a scenario and explain one transaction: its causal span tree (phases, copier \
       fetches, votes) and the critical path through it, each step blamed on the site that \
       spent the time."
    Term.(
      const run $ scenario_name ~doc:"Scenario to trace." $ txn $ json $ scenario_seed $ jobs)

(* `raid incidents` — per-(site, episode) recovery timelines, read from
   the streaming recorder. *)
let incidents_cmd =
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:
            "Emit one CSV row per incident (durations in milliseconds) instead of the human \
             summary; byte-identical for any $(b,-j).")
  in
  let run name csv out seed jobs () =
    set_jobs jobs;
    let incidents = Observe.incidents (Observe.run (named_scenario ?seed name)) in
    let rendered =
      if csv then Raid_obs.Incident.to_csv incidents
      else if incidents = [] then "no site failures in this scenario\n"
      else String.concat "" (List.map (fun i -> Raid_obs.Incident.describe i ^ "\n") incidents)
    in
    write_output ~what:"incidents" out rendered
  in
  verb "incidents"
    ~doc:
      "Run a scenario and report every site-failure incident as a recovery timeline: outage, \
       WAL replay, in-doubt resolution, state install and fail-lock drain phases that \
       partition crash to caught-up exactly."
    Term.(
      const run $ scenario_name ~doc:"Scenario to run." $ csv $ output_file $ scenario_seed $ jobs)

(* `raid throughput` — steady-state load on a configurable cluster. *)
let throughput_cmd =
  let duration =
    Arg.(
      value & opt float 10_000.0
      & info [ "duration" ] ~docv:"MS" ~doc:"Virtual run length in milliseconds.")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of independent seeds to run (fanned out over -j domains).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Base PRNG seed.")
  in
  let no_failure =
    Arg.(
      value & flag
      & info [ "no-failure" ] ~doc:"Run without the mid-stream failure + recovery.")
  in
  let fail_at =
    Arg.(
      value & opt (some float) None
      & info [ "fail-at" ] ~docv:"MS"
          ~doc:"Fail site 0 at this absolute virtual time (default: duration/5).")
  in
  let recover_at =
    Arg.(
      value & opt (some float) None
      & info [ "recover-at" ] ~docv:"MS"
          ~doc:"Recover the failed site at this absolute virtual time (default: duration/2).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Quick CI run: cap the virtual duration at 1000 ms (failure at 200/500 ms).")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Export the first seed's per-virtual-second trajectory as CSV.")
  in
  let telemetry =
    Arg.(
      value & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Attach the telemetry registry to the first seed's run and export it as Prometheus \
             text to $(docv) ($(b,-) for stdout).  The instrumented run produces the same \
             result row as without telemetry.")
  in
  let run (sites, items, max_ops, write_prob) duration seeds seed no_failure fail_at recover_at
      smoke csv telemetry placement jobs () =
    set_jobs jobs;
    let replication, zipf_theta = placement () in
    let duration = if smoke then Float.min duration 1000.0 else duration in
    let failure =
      if no_failure then None
      else begin
        let default = Raid_sim.Throughput.default_failure ~sites ~duration_ms:duration in
        Some
          {
            default with
            Raid_sim.Throughput.fail_at_ms =
              Option.value ~default:default.Raid_sim.Throughput.fail_at_ms fail_at;
            recover_at_ms =
              Option.value ~default:default.Raid_sim.Throughput.recover_at_ms recover_at;
          }
      end
    in
    let config =
      Raid_sim.Throughput.make_config ~sites ~items ~max_ops ~write_prob ~duration_ms:duration
        ?failure ~replication ?zipf_theta ()
    in
    (* The export is the Prometheus exposition of current values, so the
       registry keeps no series history. *)
    let registry =
      match telemetry with None -> None | Some _ -> Some (Raid_obs.Telemetry.create ())
    in
    let t0 = Unix.gettimeofday () in
    (* The instrumented first seed runs outside the pool (the registry is
       single-domain state); the remaining seeds still fan out over -j. *)
    let results =
      match registry with
      | None -> Raid_sim.Throughput.run_seeds ~base_seed:seed ~seeds config
      | Some registry ->
        Raid_sim.Throughput.run ~seed ~telemetry:registry config
        :: (if seeds > 1 then
              Raid_sim.Throughput.run_seeds ~base_seed:(seed + 1) ~seeds:(seeds - 1) config
            else [])
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    Table.print (Raid_sim.Throughput.results_table ~config results);
    let summary = Raid_sim.Throughput.summary results in
    Format.printf "%a@." Raid_sim.Throughput.pp_summary summary;
    let events = summary.Raid_sim.Throughput.total_events in
    Printf.printf "\nhost: %.2f s wall clock, %d events, %.0f events/sec\n" wall_s events
      (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
    (match (telemetry, registry) with
    | Some "-", Some registry -> print_string (Raid_obs.Prom.render registry)
    | Some path, Some registry ->
      Raid_sim.Export.write_file ~path (Raid_obs.Prom.render registry);
      Printf.printf "telemetry exported to %s\n" path
    | _ -> ());
    match (csv, results) with
    | Some path, first :: _ ->
      Raid_sim.Export.write_file ~path (Raid_sim.Throughput.windows_csv first);
      Printf.printf "trajectory exported to %s\n" path
    | _ -> ()
  in
  verb "throughput"
    ~doc:
      "Measure steady-state throughput (committed txns per virtual second, abort rate, host \
       events/sec) under an open-loop stream with a mid-run failure and recovery."
    Term.(
      const run $ load $ duration $ seeds $ seed $ no_failure $ fail_at $ recover_at $ smoke
      $ csv $ telemetry $ placement $ jobs)

(* `raid concurrency` *)
let concurrency_cmd =
  let levels =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16 ]
      & info [ "levels" ] ~docv:"N,N,..." ~doc:"Concurrency levels to sweep.")
  in
  let txns =
    Arg.(value & opt int 200 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per level.")
  in
  let run levels txns jobs () =
    set_jobs jobs;
    Table.print (Raid_sim.Concurrent.sweep_table (Raid_sim.Concurrent.sweep ~levels ~txns ()))
  in
  verb "concurrency"
    ~doc:"Sweep concurrent transaction processing levels (conservative strict 2PL)."
    Term.(const run $ levels $ txns $ jobs)

(* `raid serve` — a live soak with the HTTP introspection API. *)
let serve_cmd =
  let port =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on 127.0.0.1:$(docv); $(b,0) picks an ephemeral port.")
  in
  let accel =
    Arg.(
      value & opt float 1.0
      & info [ "accel" ] ~docv:"X"
          ~doc:
            "Virtual milliseconds advanced per wall millisecond: $(b,1.0) is real time, \
             $(b,10) a 10x fast-forward, $(b,0) removes the throttle entirely (as fast as \
             possible).")
  in
  let duration =
    Arg.(
      value & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Stop after this much wall-clock time (default: run until SIGINT).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run port accel (sites, items, max_ops, write_prob) duration seed placement () =
    let replication, zipf_theta = placement () in
    let config =
      Raid_sim.Soak.make_config ~sites ~items ~max_ops ~write_prob ~replication
        ?zipf_theta ~accel ~seed ~port
        ?duration_s:duration ()
    in
    let soak = Raid_sim.Soak.create config in
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Raid_sim.Soak.stop soak));
    Printf.printf "raid serve: http://127.0.0.1:%d (%d sites, accel %s%s); ctrl-C drains\n%!"
      (Raid_sim.Soak.port soak) sites
      (if accel <= 0.0 then "off" else Printf.sprintf "%gx" accel)
      (match duration with
      | None -> ""
      | Some d -> Printf.sprintf ", duration %gs" d);
    let s = Raid_sim.Soak.run soak in
    Printf.printf
      "raid serve: %d txns (%d committed, %d aborted), %.0f virtual ms in %.1f wall s, %d \
       engine events, %d http requests\n"
      s.Raid_sim.Soak.submitted s.Raid_sim.Soak.committed s.Raid_sim.Soak.aborted
      s.Raid_sim.Soak.virtual_ms s.Raid_sim.Soak.wall_s s.Raid_sim.Soak.events
      s.Raid_sim.Soak.requests
  in
  verb "serve"
    ~doc:
      "Run a long-lived soak — virtual time paced against the wall clock — while an HTTP API on \
       127.0.0.1 exposes the cluster live: /health, /metrics (Prometheus), /sites, /txns, POST \
       /sites/ID/fail|recover, POST /load."
    Term.(
      const run $ port $ accel $ load $ duration $ seed $ placement)

(* `raid crashmatrix` — the systematic crash-injection matrix: kill a
   site at every distinct boundary of the 2PC/copier/fail-lock state
   machine, replay its WAL, resolve its in-doubt transactions and assert
   the DESIGN.md invariants (see Raid_sim.Crashmatrix). *)
let crashmatrix_cmd =
  let module Crashmatrix = Raid_sim.Crashmatrix in
  let list =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the crash-point taxonomy (one per line with a description) and exit.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Reduced grid for CI: one seed, one cluster size, every crash point and both \
             placements.")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Emit the per-cell matrix as CSV on stdout instead of a table.")
  in
  let comma_ints =
    let parse s =
      let parts = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | part :: rest -> (
          match int_of_string_opt (String.trim part) with
          | Some n -> go (n :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "%S is not an integer" part)))
      in
      go [] parts
    in
    let print ppf ns =
      Format.pp_print_string ppf (String.concat "," (List.map string_of_int ns))
    in
    Arg.conv (parse, print)
  in
  let seeds =
    Arg.(
      value & opt (some comma_ints) None
      & info [ "seeds" ] ~docv:"S1,S2,.." ~doc:"Seeds to run each cell at (default 1,2,3).")
  in
  let sizes =
    Arg.(
      value & opt (some comma_ints) None
      & info [ "sizes" ] ~docv:"N1,N2,.." ~doc:"Cluster sizes to run (default 4,6).")
  in
  let points =
    Arg.(
      value & opt (some string) None
      & info [ "points" ] ~docv:"P1,P2,.."
          ~doc:"Comma-separated crash-point names to run (default: all; see $(b,--list)).")
  in
  let incidents =
    Arg.(
      value & opt (some string) None
      & info [ "incidents" ] ~docv:"FILE"
          ~doc:
            "Also write every recovery incident the cells recorded as CSV to $(docv), one row \
             per (site, episode) prefixed with the cell coordinates; byte-identical for any \
             $(b,-j).")
  in
  let run list smoke csv incidents seeds sizes points jobs () =
    set_jobs jobs;
    if list then
      List.iter
        (fun point ->
          Printf.printf "%-24s %s\n"
            (Crashmatrix.point_name point)
            (Crashmatrix.point_description point))
        Crashmatrix.all_points
    else begin
      let points =
        match points with
        | None -> Crashmatrix.all_points
        | Some names ->
          List.map
            (fun name ->
              match Crashmatrix.point_of_name (String.trim name) with
              | Some p -> p
              | None -> invalid_arg (Printf.sprintf "unknown crash point %S (see --list)" name))
            (String.split_on_char ',' names)
      in
      let seeds = match seeds with Some s -> s | None -> if smoke then [ 1 ] else [ 1; 2; 3 ] in
      let sizes = match sizes with Some s -> s | None -> if smoke then [ 4 ] else [ 4; 6 ] in
      let summary = Crashmatrix.run ~seeds ~sizes ~points () in
      if csv then print_string (Crashmatrix.to_csv summary)
      else begin
        Table.print (Crashmatrix.table summary);
        Printf.printf "%d cells, %d failed\n" summary.Crashmatrix.cells
          summary.Crashmatrix.failed_cells
      end;
      (match incidents with
      | None -> ()
      | Some path ->
        Raid_sim.Export.write_file ~path (Crashmatrix.incidents_csv summary);
        if not csv then Printf.printf "incident timelines written to %s\n" path);
      if not (Crashmatrix.ok summary) then exit 1
    end
  in
  verb "crashmatrix"
    ~doc:
      "Crash a site at every distinct point of the 2PC/copier/fail-lock state machine, replay \
       its WAL, resolve in-doubt transactions and assert the protocol invariants; non-zero exit \
       on any violation."
    Term.(const run $ list $ smoke $ csv $ incidents $ seeds $ sizes $ points $ jobs)

(* `raid repl` *)
let repl_cmd =
  let sites = Arg.(value & opt int 4 & info [ "sites" ] ~docv:"N" ~doc:"Number of sites.") in
  let items = Arg.(value & opt int 50 & info [ "items" ] ~docv:"N" ~doc:"Data items.") in
  let max_ops =
    Arg.(value & opt int 5 & info [ "max-ops" ] ~docv:"N" ~doc:"Max operations per random txn.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let run sites items max_ops seed () =
    Raid_sim.Console.run_stdin (Raid_sim.Console.create ~sites ~items ~max_ops ~seed ())
  in
  verb "repl" ~doc:"Interactive managing-site console (fail/recover sites, run txns)."
    Term.(const run $ sites $ items $ max_ops $ seed)

(* `raid multi` *)
let multi_cmd =
  let tenants =
    Arg.(
      value & opt int 1000
      & info [ "tenants" ] ~docv:"N" ~doc:"Independent tenant clusters to run in this process.")
  in
  let sites =
    Arg.(value & opt int 8 & info [ "sites" ] ~docv:"N" ~doc:"Database sites per tenant.")
  in
  let items =
    Arg.(value & opt int 64 & info [ "items" ] ~docv:"N" ~doc:"Data items per tenant.")
  in
  let txns =
    Arg.(value & opt int 40 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per tenant.")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "WAL shards (tenant mod $(docv)); part of the configuration, never derived from \
             $(b,-j), so results are identical at any job count.")
  in
  let batch =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"N"
          ~doc:"Transactions per tenant per round-robin scheduling quantum.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Base PRNG seed.") in
  let group_size =
    Arg.(
      value & opt int 64
      & info [ "group-size" ] ~docv:"N"
          ~doc:"Records per shared-WAL group commit (with the default shared WAL mode).")
  in
  let per_tenant_wal =
    Arg.(
      value & flag
      & info [ "per-tenant-wal" ]
          ~doc:
            "Give every tenant a private WAL flushed per record (group size 1) instead of the \
             shared group-committed shard log — the configuration the shared WAL exists to \
             beat.  Per-tenant protocol results are identical in both modes.")
  in
  let fail_every =
    Arg.(
      value & opt int 0
      & info [ "fail-every" ] ~docv:"K"
          ~doc:
            "Crash one site of every $(docv)-th tenant a third of the way through its stream \
             and recover it at two thirds (0 = no failures).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Quick CI run: cap tenants at 64 and transactions per tenant at 10.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Export per-tenant results and per-shard WAL stats as CSV — byte-identical at any \
             $(b,-j) and in both WAL modes (tenant rows).")
  in
  let run tenants sites items txns shards batch seed group_size per_tenant_wal fail_every smoke
      csv jobs () =
    set_jobs jobs;
    let tenants = if smoke then min tenants 64 else tenants in
    let txns = if smoke then min txns 10 else txns in
    let wal_mode =
      if per_tenant_wal then Raid_multi.Per_tenant else Raid_multi.Shared { group_size }
    in
    let spec =
      Raid_multi.spec ~tenants ~sites ~items ~txns ~shards ~batch ~seed ~wal_mode ~fail_every ()
    in
    let t0 = Unix.gettimeofday () in
    let result = Raid_multi.run spec in
    let wall_s = Unix.gettimeofday () -. t0 in
    Format.printf "%a@." Raid_multi.pp_summary result;
    let events = Raid_multi.total_events result in
    Printf.printf "host: %.2f s wall clock, %.0f events/sec aggregate\n" wall_s
      (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
    match csv with
    | Some path ->
      Raid_sim.Export.write_file ~path (Raid_multi.csv result);
      Printf.printf "per-tenant results exported to %s\n" path
    | None -> ()
  in
  verb "multi"
    ~doc:
      "Run many independent tenant clusters in one process, sharing one group-committed WAL per \
       shard; reports per-tenant results and aggregate events/sec."
    Term.(
      const run $ tenants $ sites $ items $ txns $ shards $ batch $ seed $ group_size
      $ per_tenant_wal $ fail_every $ smoke $ csv $ jobs)

let main_cmd =
  let doc =
    "replicated copy control during site failure and recovery (Bhargava-Noll-Sabo, ICDE 1988)"
  in
  Cmd.group
    (Cmd.info "raid" ~version:Raid_obs.Build_info.version ~doc)
    [
      exp_cmd;
      ablations_cmd;
      scaling_cmd;
      scenario_cmd;
      trace_cmd;
      metrics_cmd;
      explain_cmd;
      incidents_cmd;
      throughput_cmd;
      concurrency_cmd;
      multi_cmd;
      serve_cmd;
      crashmatrix_cmd;
      repl_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
