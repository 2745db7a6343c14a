module Trace = Raid_obs.Trace
module Trace_export = Raid_obs.Trace_export
module Telemetry = Raid_obs.Telemetry
module Incident = Raid_obs.Incident
module Cluster = Raid_core.Cluster
module Metrics = Raid_core.Metrics
module Message = Raid_core.Message
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Stats = Raid_util.Stats

(* A representative trajectory on the paper's Experiment-1 configuration
   (4 sites, 50 items, transactions of up to 10 operations, §2.1):
   steady load, a failure, degraded processing, on-demand recovery and a
   settle tail.  Experiment 1 proper measures isolated overheads, so it
   exposes no scenario of its own; this is the observable equivalent on
   the same configuration. *)
let exp1_scenario ?(seed = 42) () =
  let config = Raid_core.Config.make ~num_sites:4 ~num_items:50 () in
  Scenario.make ~seed ~config
    ~workload:(Raid_core.Workload.Uniform { max_ops = 10; write_prob = 0.5 })
    ((Scenario.Run_txns 60 :: Scenario.outage ~site:0 ~down_txns:60 ~max_recovery_txns:400 ())
    @ [ Scenario.Run_txns 20 ])

let named =
  [
    ( "exp1",
      "Experiment-1 configuration (4 sites, 50 items, txn<=10 ops): fail, degrade, recover, \
       settle",
      fun seed -> exp1_scenario ?seed () );
    ( "exp2",
      "Experiment 2: site 0 down for 100 txns, then recovers (Figure 1)",
      fun seed -> Experiment2.scenario ?seed () );
    ( "exp3-1",
      "Experiment 3 scenario 1: alternating two-site failures (Figure 2)",
      fun seed -> Experiment3.scenario1_scenario ?seed () );
    ( "exp3-2",
      "Experiment 3 scenario 2: four sites fail singly (Figure 3)",
      fun seed -> Experiment3.scenario2_scenario ?seed () );
  ]

let scenarios = List.map (fun (name, description, _) -> (name, description)) named

let scenario_of_name ?seed name =
  match List.find_opt (fun (n, _, _) -> n = name) named with
  | Some (_, _, make) -> Ok (make seed)
  | None ->
    Error
      (Printf.sprintf "unknown scenario %S (available: %s)" name
         (String.concat ", " (List.map fst scenarios)))

(* MTTRs here are virtual milliseconds-to-seconds; the buckets span the
   sub-millisecond copier refreshes up to multi-second blocked
   recoveries. *)
let recovery_phase_buckets =
  [ 0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0 ]

let attach_observatory registry collector =
  let histograms =
    List.map
      (fun phase ->
        ( phase,
          Telemetry.histogram registry "raid_recovery_phase_seconds"
            ~labels:[ ("phase", Incident.phase_name phase) ]
            ~buckets:recovery_phase_buckets
            ~help:"Recovery incident phase durations, by phase (virtual seconds)" ))
      Incident.all_phases
  in
  let recorder =
    Incident.recorder
      ~on_complete:(fun incident ->
        List.iter
          (fun (phase, histogram) ->
            Telemetry.observe histogram
              (Vtime.to_ms (Incident.phase_duration incident phase) /. 1000.0))
          histograms)
      ()
  in
  Telemetry.polled_counter registry "raid_trace_dropped_total"
    ~help:"Trace entries dropped by the ring collector (oldest-first)" (fun () ->
      float_of_int (Trace.dropped collector));
  (Trace.tee [ Trace.sink collector; Incident.recorder_sink recorder ], recorder)

type output = {
  result : Runner.result;
  trace : Trace.t;
  recorder : Incident.recorder;
  registry : Telemetry.t;
}

let run ?capacity ?sample scenario =
  let registry = Telemetry.create ?interval:sample () in
  let trace = Trace.create ?capacity () in
  let obs, recorder = attach_observatory registry trace in
  let result = Runner.run ~trace:true ~obs ~telemetry:registry scenario in
  let engine = Cluster.engine result.Runner.cluster in
  (* One final point at the quiescent end time, so every series covers
     the whole run even when it ends between interval boundaries. *)
  Telemetry.sample_now registry ~at:(Engine.now engine);
  { result; trace; recorder; registry }

let spans output = Raid_obs.Span.assemble (Trace.entries output.trace)
let incidents output = Incident.incidents output.recorder

let summary output =
  let buffer = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buffer in
  let metrics = Cluster.metrics output.result.Runner.cluster in
  Format.fprintf ppf "transactions: %d committed, %d aborted@."
    output.result.Runner.committed output.result.Runner.aborted;
  Format.fprintf ppf "trace: %d events emitted, %d dropped, %d messages@.@."
    (Trace.emitted output.trace) (Trace.dropped output.trace)
    (List.length (Timeline.entries output.result.Runner.cluster));
  Format.fprintf ppf "events by kind:@.";
  List.iter
    (fun (kind, count) -> Format.fprintf ppf "  %-20s %6d@." kind count)
    (Trace.counts output.trace);
  Format.fprintf ppf "@.virtual latencies (ms):@.";
  List.iter
    (fun (label, samples) ->
      if samples <> [] then begin
        Format.fprintf ppf "  %-22s %a@." label Stats.pp_summary
          (Stats.summarize samples);
        if List.length samples >= 5 then
          Format.fprintf ppf "@[<v 4>    %a@]@." Stats.pp_histogram
            (Stats.histogram samples)
      end)
    (Metrics.latency_groups metrics);
  Format.pp_print_flush ppf ();
  Buffer.contents buffer

let render ~format output =
  match format with
  | `Jsonl -> Trace_export.jsonl output.trace
  | `Chrome ->
    let cluster = output.result.Runner.cluster in
    Trace_export.chrome ~num_sites:(Cluster.num_sites cluster) ~label:Message.describe
      ~messages:(Timeline.entries cluster) output.trace
  | `Summary -> summary output
  | `Prom -> Raid_obs.Prom.render output.registry
  | `Csv -> Telemetry.to_csv output.registry
