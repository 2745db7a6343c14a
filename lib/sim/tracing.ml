module Trace = Raid_obs.Trace
module Trace_export = Raid_obs.Trace_export
module Cluster = Raid_core.Cluster
module Metrics = Raid_core.Metrics
module Message = Raid_core.Message
module Engine = Raid_net.Engine
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
    [
      Scenario.Run_txns 60;
      Scenario.Fail 0;
      Scenario.Run_txns 60;
      Scenario.Recover 0;
      Scenario.Run_until_recovered { site = 0; max_txns = 400 };
      Scenario.Run_txns 20;
    ]

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

type output = {
  trace : Trace.t;
  result : Runner.result;
  messages : Trace_export.message list;
  num_sites : int;
}

let run ?capacity scenario =
  let collector = Trace.create ?capacity () in
  let result = Runner.run ~trace:true ~obs:(Trace.sink collector) scenario in
  let engine = Cluster.engine result.Runner.cluster in
  let messages =
    List.map
      (fun (e : Message.t Engine.trace_entry) ->
        {
          Trace_export.msg_at = e.Engine.trace_time;
          msg_src = e.Engine.trace_src;
          msg_dst = e.Engine.trace_dst;
          msg_label = Message.describe e.Engine.trace_payload;
          msg_delivered = (e.Engine.trace_outcome = Engine.Delivered);
        })
      (Engine.trace engine)
  in
  {
    trace = collector;
    result;
    messages;
    num_sites = Cluster.num_sites result.Runner.cluster;
  }

let spans output = Raid_obs.Span.assemble (Trace.entries output.trace)
let incidents output = Raid_obs.Incident.assemble (Trace.entries output.trace)
let jsonl output = Trace_export.jsonl output.trace

let chrome output =
  Trace_export.chrome ~messages:output.messages ~num_sites:output.num_sites output.trace

let summary output =
  let buffer = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buffer in
  let metrics = Cluster.metrics output.result.Runner.cluster in
  Format.fprintf ppf "transactions: %d committed, %d aborted@."
    output.result.Runner.committed output.result.Runner.aborted;
  Format.fprintf ppf "trace: %d events emitted, %d dropped, %d messages@.@."
    (Trace.emitted output.trace) (Trace.dropped output.trace)
    (List.length output.messages);
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
  | `Jsonl -> jsonl output
  | `Chrome -> chrome output
  | `Summary -> summary output
