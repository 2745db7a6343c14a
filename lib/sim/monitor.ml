module Telemetry = Raid_obs.Telemetry
module Prom = Raid_obs.Prom
module Trace = Raid_obs.Trace
module Incident = Raid_obs.Incident
module Cluster = Raid_core.Cluster
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime

type output = {
  registry : Telemetry.t;
  result : Runner.result;
  trace : Trace.t;
  recorder : Incident.recorder;
}

(* MTTRs here are virtual milliseconds-to-seconds; the buckets span the
   sub-millisecond copier refreshes up to multi-second blocked
   recoveries. *)
let recovery_phase_buckets =
  [ 0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0 ]

(* Wire the recovery observatory into a registry: one
   [raid_recovery_phase_seconds] histogram per incident phase (observed
   the moment an incident completes) and a dropped-entry counter over
   the ring collector.  Returns the sink to run the cluster with and
   the recorder for post-run timeline queries. *)
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

let run ?(sample = Vtime.of_ms 100) scenario =
  let registry = Telemetry.create ~interval:sample () in
  let collector = Trace.create () in
  let obs, recorder = attach_observatory registry collector in
  let result = Runner.run ~obs ~telemetry:registry scenario in
  (* One final point at the quiescent end time, so every series covers
     the whole run even when it ends between interval boundaries. *)
  Telemetry.sample_now registry ~at:(Engine.now (Cluster.engine result.Runner.cluster));
  { registry; result; trace = collector; recorder }

let incidents output = Incident.incidents output.recorder
let prom output = Prom.render output.registry
let csv output = Telemetry.to_csv output.registry

let render ~format output =
  match format with `Prom -> prom output | `Csv -> csv output
