(** Telemetry-instrumented scenario runs: the pipeline behind
    [raid metrics].

    Runs a scenario (named ones come from {!Tracing.scenario_of_name})
    with a {!Raid_obs.Telemetry} registry wired into the cluster (see
    {!Raid_core.Cluster.Spec}) and renders the
    sampled series as Prometheus text exposition or long-form CSV.
    Sampling happens at multiples of the virtual-time interval as the
    engine processes events, plus one final sample at the quiescent end
    time — so the output is a pure function of (scenario, interval):
    byte-identical across runs, hosts and [-j] domain counts. *)

type output = {
  registry : Raid_obs.Telemetry.t;
  result : Runner.result;
  trace : Raid_obs.Trace.t;  (** the typed event stream of the run *)
  recorder : Raid_obs.Incident.recorder;  (** streaming recovery timelines *)
}

val attach_observatory :
  Raid_obs.Telemetry.t -> Raid_obs.Trace.t -> Raid_obs.Trace.sink * Raid_obs.Incident.recorder
(** Register the recovery observatory on a registry: one
    [raid_recovery_phase_seconds] histogram per incident phase (fed the
    moment an incident completes) and a [raid_trace_dropped_total]
    counter polled from the given ring collector.  Returns the sink to
    run the cluster with — the collector teed with a fresh incident
    recorder — and that recorder. *)

val run : ?sample:Raid_net.Vtime.t -> Scenario.t -> output
(** Run with telemetry and the recovery observatory attached; [sample]
    (default 100 virtual ms) is the registry interval.  A final sample
    is recorded at the engine's quiescent end time. *)

val incidents : output -> Raid_obs.Incident.t list
(** The run's recovery timelines, ordered by start time. *)

val prom : output -> string
val csv : output -> string

val render : format:[ `Prom | `Csv ] -> output -> string
