(** Observed scenario runs: the one harness behind [raid trace],
    [raid metrics], [raid explain] and [raid incidents].

    {!run} plays a scenario with every observer attached — the
    protocol trace ({!Raid_obs.Trace}), message arrivals included, in a
    ring collector, a streaming incident recorder and a
    {!Raid_obs.Telemetry} registry (see {!Raid_core.Cluster.Spec}) — and
    {!render} exports the collection in one of five formats:

    - [`Jsonl]: one JSON object per protocol event, for ad-hoc analysis;
    - [`Chrome]: Chrome trace-event JSON (Perfetto / [chrome://tracing]),
      one track per site, drawing the {!spans} trees — phases nested in
      their transaction's span, votes and fetches as spans — and the
      ring's message arrivals (the lines {!Timeline} renders) as instants;
    - [`Summary]: a text report — event counts by kind plus
      {!Raid_util.Stats} summaries and histograms of the per-transaction
      virtual latencies by outcome and by 2PC phase;
    - [`Prom]: the registry's Prometheus text exposition;
    - [`Csv]: the registry's long-form sampled series (needs [sample]).

    Observers never perturb the run, and output is deterministic for a
    given scenario: byte-identical across runs, hosts and [-j] levels
    (each run owns its observers; nothing is global). *)

val scenarios : (string * string) list
(** The named scenarios, with one-line descriptions.  ["exp1"] runs the
    paper's Experiment-1 configuration (4 sites, 50 items, transactions
    of up to 10 operations) through warm-up, a failure of site 0,
    degraded load, on-demand recovery and a settle tail — one
    trajectory covering every phase the registry gauges track; the
    others are the paper's experiments 2 and 3. *)

val scenario_of_name : ?seed:int -> string -> (Scenario.t, string) result
(** The named scenario, or an error listing the available names. *)

val attach_observatory :
  Raid_obs.Telemetry.t -> Raid_obs.Trace.t -> Raid_obs.Trace.sink * Raid_obs.Incident.recorder
(** Register the recovery observatory on a registry: one
    [raid_recovery_phase_seconds] histogram per incident phase (fed the
    moment an incident completes) and a [raid_trace_dropped_total]
    counter polled from the given ring collector.  Returns the sink to
    run the cluster with — the collector teed with a fresh incident
    recorder — and that recorder. *)

type output = {
  result : Runner.result;
  trace : Raid_obs.Trace.t;  (** the ring collector of the typed event stream *)
  recorder : Raid_obs.Incident.recorder;  (** streaming recovery timelines *)
  registry : Raid_obs.Telemetry.t;
}

val run : ?capacity:int -> ?sample:Raid_net.Vtime.t -> Scenario.t -> output
(** Run with every observer attached.  [capacity] bounds the ring
    collector (default 65536 entries); when a run emits more, the oldest
    entries are dropped and counted — check {!Raid_obs.Trace.dropped}
    on [output.trace] and warn.  The incident recorder streams, so
    {!incidents} never depends on it.  [sample] is the registry's
    virtual-time interval, plus one final sample at the engine's
    quiescent end time; without it the registry keeps current values
    only, which is all every format but [`Csv] reads. *)

val spans : output -> Raid_obs.Span.tree list
(** Causal span trees assembled from the collected entries, one per
    transaction, sorted by id. *)

val incidents : output -> Raid_obs.Incident.t list
(** The run's recovery timelines from the streaming recorder, ordered
    by start time. *)

val render :
  format:[< `Jsonl | `Chrome | `Summary | `Prom | `Csv ] -> output -> string
