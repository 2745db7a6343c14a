(** Traced scenario runs: the pipeline behind [raid trace].

    Runs a scenario with the protocol trace ({!Raid_obs.Trace}) and the
    network engine's message trace both enabled, and renders the
    combined collection in one of three formats:

    - [`Jsonl]: one JSON object per protocol event, for ad-hoc analysis;
    - [`Chrome]: Chrome trace-event JSON (Perfetto / [chrome://tracing]),
      one track per site, 2PC phases as spans nested in their
      transaction's span, message deliveries as instants;
    - [`Summary]: a text report — event counts by kind plus
      {!Raid_util.Stats} summaries and histograms of the per-transaction
      virtual latencies by outcome and by 2PC phase.

    Output is deterministic for a given scenario: byte-identical across
    runs and [-j] levels (each run owns its collector; nothing is
    global). *)

val scenarios : (string * string) list
(** The named scenarios, with one-line descriptions: the one list
    behind [raid trace], [raid metrics], [raid explain] and
    [raid incidents].  ["exp1"] runs the paper's Experiment-1
    configuration (4 sites, 50 items, transactions of up to 10
    operations) through warm-up, a failure of site 0, degraded load,
    on-demand recovery and a settle tail — one trajectory covering
    every phase the registry gauges track; the others are the paper's
    experiments 2 and 3. *)

val scenario_of_name : ?seed:int -> string -> (Scenario.t, string) result
(** The named scenario, or an error listing the available names. *)

type output = {
  trace : Raid_obs.Trace.t;
  result : Runner.result;
  messages : Raid_obs.Trace_export.message list;
      (** engine deliveries, pre-rendered for the chrome export *)
  num_sites : int;
}

val run : ?capacity:int -> Scenario.t -> output
(** Run with tracing enabled (protocol events and engine messages).
    [capacity] bounds the ring-buffer collector (default 65536 entries);
    when a run emits more, the oldest entries are dropped and counted —
    check {!Raid_obs.Trace.dropped} on [output.trace] and warn. *)

val spans : output -> Raid_obs.Span.tree list
(** Causal span trees assembled from the collected entries, one per
    transaction, sorted by id. *)

val incidents : output -> Raid_obs.Incident.t list
(** Recovery timelines assembled from the collected entries, ordered by
    start time. *)

val jsonl : output -> string
val chrome : output -> string
val summary : output -> string

val render : format:[ `Jsonl | `Chrome | `Summary ] -> output -> string
