(** Prometheus text exposition (version 0.0.4) of a {!Telemetry}
    registry's current values.

    Rendering is deterministic: metrics are grouped by name in sorted
    order, label sets sorted within a group, and numbers formatted with
    {!Telemetry.float_repr} — so the same run renders byte-identically
    everywhere (the CI [-j 1] vs [-j 4] check and the committed golden
    snapshot rely on this).  Gauges are polled at render time; render
    after the run is quiescent.

    Cost: each metric's static text (its family's HELP/TYPE header and
    every sample-line prefix, label sets escaped) is rendered on the
    first export and kept with the metric, and the registry caches its
    sorted order until the next registration.  A render is then buffer
    appends plus number formatting. *)

val render : Telemetry.t -> string
(** [# HELP]/[# TYPE] header per metric name (HELP omitted when empty),
    then one sample line per label set.  Histograms expand to
    [_bucket{le="..."}] lines (cumulative, ending at [le="+Inf"]) plus
    [_sum] and [_count]. *)
