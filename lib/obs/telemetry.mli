(** Typed metrics registry, optionally sampled at a virtual-time interval.

    The paper's experiments are measurements — fail-locks set and
    cleared, copier transactions requested, recovery-time breakdowns —
    but {!Raid_core.Metrics} only exposes end-of-run aggregates and
    {!Trace} raw events.  This registry is the middle layer: named
    metrics (counters, gauges, histograms, keyed by name plus static
    labels such as [site]/[kind]).  A registry created with an interval
    also samples every metric into an in-memory {!Series} at that
    {e virtual}-time interval; one created without keeps current values
    only.  Exports: Prometheus text exposition ({!Prom}, current values)
    and long-form CSV ({!to_csv}, the sampled history).

    Cost discipline (the {!Trace.sink} trick): nothing here is global
    and nothing is wired into the simulator by default.  A cluster
    created without a registry pays one [None] branch per engine event;
    with a registry, counters are one float store, and sampling happens
    only in a registry with an interval, when the engine's clock crosses
    a multiple of it.  A live server whose readers only scrape current
    values ([raid serve]) therefore keeps no history at all.

    Determinism: samples are stamped with the {e due} virtual time (the
    crossed multiple of the interval), never the host clock, and
    exports emit metrics in sorted (name, labels) order — so a sampled
    run renders byte-identically across hosts and [-j] domain counts. *)

type t

type labels = (string * string) list
(** Static labels, e.g. [("site", "3")].  Stored sorted by key; keys
    must be unique within one metric. *)

type kind = Counter | Gauge | Histogram

type counter
(** An incrementing total owned by the instrumented code: updating is a
    single mutable float store. *)

type histogram
(** Fixed cumulative buckets plus running sum and count. *)

val create : ?interval:Raid_net.Vtime.t -> unit -> t
(** A fresh registry.  With [interval], the registry keeps history:
    {!maybe_sample} records one point per metric at every crossed
    multiple of it.  Without, it keeps current values only, and
    {!maybe_sample} and {!sample_now} do nothing.
    @raise Invalid_argument on a non-positive interval. *)

val interval : t -> Raid_net.Vtime.t option

(** {2 Registration}

    All registration functions raise [Invalid_argument] on a duplicate
    (name, labels) pair, a name already registered with another kind,
    an ill-formed metric name (expected [[a-zA-Z_][a-zA-Z0-9_]*]), or
    duplicate label keys.  Registration is O(1) expected time (a hash
    index over (name, labels)), so a registry can hold many clusters. *)

val counter : t -> ?labels:labels -> ?help:string -> string -> counter
(** An owned counter starting at 0; bump it with {!incr}/{!add}. *)

val polled_counter : t -> ?labels:labels -> ?help:string -> string -> (unit -> float) -> unit
(** A counter whose running total already lives elsewhere (e.g. a
    {!Raid_core.Metrics} field); the closure is polled at each sample
    and at export.  It must be monotone for the Prometheus [counter]
    type to be truthful — not checked. *)

val gauge : t -> ?labels:labels -> ?help:string -> string -> (unit -> float) -> unit
(** A polled instantaneous value (table sizes, queue depths). *)

val histogram : t -> ?labels:labels -> ?help:string -> ?buckets:float list -> string -> histogram
(** Cumulative-bucket histogram; [buckets] are upper bounds in strictly
    increasing order (default powers-of-two milliseconds 1..4096), with
    an implicit [+Inf] bucket appended.  Its sampled series records the
    observation count over time.
    @raise Invalid_argument on an empty or non-increasing bucket list. *)

(** {2 Updates (hot path)} *)

val incr : counter -> unit
val add : counter -> float -> unit
val observe : histogram -> float -> unit

(** {2 Sampling} *)

val maybe_sample : t -> at:Raid_net.Vtime.t -> unit
(** Record one point per metric, in registration order, for every
    multiple of the interval in ((last sampled due time), [at]]; each
    point is stamped with the due time, not [at].  Cheap when no
    boundary was crossed (one comparison); a no-op without an interval. *)

val sample_now : t -> at:Raid_net.Vtime.t -> unit
(** Record a final point stamped [at] — call once at the end of a run
    so the series cover the tail.  No-op if the last sample is already
    stamped [at], or without an interval. *)

(** {2 Read side / export} *)

type view = {
  v_name : string;
  v_labels : labels;  (** sorted by key *)
  v_help : string;
  v_kind : kind;
  v_value : float;
      (** counters: running total; gauges: polled now; histograms:
          observation count *)
  v_buckets : (float * int) list;
      (** histograms only: (upper bound, cumulative count), ending with
          the [+Inf] ([infinity]) bucket; empty otherwise *)
  v_sum : float;  (** histograms only: sum of observations *)
  v_series : Series.t;  (** empty in a registry without an interval *)
}

val views : t -> view list
(** Every registered metric, sorted by (name, rendered labels) — the
    deterministic export order. *)

val find : t -> ?labels:labels -> string -> view option
(** One hash lookup on (name, labels). *)

(** {2 Exporter support}

    What {!Prom} renders from: the registered metrics in export order,
    their current readings, and a per-metric slot for text an exporter
    renders once and reuses on every later export. *)

type metric

val sorted : t -> metric array
(** Every registered metric in export order (the {!views} order).  The
    array is cached until the next registration; do not mutate it. *)

val name : metric -> string
val metric_labels : metric -> labels
val help : metric -> string
val kind : metric -> kind

type reading =
  | Value of float  (** counters and gauges (polled now) *)
  | Buckets of { bounds : float array; counts : int array; sum : float; count : int }
      (** histograms: finite upper bounds, per-bucket (not cumulative)
          counts with the [+Inf] bucket last, sum and count of
          observations.  The arrays are the live ones: read, do not
          keep or mutate. *)

val read : metric -> reading

val text : metric -> (metric -> string array) -> string array
(** [text m render] is [render m], computed on the first call for [m]
    and returned from then on ([render] must return a non-empty array;
    one registry should be rendered by one exporter). *)

val to_csv : t -> string
(** Long-form CSV, one row per sampled point:
    [metric,labels,t_ms,value] with labels rendered as
    [key=value;key=value] (empty for an unlabelled metric) and times in
    milliseconds with microsecond precision. *)

val labels_string : labels -> string
(** [key=value;key=value], sorted by key; [""] when empty. *)

val float_repr : float -> string
(** Numeric rendering shared by the CSV and Prometheus exports:
    integers without a fraction part, other finite floats with 17
    significant digits (round-trip exact), and ["NaN"]/["+Inf"]/["-Inf"]
    for non-finite values. *)
