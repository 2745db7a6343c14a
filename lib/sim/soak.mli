(** Live soak harness: the engine behind [raid serve].

    Every other driver in this repository is batch — run, print, exit.
    This one keeps a cluster alive: an open-loop transaction stream
    advances virtual time {e paced against the wall clock} while a
    minimal HTTP server ({!Raid_obs.Http}) exposes the cluster for
    inspection and operator actions.  It is the task-manager-style
    operations surface of ROADMAP item 5 (cf. PlaceOS's cluster API):
    per-site status and load, kill-and-relaunch, live load adjustment.

    {2 One cluster}

    The soak hosts one cluster and drives it with one {!Raid_core.Driver},
    as the paper's managing site fails and recovers the sites of one
    cluster between numbered transactions.  Many independent clusters in
    one process are {!Raid_multi}'s job ([raid multi]).

    {2 Pacing model}

    The engine's virtual clock only advances when events are processed,
    so pacing works by {e admission}: each {!tick} computes the target
    virtual time [accel × wall-elapsed] and submits transactions (each
    runs to quiescence, like every serial driver here) until the
    virtual clock catches up, then pumps the HTTP server — handlers
    therefore always observe a quiescent cluster and run on the
    simulation's own domain, no locking anywhere.  [accel = 1.0] is
    real time, [10.0] is 10× fast-forward, [0.0] removes the throttle
    entirely (CI soaks).  An optional rate cap (settable at runtime via
    [POST /load]) bounds submissions per wall second independently.

    {2 Determinism caveat}

    A soak run is paced by the wall clock, so the {e number} of
    transactions processed — and hence any exported series — is not
    reproducible across runs; this is the one driver that trades the
    repository's byte-determinism for liveness.  What remains exact:
    given the same submitted prefix, the simulation state is the same
    (the stream is still a pure function of the seed), and a [/metrics]
    scrape is a faithful snapshot of a quiescent cluster.

    {2 Endpoints}

    - [GET /health] — liveness: uptime, virtual time, stream counters.
    - [GET /metrics] — Prometheus text exposition of the full telemetry
      registry ({!Raid_obs.Prom}), including per-site gauges, engine
      counters, txn-latency histograms, process gauges (uptime,
      events/sec, heap high-water) and [raid_build_info].
    - [GET /sites] — JSON per-site status ({!Raid_core.Cluster.status}):
      up/down/waiting, fail-lock counts, pending-2PC cardinality,
      buffered prepares, session up-count.
    - [GET /txns] — stream counters plus commit/abort latency histogram
      summaries.
    - [POST /sites/:id/fail], [POST /sites/:id/recover] — operator
      actions (409 when already in the target state or when failing the
      last operational site).  Recovering a blocked site (alive, still
      waiting for a donor) retries control 1.  [:id] is ASCII digits
      only; anything else is 404, as is an id past the last site.
    - [POST /load] — adjust the workload live: JSON body with any of
      [max_ops], [write_prob], [zipf_theta] (number or [null] to return
      to uniform) and [rate] (max txns per wall second, [0] or [null]
      to uncap). *)

type config = {
  sites : int;
  items : int;
  max_ops : int;
  write_prob : float;
  replication : Raid_core.Config.replication;
  zipf_theta : float option;
  accel : float;  (** virtual ms per wall ms; [0.] = as fast as possible *)
  seed : int;
  port : int;  (** [0] picks an ephemeral port *)
  duration_s : float option;  (** wall-clock bound; [None] = until {!stop} *)
}

val make_config :
  ?sites:int ->
  ?items:int ->
  ?max_ops:int ->
  ?write_prob:float ->
  ?replication:Raid_core.Config.replication ->
  ?zipf_theta:float ->
  ?accel:float ->
  ?seed:int ->
  ?port:int ->
  ?duration_s:float ->
  unit ->
  config
(** Defaults: 16 sites, 500 items, txn <= 5 ops, P(write)
    0.5, full replication, uniform items, real time ([accel = 1.0]),
    seed 42, ephemeral port, no duration bound.  @raise Invalid_argument on non-positive sizes, a negative
    [accel], or a non-positive [duration_s]. *)

type t

val create : config -> t
(** Build the cluster (telemetry attached), bind the HTTP server and
    return — no transaction has run yet.  @raise Unix.Unix_error when
    the port cannot be bound. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val cluster : t -> Raid_core.Cluster.t
(** The soak's cluster, the one operator fail/recover actions address. *)

val registry : t -> Raid_obs.Telemetry.t
(** The soak's registry.  It has no sampling interval: every endpoint
    reads current values, so it keeps no series history and a soak can
    run indefinitely without its telemetry growing. *)

val tick : ?timeout:float -> t -> unit
(** One pump iteration: admit transactions up to the pacing target (at
    most a small batch, to stay responsive), refresh the process
    gauges, then poll the HTTP server for up to [timeout] seconds
    (default 0.02).  A no-op once draining. *)

val stop : t -> unit
(** Request a graceful drain: no further transactions are admitted and
    {!run} returns after quiescing.  Safe to call from a signal
    handler. *)

type summary = {
  submitted : int;
  committed : int;
  aborted : int;
  virtual_ms : float;
  wall_s : float;
  events : int;  (** engine deliveries + timer firings *)
  requests : int;  (** HTTP requests answered *)
}

val shutdown : t -> summary
(** Drain the engine to quiescence, close the HTTP server and return
    the totals (idempotent). *)

val run : t -> summary
(** {!tick} until {!finished}, then {!shutdown}.  Install a SIGINT
    handler calling {!stop} beforehand for a graceful ctrl-C. *)

val summary : t -> summary
(** The totals so far, without shutting down. *)
