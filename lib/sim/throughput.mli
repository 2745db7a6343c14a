(** Steady-state throughput measurement (beyond the paper's scale).

    The paper's experiments measure costs around a single failure and
    recovery at 4 sites and 50 items; this layer measures {e sustained}
    load on a configurable cluster: a serial open-loop transaction stream
    (arrivals never adapt to outcomes) runs for a fixed virtual duration
    with an optional failure + recovery at absolute virtual times mid-run.
    The deterministic result reports committed transactions per virtual
    second, the abort rate, and the host-side event count — the events/sec
    rate is computed by the caller from its own wall clock so the
    simulation output stays bit-identical across hosts and [-j] values. *)

type failure = { fail_site : int; fail_at_ms : float; recover_at_ms : float }

type config = {
  sites : int;
  items : int;
  max_ops : int;
  write_prob : float;
  duration_ms : float;  (** virtual run length *)
  failure : failure option;
  replication : Raid_core.Config.replication;
  zipf_theta : float option;  (** hot-spot skew; [None] keeps the uniform draw *)
}

val make_config :
  ?sites:int ->
  ?items:int ->
  ?max_ops:int ->
  ?write_prob:float ->
  ?duration_ms:float ->
  ?failure:failure ->
  ?replication:Raid_core.Config.replication ->
  ?zipf_theta:float ->
  unit ->
  config
(** Defaults: 16 sites, 500 items, txn <= 5 ops, P(write) 0.5, 10 000
    virtual ms, no failure, full replication, uniform items.
    @raise Invalid_argument on non-positive sizes/duration, an
    out-of-range [fail_site], or [recover_at_ms <= fail_at_ms]. *)

val default_failure : sites:int -> duration_ms:float -> failure
(** Site 0 down from 1/5 to 1/2 of the duration — computed once into
    absolute times, so extending the duration afterwards still yields a
    prefix-compatible schedule. *)

type window = {
  w_start_s : int;  (** window start, in whole virtual seconds *)
  w_committed : int;
  w_aborted : int;
  w_copiers : int;  (** copier transactions requested in this window *)
  w_faillocks_set : int;
  w_faillocks_cleared : int;
  w_messages : int;  (** messages submitted in this window *)
}
(** One virtual second of activity.  Commit/abort counts are exact per
    window; the protocol counters are cumulative snapshots at each
    window's last completed transaction, diffed between consecutive
    {e recorded} windows — activity in a second with no completions
    lands in the next recorded window. *)

type result = {
  seed : int;
  submitted : int;
  committed : int;
  aborted : int;
  copier_requests : int;
  faillocks_set : int;
  faillocks_cleared : int;
  virtual_ms : float;
  events : int;  (** messages delivered + timers fired *)
  messages_sent : int;
  recovered : bool;
  windows : window list;  (** ascending start time *)
  incidents : Raid_obs.Incident.t list;
      (** recovery timelines of the staged failure; empty without one *)
}

val run : ?seed:int -> ?telemetry:Raid_obs.Telemetry.t -> config -> result
(** One deterministic run: a pure function of [seed] and [config].
    [telemetry] is instrumented over the cluster
    ({!Raid_core.Cluster.create}) and sampled in virtual time as the
    stream runs, with a final sample at the end; it observes the run
    without changing any result field.  When [config] stages a failure,
    an {!Raid_obs.Incident.recorder} observes the run the same way and
    fills [result.incidents]. *)

val run_seeds : ?domains:int -> ?base_seed:int -> seeds:int -> config -> result list
(** [seeds] independent runs ([base_seed], [base_seed+1], ...) fanned out
    over the domain pool; result order and contents are bit-identical for
    any domain count. *)

val txns_per_vsec : result -> float
(** Committed transactions per virtual second. *)

val abort_rate : result -> float
(** Aborted / (committed + aborted); 0 on an empty run. *)

val results_table : config:config -> result list -> Raid_util.Table.t

type summary = {
  mean_txns_per_vsec : float;
  mean_abort_rate : float;
  total_events : int;
  incidents : int;  (** recorded over all runs *)
  complete_incidents : int;  (** of which crash and caught-up were both observed *)
  recovery_ms : (string * float) list;
      (** mean virtual ms per {!Raid_obs.Incident.phase}, in timeline
          order, over all incidents, then ["mttr"] over the complete ones
          when there are any; empty when no incident was recorded *)
}

val summary : result list -> summary
(** The runs' means: every field is virtual-time, hence deterministic. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line of means and totals, then one line of recovery-phase means
    when an incident was recorded; numbers to three decimals. *)

val windows_csv : result -> string
(** The per-virtual-second trajectory as CSV with header
    [virtual_s,committed,aborted,copier_requests,faillocks_set,faillocks_cleared,messages_sent]. *)
