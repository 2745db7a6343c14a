(** Scenario execution and per-transaction series collection.

    The runner plays the managing site: it walks a {!Scenario.t}'s action
    list, generates workload transactions, picks coordinators per policy,
    and records after every transaction the data behind the paper's
    figures — the number of items fail-locked for each site, cumulative
    copier transactions and aborts. *)

type txn_record = {
  index : int;  (** serial transaction number, from 1 *)
  outcome : Raid_core.Metrics.outcome;
  faillocks_per_site : int array;
      (** oracle fail-lock count for each site, after this transaction *)
  cumulative_aborts : int;
  cumulative_copiers : int;
}

type result = {
  cluster : Raid_core.Cluster.t;  (** final state, quiescent *)
  records : txn_record list;  (** in execution order *)
  committed : int;
  aborted : int;
  operational_at_commit : (int, int list) Hashtbl.t;
      (** txn id -> sites alive at completion (for durability checks) *)
}

val run :
  ?check_invariants:bool ->
  ?trace:bool ->
  ?obs:Raid_obs.Trace.sink ->
  ?telemetry:Raid_obs.Telemetry.t ->
  Scenario.t ->
  result
(** Execute the scenario.  With [check_invariants] (default true), the
    DESIGN.md invariants are verified after every action and a [Failure]
    is raised on violation — experiments double as protocol tests.
    [trace] turns on the network engine's message trace; [obs] receives
    the sites' protocol trace; [telemetry] is instrumented over the
    cluster and sampled in virtual time ({!Observe} attaches all three
    and assembles the pipeline).  All default to off, which costs
    nothing.

    @raise Invalid_argument if a [Fixed] coordinator is down when a
    transaction must be issued, or no site is operational. *)

val series : result -> site:int -> (float * float) list
(** (transaction number, fail-locks for [site]) — a figure's data. *)

val abort_count : result -> int

val final_faillocks : result -> site:int -> int
