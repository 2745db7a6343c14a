(** Declarative experiment scenarios.

    Each of the paper's experiments is a schedule of managing-site actions
    taken at transaction boundaries ("Before transaction 26, we brought
    site 0 up and failed site 1", §4.2.1).  A scenario is that schedule:
    a configuration, a workload, a coordinator policy and an action
    list. *)

type coordinator_policy =
  | Fixed of int  (** all transactions to one site (must be operational) *)
  | Uniform_random  (** uniform over currently-operational sites *)
  | Weighted of (int * float) list
      (** weighted random over the operational subset of the listed
          sites; weights of down sites are renormalised away *)
  | Round_robin
      (** cycle through operational sites in id order *)

type action =
  | Run_txns of int  (** generate and process this many transactions *)
  | Fail of int
  | Recover of int
  | Set_policy of coordinator_policy
  | Run_until_recovered of { site : int; max_txns : int }
      (** keep processing transactions until no item is fail-locked for
          [site] (or the bound is hit) *)
  | Run_until_consistent of { max_txns : int }
      (** ... until [Cluster.fully_consistent] *)

type t = {
  config : Raid_core.Config.t;
  detection : Raid_core.Cluster.detection;
  workload : Raid_core.Workload.spec;
  policy : coordinator_policy;
  seed : int;
  actions : action list;
}

val make :
  ?detection:Raid_core.Cluster.detection ->
  ?policy:coordinator_policy ->
  ?seed:int ->
  config:Raid_core.Config.t ->
  workload:Raid_core.Workload.spec ->
  action list ->
  t
(** Defaults: immediate detection, [Uniform_random] policy, seed 42. *)

(** {2 Schedules shared by the studies} *)

val outage :
  ?route:coordinator_policy ->
  site:int ->
  down_txns:int ->
  max_recovery_txns:int ->
  unit ->
  action list
(** One outage, the shape of Experiment 2 (Figure 1): [Fail site],
    [Run_txns down_txns], [Recover site], then [Set_policy route] when
    [route] is given, then [Run_until_recovered] for [site] bounded by
    [max_recovery_txns].  Experiment 2, ablations A1, A2 and A9, the
    cluster-size sweep, the [exp1] observed scenario and [raid scenario]
    all run this schedule. *)

val cycles :
  ?before:int -> cycles:int -> site:int -> down_txns:int -> max_txns:int -> unit -> action list
(** [cycles] back-to-back {!outage}s of [site] (no routing change), each
    preceded by [Run_txns before] when [before > 0] (default 0): the
    repeated fail/recover cycles behind Experiment 1b's control
    transaction costs, the control-1 scaling sweep and ablation A8. *)
