(** One transaction stream on one cluster: the managing site's job.

    The paper's managing site injects randomly generated transactions,
    one at a time, at an operational site, and fails and recovers sites
    between them (§1.2).  A driver is that loop, written once: each
    {!step} fires the failure-plan entries that are due, draws the next
    transaction id and transaction, picks a coordinator among
    {!Cluster.operational}, submits and tallies the outcome.

    The caller builds the workload and the coordinator generator, so
    the seed path of every stream is the caller's choice. *)

type trigger =
  | After_txns of int  (** due once the driver has submitted this many transactions *)
  | At_ms of float  (** due once the engine's virtual clock reaches this time *)

type action = Fail of int | Recover of int

type plan = (trigger * action) list
(** A failure schedule.  Entries fire in list order, once each, as soon
    as they are due: an entry is not considered before every earlier
    one has fired.  [Fail s] is {!Cluster.fail_site}; [Recover s] is
    {!Cluster.recover_site}, skipped when [s] is already up. *)

exception No_operational_site
(** Raised by {!step} when no coordinator is given and no site is
    operational.  Nothing is drawn or submitted in that case. *)

type t

val create :
  ?plan:plan -> Cluster.t -> workload:Workload.t -> rng:Raid_util.Rng.t -> t
(** A driver over [cluster].  [rng] is consumed only to choose
    coordinators; [plan] defaults to no failures. *)

val step : ?coordinator:int -> t -> Metrics.outcome
(** Fire every due plan entry, then run one transaction: take
    {!Cluster.next_txn_id} and [Workload.next], pick
    [Rng.choose rng (Cluster.operational cluster)] unless [coordinator]
    is given (the same draw, made without building the list), submit
    and tally.
    @raise No_operational_site as described above. *)

val set_workload : t -> Workload.t -> unit
(** Swap the transaction generator; tallies and plan are kept. *)

val cluster : t -> Cluster.t
val rng : t -> Raid_util.Rng.t

val submitted : t -> int
val committed : t -> int
val aborted : t -> int

val recovered : t -> int
(** Plan [Recover] entries that completed control transaction 1 (a
    blocked recovery does not count). *)
