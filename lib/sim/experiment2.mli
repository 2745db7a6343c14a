(** Experiment 2: data availability on a recovering site (paper §3,
    Figure 1).

    Two sites, 50 items, maximum transaction size 5.  Site 0 fails before
    transaction 1; transactions 1-100 run on site 1; site 0 recovers
    before transaction 101; traffic then continues until site 0 is fully
    recovered.  The paper reports: over 90% of the copies fail-locked at
    the peak, roughly 160 further transactions to complete recovery, only
    two copier transactions, the first 10 fail-locks cleared within ~6
    transactions and the last 10 within ~106.

    The paper's two-copier count implies the managing site kept routing
    nearly all post-recovery transactions to the up site; the default
    [recovering_weight] reproduces that (see DESIGN.md).  Setting it to
    0.5 gives the alternating-coordinator variant (faster recovery, many
    copiers) studied in the ablations. *)

type stats = {
  peak_faillocks : int;  (** locks for the failed site when it comes back *)
  peak_fraction : float;  (** [peak_faillocks] over the configured item count *)
  txns_to_recover : int;  (** transactions after recovery until all clear *)
  copier_requests : int;
      (** copier requests of the post-recovery transactions' outcomes *)
  first_10_cleared_in : int option;
      (** transactions to go from the peak to peak-10 locks *)
  last_10_cleared_in : int option;  (** transactions spent below 10 locks *)
  aborted : int;
}

type t = {
  result : Runner.result;
  stats : stats;
  series : (float * float) list;  (** Figure 1: (txn number, locks for site 0) *)
}

val scenario :
  ?seed:int -> ?recovering_weight:float -> ?max_recovery_txns:int -> unit -> Scenario.t
(** The declarative scenario behind {!run}, for reuse by other drivers
    (e.g. {!Observe}): {!Scenario.outage} of site 0 for 100
    transactions, then [recovering_weight] of the coordinators at
    site 0.  Same defaults as {!run}. *)

val recovery : Runner.result -> site:int -> down_txns:int -> stats * (float * float) list
(** The recovery statistics and the Figure-1 series ([Runner.series]) of
    [site], for a schedule that opens with {!Scenario.outage} of [site]
    for [down_txns] transactions.  The peak is the lock count after the
    outage's last transaction (a down site's locks only grow);
    transactions to recover count from there to the last transaction
    run.  Experiment 2, ablations A1, A2 and A9 and the cluster-size
    sweep all read their peak and recovery length here. *)

val run : ?seed:int -> ?recovering_weight:float -> ?max_recovery_txns:int -> unit -> t
(** Defaults: seed 15, [recovering_weight] 0.05, bound 1200. *)

val figure : t -> Raid_util.Chart.t
(** The Figure-1 reproduction. *)

val summary_table : t -> Raid_util.Table.t
(** Paper-vs-measured summary statistics. *)
