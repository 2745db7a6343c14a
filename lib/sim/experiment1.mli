(** Experiment 1: overhead measurements (paper §2).

    Three sub-experiments on the paper's configuration (4 sites, 50
    items, maximum transaction size 10):
    - {!faillock_overhead}: transaction times at coordinating and
      participating sites with the fail-lock maintenance code removed
      vs. included (§2.2.1, paper: 176→186 ms and 90→97 ms).
    - control transaction costs (§2.2.2, paper:
      type 1 = 190 ms at the recovering site and 50 ms at an operational
      site; type 2 = 68 ms).
    - {!copier_overhead}: a database transaction that triggers one copier
      transaction (§2.2.3, paper: 270 ms, +45% over 186 ms; copy-request
      service 25 ms; fail-lock clearing 20 ms per site; the clearing
      traffic is roughly a third of the added cost).

    All times are virtual (cost-model) milliseconds; [paper_ms] carries
    the published number for side-by-side reporting. *)

type row = {
  label : string;
  paper_ms : float;
  measured_ms : float;
  samples : int;
}

type report = {
  title : string;
  rows : row list;
  notes : string list;
}

val faillock_overhead : ?txns:int -> ?seed:int -> unit -> report
(** [txns] transactions (default 400) are run twice — without and with
    fail-lock maintenance — over the same workload stream. *)

val copier_overhead : ?trials:int -> ?seed:int -> unit -> report
(** [trials] (default 200) controlled trials: fail a site, lock one item,
    recover it, then coordinate a transaction there whose first operation
    reads the fail-locked item. *)

val all : ?seed:int -> unit -> report list

val to_table : report -> Raid_util.Table.t
