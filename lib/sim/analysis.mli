(** Closed-form model of fail-lock dynamics.

    The paper observes (§3.1.2) that "the rate at which fail-locks are
    cleared is directly related to the percentage of data items
    fail-locked" — clearing is a coupon-collector process.  This module
    derives the expected curves from first principles and compares them
    with the simulation, closing the loop between the analytical and the
    experimental view of the protocol:

    - An operation writes one specific item with probability
      [write_prob / num_items]; over a transaction of size uniform in
      [1, max_ops], a given item receives at least one write with
      probability {!item_write_probability} [q].
    - During an outage, locks accumulate as
      [L(n) = I (1 - (1-q)^n)].
    - During a writes-driven recovery, the expected number of
      transactions to go from [j] to [j-1] locked items is
      [1 / (1 - (1-q)^j)], so clearing the last few locks dominates —
      exactly Figure 1's long tail. *)

val item_write_probability : num_items:int -> max_ops:int -> write_prob:float -> float
(** [q] above. *)

val expected_locked_after : q:float -> num_items:int -> txns:int -> float
(** Expected fail-locked items after an outage of [txns] transactions. *)

val expected_txns_to_clear : q:float -> from_locks:int -> to_locks:int -> float
(** Expected transactions (writes only) to shrink the locked set from
    [from_locks] to [to_locks].  @raise Invalid_argument unless
    [0 <= to_locks <= from_locks] and [0 < q <= 1]. *)

val comparison_table : Scaling.seed_summary -> Raid_util.Table.t
(** Model vs. the multi-seed simulation means of
    {!Scaling.experiment2_seeds} for Experiment 2's headline
    statistics. *)

val figure : ?seed:int -> unit -> Raid_util.Chart.t
(** Figure 1 with the measured series and the model curve overlaid. *)
