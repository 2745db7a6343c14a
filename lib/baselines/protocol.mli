(** Baseline replicated-copy protocols for availability comparisons.

    The paper motivates ROWAA by its availability: "transaction processing
    [continues] as long as a single copy is available" (§1.1), unlike
    read-one/write-{e all} (which blocks every write while any site is
    down) and quorum consensus [Bern84]/[ElAb85] (which requires a
    majority).  These baselines let the benches quantify that claim on
    identical failure schedules and workloads.

    Both baselines run over the same {!Raid_net.Engine} substrate as
    ROWAA, as message-driven coordinators with a managing-site-maintained
    view of which sites are up.  They intentionally omit the machinery a
    production protocol would add around atomic commitment of multi-item
    transactions — the quantity compared here is availability (commit
    rate under failures) and message cost, not recovery behaviour. *)

type kind =
  | Strict_rowa
      (** read one local copy; a write must be installed at {e every}
          site, so any down site aborts all writing transactions *)
  | Quorum of { read_quorum : int; write_quorum : int }
      (** read [r] copies and take the newest; write [w] copies; requires
          [r + w > n].  Reads cost a round-trip; a transaction aborts
          when fewer than the needed sites are up. *)

val majority : num_sites:int -> kind
(** Majority quorums: r = w = ⌊n/2⌋ + 1. *)

type outcome = {
  txn : Raid_core.Txn.t;
  committed : bool;
  messages : int;  (** messages this transaction put on the wire *)
  elapsed : Raid_net.Vtime.t;  (** coordinator reception to completion *)
}

type t
(** A running baseline cluster. *)

val create :
  ?cost:Raid_core.Cost_model.t -> kind -> num_sites:int -> num_items:int -> unit -> t
(** @raise Invalid_argument on invalid quorum sizes. *)

val fail_site : t -> int -> unit
(** Crash a site; every survivor's view is updated (the comparison grants
    baselines free perfect failure detection, which only flatters them). *)

val recover_site : t -> int -> unit
(** Bring a site back (its copies may be stale; under quorum rules that
    is safe, under strict ROWA no update was ever missed). *)

val submit : t -> coordinator:int -> Raid_core.Txn.t -> outcome
(** Run one transaction to completion.
    @raise Invalid_argument if the coordinator is down. *)

val database : t -> int -> Raid_storage.Database.t
