(** Transaction workload generators.

    The paper's generator (§1.2): "a random number of operations (from 1
    to the maximum specified for the system)", "an equal probability of an
    operation being a read or a write", "each operation ... for a randomly
    chosen data item" — uniform over the frequently-referenced hot set.
    [uniform] reproduces it, with the read/write ratio exposed because the
    paper's §5 discussion analyses what a read-heavy mix would change.

    [et1] and [wisconsin] implement the two benchmarks the paper names as
    future work: the Tandem ET1/DebitCredit transaction [Anon85] and a
    Wisconsin-style scan/update mix [Bitt83], both mapped onto the dense
    item space. *)

type spec =
  | Uniform of { max_ops : int; write_prob : float }
      (** The paper's generator: size uniform in [1, max_ops], each op a
          write with probability [write_prob] (paper: 0.5), item uniform. *)
  | Zipfian of { max_ops : int; write_prob : float; theta : float }
      (** [Uniform]'s op-mix contract (size uniform in [1, max_ops], each
          op a write with probability [write_prob]) with zipf-distributed
          items: item 0 is the hottest, skew grows with
          [theta] in (0,1) (YCSB's parameterisation; 0.99 is its
          "zipfian" default).  Draws are rejection-free (Gray et al.), so
          the generator consumes exactly one uniform draw per item like
          [Uniform] does. *)
  | Et1 of { branches : int; tellers_per_branch : int; accounts_per_branch : int }
      (** DebitCredit: each transaction read-modify-writes one account,
          its teller and its branch.  The item space is carved into
          [branches] branch items, then teller items, then account items;
          [num_items] must be at least the implied total. *)
  | Wisconsin of { scan_length : int; update_ops : int; scan_prob : float }
      (** A mix of scan transactions ([scan_length] consecutive reads from
          a random offset) and update transactions ([update_ops]
          read-modify-write pairs on random items). *)

type t

val create : spec -> num_items:int -> rng:Raid_util.Rng.t -> t
(** @raise Invalid_argument when the spec is inconsistent with
    [num_items] (e.g. ET1 regions exceed the item space, non-positive
    sizes, probabilities outside [0,1]). *)

val next : t -> id:int -> Txn.t
(** Generate the transaction with serial number [id]. *)
