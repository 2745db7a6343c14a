(** Causal span trees per transaction, assembled from the typed trace.

    A committed transaction's life is a tree: the root span covers
    begin → commit on the coordinator, its children are the phase
    windows ({e begin} — local reads, lock checks, setup — then the
    {e copy}, {e prepare} and {e commit} phases the coordinator
    entered), and below those sit the cross-site pairs: one {e fetch}
    span per copier request → reply (attributed to the source site) and
    one {e vote} span per prepare → vote (attributed to the
    participant).

    Phase windows tile the root span exactly — each runs to the next
    phase's start, the last to the terminal event — so the
    {!critical_path} step durations always sum to the transaction's
    end-to-end latency, the same number the [raid_txn_latency_ms]
    histogram observed for this transaction.

    Assembly is a pure fold over collected entries (deterministic for
    any [-j]).  The ring collector only ever drops the {e oldest}
    prefix of the stream, so a tree whose [Txn_begin] survived is
    structurally complete once its terminal arrives; trees missing
    either end carry [complete = false] and {!render} says so rather
    than printing a silently truncated timeline. *)

type span = {
  name : string;
  site : int;  (** the site the time is attributed to *)
  started : Raid_net.Vtime.t;
  finished : Raid_net.Vtime.t;
  ended_by : int option;
      (** position in the assembled entry list of the entry that ends
          this span: the vote, the copy reply, the next phase's
          [Phase_enter], or the commit or abort.  [None] for an
          unanswered fetch and for a span cut off by a missing
          terminal. *)
  children : span list;
}

type tree = {
  txn : int;
  coordinator : int;
  committed : bool;
  reason : string option;  (** abort reason, when aborted *)
  reads : int;
  writes : int;
  complete : bool;  (** begin and terminal both observed *)
  root : span;
}

type step = {
  step_name : string;
  step_site : int;  (** the site this step's duration is blamed on *)
  step_from : Raid_net.Vtime.t;
  step_until : Raid_net.Vtime.t;
  step_note : string;  (** human attribution, e.g. "last vote: site 3" *)
}

val latency : tree -> Raid_net.Vtime.t
(** Root span duration = the transaction's measured latency. *)

val assemble : Trace.entry list -> tree list
(** One tree per transaction id seen (copier batch rounds — negative
    ids — are excluded), sorted by id. *)

val find : tree list -> int -> tree option

val slowest : tree list -> tree option
(** The longest complete committed transaction (falling back to any
    tree when none committed) — the default subject of [raid explain]. *)

val critical_path : tree -> step list
(** The phase windows in order, each blamed on its slowest child: the
    copy phase on the slowest fetch's source, the prepare phase on the
    last vote's participant, begin/commit on the coordinator.  Step
    durations are contiguous and sum exactly to {!latency}. *)

val json : tree -> Json.t
(** Nested span tree plus the critical path (the [raid serve] per-txn
    lookup body). *)

val render : tree -> string
(** Multi-line human rendering: header, indented span tree, critical
    path with a total line. *)
