(** Protocol messages exchanged between sites (and injected by the
    managing site).

    One constructor per arrow in the paper's protocol: the two-phase
    commit of Appendix A, copier transactions and their fail-lock-clearing
    special transaction (§1.2), and control transactions types 1-3.
    [Begin_txn], [Recover_command] and [Failure_noticed] are managing-site
    inputs. *)

type t =
  | Begin_txn of Txn.t
      (** managing site hands a database transaction to the coordinator *)
  | Recover_command
      (** managing site tells a down site to start recovery (control-1) *)
  | Failure_noticed of int list
      (** managing site tells a surviving site which sites failed
          (immediate-detection mode); the receiver runs control-2 *)
  | Terminate_command
      (** managing site asks a site to shut down gracefully: it announces
          its departure (entering the paper's [Terminating] state) so that
          survivors need neither a timeout nor control transaction 2 *)
  | Departure_announce of { site : int }
  | Prepare of {
      txn : int;
      writes : Raid_storage.Database.write list;
      cleared : int list;
          (** with [Config.embed_clears]: items whose fail-lock bit for
              the coordinating site was cleared by copier transactions,
              piggy-backed instead of a separate special transaction *)
    }
  | Prepare_ack of { txn : int }
  | Commit of { txn : int }
  | Commit_ack of { txn : int }
  | Abort of { txn : int; cleared : int list }
  | Copy_request of { txn : int; items : int list }
      (** copier transaction: fetch up-to-date copies; [txn] is the
          requesting database transaction (or a synthetic id for batch
          copiers) *)
  | Copy_reply of { txn : int; writes : Raid_storage.Database.write list }
  | Copy_unavailable of { txn : int; items : int list }
      (** source no longer has an up-to-date copy of these items *)
  | Faillocks_cleared of { site : int; items : int list }
      (** the special transaction informing other sites of fail-lock bits
          cleared by copier transactions *)
  | Recovery_announce of { site : int; session : int; want_state : bool }
      (** control-1; [want_state] asks the receiver to reply with its
          session vector and fail-locks (the paper fetches state from one
          operational site) *)
  | Recovery_state of {
      vector : Session.t;
      faillocks : Faillock.t;
      backups : (int * int list) list;
          (** the donor's dynamic placement extras ([(item, sites)]), so
              control-3 backups created while the recoverer was down are
              not forgotten; the static placement needs no shipping *)
    }
  | Failure_announce of { failed : int list }  (** control-2 *)
  | Backup_copy of { target : int; write : Raid_storage.Database.write }
      (** control-3: [target] must materialise the copy; other receivers
          just update their placement view *)
  | Faillock_hint of { for_site : int; items : int list }
      (** partial replication, control-1: a holder tells the recovering
          site [for_site] which of its items missed updates — the state
          donor may not hold (hence not track) them.  Also sent by a
          coordinator whose [Commit] to a participant bounced: the
          witness bits it is about to set exist nowhere else, so it
          broadcasts them — otherwise a state donor other than the
          coordinator would ship the dead participant a fail-lock table
          missing its own staleness *)
  | Txn_status_request of { txn : int }
      (** in-doubt resolution: a recovering participant with a durably
          buffered prepare asks the transaction's coordinator for the
          outcome *)
  | Txn_status_reply of { txn : int; committed : bool }
      (** coordinator's answer, from its durable decision record (or
          live coordinator state); absence of a record means presumed
          abort *)

val kind : t -> string
(** Stable snake_case tag of the constructor alone ("prepare",
    "copy_request", ...) — unlike {!describe} it carries no transaction
    ids, so it is usable as a metric label. *)

val kind_index : t -> int
(** The constructor's position in declaration order, in
    [0 .. kind_count - 1]: a dense key for per-kind counters, so a probe
    indexes an array instead of hashing {!kind}. *)

val kind_count : int

val kind_of_index : int -> string
(** [kind_of_index (kind_index m) = kind m].
    @raise Invalid_argument outside [0 .. kind_count - 1]. *)

val all_kinds : string list
(** The {!kind} values pre-registered for aligned telemetry series, in
    constructor order.  ["faillock_hint"] and the in-doubt resolution
    kinds ["txn_status_request"]/["txn_status_reply"] are deliberately
    absent — they only flow on rare paths (partial replication,
    recovery with a buffered prepare), and the common-case metric set
    must stay unchanged; instrumentation registers unlisted kinds on
    first use. *)

val describe : t -> string
(** Short human-readable tag for traces and logs. *)
