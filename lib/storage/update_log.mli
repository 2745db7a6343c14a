(** Per-site append-only log of applied updates.

    mini-RAID factored real I/O out; this log is the accounting artefact
    that lets tests check write durability ("a committed write is present
    at every site that was operational at commit time") and lets
    in-doubt resolution and the oracles ask which transaction applied
    which write, in application order. *)

type entry = {
  txn : int;  (** transaction (or copier/control) identifier *)
  write : Database.write;
}

type t
(** Stored as chunks of parallel arrays of transaction ids and writes,
    each chunk as large as all before it, so neither {!append} (beyond
    a new chunk when the last is full) nor {!exists} allocates, and
    growth copies nothing. *)

val create : unit -> t

val append : t -> txn:int -> Database.write -> unit
(** Record that [txn] applied the write.  The log keeps the write record
    itself, not a copy. *)

val length : t -> int

val entries : t -> entry list
(** In application order; builds a fresh list of fresh entries. *)

val exists : t -> (txn:int -> Database.write -> bool) -> bool
(** Whether any entry satisfies the predicate, scanning newest first
    without copying the log or building an entry. *)
