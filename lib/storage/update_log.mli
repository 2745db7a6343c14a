(** Per-site append-only log of applied updates.

    mini-RAID factored real I/O out; this log is the accounting artefact
    that lets tests check write durability ("a committed write is present
    at every site that was operational at commit time") and lets
    in-doubt resolution and the oracles ask which transaction applied
    which version of which item, in application order. *)

type t
(** Stored as chunks of three parallel [int] arrays (transaction, item,
    version), each chunk as large as all before it, so neither
    {!append} (beyond a new chunk when the last is full) nor {!exists}
    allocates, growth copies nothing, and the log holds no pointer. *)

val create : unit -> t

val append : t -> txn:int -> Database.write -> unit
(** Record that [txn] applied the write: its item and version, 3 words
    an entry.  The write's value is not kept, nor the write itself. *)

val exists : t -> (txn:int -> item:int -> version:int -> bool) -> bool
(** Whether any entry satisfies the predicate, scanning newest first
    without copying the log or building an entry. *)
