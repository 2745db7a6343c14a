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

val create : unit -> t
val append : t -> entry -> unit
val length : t -> int

val entries : t -> entry list
(** In application order. *)

val exists : t -> (entry -> bool) -> bool
(** Whether any entry satisfies the predicate, scanning newest first
    without copying the log. *)

val entries_for_item : t -> int -> entry list
(** Applications touching one item, in order. *)

val last_version_of : t -> int -> int option
(** Highest version this log has applied for the item. *)
