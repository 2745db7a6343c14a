(** One durable log shared by many tenants (erlang-ra's key design
    point): every tenant cluster in a shard funnels its durable records —
    redo entries, prepares, decisions, session bumps, checkpoints —
    through a single append-only log, so a batch of tenants amortizes one
    group commit instead of paying one fsync each.

    Like {!Wal}, nothing touches the file system; the log models a real
    device by its {e counts}: records, group commits (one fsync each),
    padded pages and bytes.  Records carry a 13-byte tenant/site-prefixed
    header and are group-committed once [group_size] records are pending
    (or on {!flush}): the commit pads the batch to a whole number of
    [page_bytes] pages.  A per-tenant-WAL configuration is simply
    [group_size = 1]: every record pays a full page and a flush of its
    own, which is exactly the fsync-per-tenant cost the shared log
    exists to avoid.

    The rolling digest is FNV-1a over the exact byte stream the commits
    would write — little-endian headers, then payload and padding as
    zero fill — computed in closed form: each header is folded in as it
    arrives, and a commit's zero fill as one multiply by a power of the
    FNV prime, so a commit's host work grows with its record count, not
    its byte count.  All counters and the digest are pure functions of the
    record sequence, so two runs that feed the log identically produce
    identical {!stats} — the property the multi-tenant determinism tests
    pin down.  The log itself is not thread-safe; in a sharded engine
    each domain owns its shard's log exclusively. *)

type kind = Redo | Prepare | Decision | Session | Checkpoint | Forget
(** What a record durably represents.  [Forget] covers dropping a
    prepare or decision record (presumed-abort bookkeeping). *)

type t
(** A shard log. *)

type handle
(** A tenant+site-scoped writer: the only way to append.  Handles are
    cheap; a site holds one and never sees the log of another shard. *)

type stats = {
  records : int;  (** records appended across all tenants *)
  flushes : int;  (** group commits performed *)
  pages : int;  (** padded pages written out by those commits *)
  bytes_logged : int;  (** payload + header bytes, before padding *)
  digest : int;  (** FNV-1a over every padded page committed, in order *)
}

val create : ?group_size:int -> ?page_bytes:int -> unit -> t
(** A fresh shard log.  [group_size] (default 64) is the number of
    pending records that triggers a group commit; [page_bytes]
    (default 4096) the device page size commits are padded to.
    @raise Invalid_argument if either is non-positive. *)

val attach : t -> tenant:int -> site:int -> handle
(** Scope a writer to one tenant's site. *)

val record : handle -> kind -> size:int -> unit
(** Append one record of [size] payload bytes under the handle's
    tenant/site prefix; group-commits automatically when the pending
    batch reaches [group_size].  @raise Invalid_argument on negative
    [size]. *)

val flush : t -> unit
(** Force a group commit of any pending records (end-of-quantum or
    shutdown barrier).  No-op when nothing is pending. *)

val stats : t -> stats
(** Deterministic given the record sequence.  Call after a final
    {!flush} if every record must be accounted to a page. *)
