type kind = Redo | Prepare | Decision | Session | Checkpoint | Forget

type t = {
  group_size : int;
  page_bytes : int;
  buf : Buffer.t;  (* pending record headers, not yet committed *)
  mutable payload_pending : int;  (* payload bytes of pending records *)
  mutable pending : int;
  mutable records : int;
  mutable flushes : int;
  mutable pages : int;
  mutable bytes_logged : int;
  mutable digest : int;
}

type handle = { log : t; tenant : int; site : int }

type stats = {
  records : int;
  flushes : int;
  pages : int;
  bytes_logged : int;
  digest : int;
}

let create ?(group_size = 64) ?(page_bytes = 4096) () =
  if group_size <= 0 then invalid_arg "Shared_wal.create: non-positive group_size";
  if page_bytes <= 0 then invalid_arg "Shared_wal.create: non-positive page_bytes";
  {
    group_size;
    page_bytes;
    buf = Buffer.create 1024;
    payload_pending = 0;
    pending = 0;
    records = 0;
    flushes = 0;
    pages = 0;
    bytes_logged = 0;
    digest = 0x4bf29ce484222325;  (* FNV-1a offset basis, truncated to 63-bit int *)
  }

let attach log ~tenant ~site = { log; tenant; site }
let tenant h = h.tenant
let site h = h.site

let fnv_prime = 0x100000001b3

let flush t =
  if t.pending > 0 then begin
    let header = Buffer.contents t.buf in
    let header_len = String.length header in
    let len = header_len + t.payload_pending in
    let pages = (len + t.page_bytes - 1) / t.page_bytes in
    let padded = pages * t.page_bytes in
    (* Checksum every byte the commit writes out: the headers as stored,
       then payload and page padding as zero fill.  This is the honest
       per-page cost of the write-out — the work group commit amortizes
       across tenants — and it makes [digest] pin the exact byte stream,
       so determinism tests catch any reordering of tenant records.
       [d] is captured by no closure, so it stays in a register: a digest
       kept in a heap cell made every byte a store-load round trip, and
       the speed of that loop swung with the code's alignment. *)
    let d = ref t.digest in
    for i = 0 to header_len - 1 do
      d := (!d lxor Char.code (String.unsafe_get header i)) * fnv_prime
    done;
    for _ = header_len + 1 to padded do
      d := !d * fnv_prime
    done;
    t.digest <- !d land max_int;
    t.flushes <- t.flushes + 1;
    t.pages <- t.pages + pages;
    t.bytes_logged <- t.bytes_logged + len;
    Buffer.clear t.buf;
    t.payload_pending <- 0;
    t.pending <- 0
  end

let tag = function
  | Redo -> 0
  | Prepare -> 1
  | Decision -> 2
  | Session -> 3
  | Checkpoint -> 4
  | Forget -> 5

let record h kind ~size =
  if size < 0 then invalid_arg "Shared_wal.record: negative size";
  let t = h.log in
  Buffer.add_int32_le t.buf (Int32.of_int h.tenant);
  Buffer.add_int32_le t.buf (Int32.of_int h.site);
  Buffer.add_uint8 t.buf (tag kind);
  Buffer.add_int32_le t.buf (Int32.of_int size);
  t.payload_pending <- t.payload_pending + size;
  t.records <- t.records + 1;
  t.pending <- t.pending + 1;
  if t.pending >= t.group_size then flush t

let pending t = t.pending

let stats (t : t) : stats =
  {
    records = t.records;
    flushes = t.flushes;
    pages = t.pages;
    bytes_logged = t.bytes_logged;
    digest = t.digest;
  }

let pp_stats ppf s =
  Format.fprintf ppf "@[<h>records=%d flushes=%d pages=%d bytes=%d digest=%x@]" s.records
    s.flushes s.pages s.bytes_logged s.digest
