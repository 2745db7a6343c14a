type kind = Redo | Prepare | Decision | Session | Checkpoint | Forget

type t = {
  group_size : int;
  page_bytes : int;
  mutable running : int;  (* [digest] folded over the pending headers *)
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

let offset_basis = 0x4bf29ce484222325  (* FNV-1a offset basis, truncated to 63-bit int *)
let fnv_prime = 0x100000001b3
let header_bytes = 13  (* tenant, site: int32; tag: byte; size: int32 *)

let create ?(group_size = 64) ?(page_bytes = 4096) () =
  if group_size <= 0 then invalid_arg "Shared_wal.create: non-positive group_size";
  if page_bytes <= 0 then invalid_arg "Shared_wal.create: non-positive page_bytes";
  { group_size; page_bytes; running = offset_basis; payload_pending = 0; pending = 0;
    records = 0; flushes = 0; pages = 0; bytes_logged = 0; digest = offset_basis }

let attach log ~tenant ~site = { log; tenant; site }

let fold_byte d b = (d lxor (b land 0xff)) * fnv_prime

(* The four bytes [Buffer.add_int32_le b (Int32.of_int x)] would store. *)
let fold_int32_le d x =
  fold_byte (fold_byte (fold_byte (fold_byte d x) (x lsr 8)) (x lsr 16)) (x lsr 24)

(* [b]{^ n} modulo 2{^ 63}, by squaring. *)
let rec pow b n =
  if n = 0 then 1 else
  let h = pow (b * b) (n lsr 1) in
  if n land 1 = 0 then h else b * h

let flush t =
  if t.pending > 0 then begin
    let header_len = header_bytes * t.pending in
    let len = header_len + t.payload_pending in
    let pages = (len + t.page_bytes - 1) / t.page_bytes in
    let padded = pages * t.page_bytes in
    (* [digest] pins the exact byte stream the commit writes out: the
       headers as stored, which [record] has already folded into
       [running], then payload and page padding as zero fill.  FNV-1a
       over a zero byte is a bare multiply by the prime, so the fill
       folds in as one multiply by a power of it. *)
    t.digest <- (t.running * pow fnv_prime (padded - header_len)) land max_int;
    t.running <- t.digest;
    t.flushes <- t.flushes + 1;
    t.pages <- t.pages + pages;
    t.bytes_logged <- t.bytes_logged + len;
    t.payload_pending <- 0;
    t.pending <- 0
  end

let tag = function
  | Redo -> 0 | Prepare -> 1 | Decision -> 2 | Session -> 3 | Checkpoint -> 4 | Forget -> 5

let record h kind ~size =
  if size < 0 then invalid_arg "Shared_wal.record: negative size";
  let t = h.log in
  let d = fold_int32_le (fold_int32_le t.running h.tenant) h.site in
  t.running <- fold_int32_le (fold_byte d (tag kind)) size;
  t.payload_pending <- t.payload_pending + size;
  t.records <- t.records + 1;
  t.pending <- t.pending + 1;
  if t.pending >= t.group_size then flush t


let stats (t : t) : stats =
  { records = t.records; flushes = t.flushes; pages = t.pages;
    bytes_logged = t.bytes_logged; digest = t.digest }
