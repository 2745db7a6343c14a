type t = { capacity : int; bits : Bytes.t }

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; bits = Bytes.make ((capacity + 7) / 8) '\000' }

let capacity t = t.capacity

let copy t = { capacity = t.capacity; bits = Bytes.copy t.bits }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let set t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b lor (1 lsl (i land 7)))

let clear t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b land lnot (1 lsl (i land 7)))

let mem t i =
  check t i;
  Bytes.get_uint8 t.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

(* Top-level, so a call allocates no closure over [bits]. *)
let rec zero_from bits i =
  i >= Bytes.length bits || (Bytes.get bits i = '\000' && zero_from bits (i + 1))

let is_empty t = zero_from t.bits 0

let popcount_byte b =
  let b = b - ((b lsr 1) land 0x55) in
  let b = (b land 0x33) + ((b lsr 2) land 0x33) in
  (b + (b lsr 4)) land 0x0F

let clear_all t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

(* Or the bytes of [src] from [pos] into [dst], as many as [dst] has. *)
let union_bytes ~dst src pos =
  for i = 0 to Bytes.length dst.bits - 1 do
    Bytes.set_uint8 dst.bits i (Bytes.get_uint8 dst.bits i lor Bytes.get_uint8 src (pos + i))
  done

let equal a b = a.capacity = b.capacity && Bytes.equal a.bits b.bits

(* The set bits of one byte (whose first index is [base]) in increasing
   order: each step isolates the lowest set bit ([b land -b]) and clears
   it ([b land (b-1)]). *)
let iter_byte f base byte =
  let b = ref byte in
  while !b <> 0 do
    let lowest = !b land - !b in
    f (base + popcount_byte (lowest - 1));
    b := !b land (!b - 1)
  done

(* Members in increasing order, visiting only the set bits: zero bytes
   are skipped whole, so the cost is O(bytes + popcount) rather than
   O(capacity) tests. *)
let iter f t =
  for i = 0 to Bytes.length t.bits - 1 do
    let b = Bytes.get_uint8 t.bits i in
    if b <> 0 then iter_byte f (i lsl 3) b
  done

(* Rows of a slab: a row at [pos] is a [t]'s [bits], stored elsewhere. *)
let bytes_for capacity = (capacity + 7) / 8

let check_row t slab pos =
  if pos < 0 || pos + Bytes.length t.bits > Bytes.length slab then
    invalid_arg "Bitset: row out of slab bounds"

let store t slab pos =
  check_row t slab pos;
  Bytes.blit t.bits 0 slab pos (Bytes.length t.bits)

let load t slab pos =
  check_row t slab pos;
  Bytes.blit slab pos t.bits 0 (Bytes.length t.bits)

let rec equal_from bits slab pos i =
  i >= Bytes.length bits
  || (Bytes.get bits i = Bytes.get slab (pos + i) && equal_from bits slab pos (i + 1))

let equal_row t slab pos =
  check_row t slab pos;
  equal_from t.bits slab pos 0

let union_row_into ~dst slab pos =
  check_row dst slab pos;
  union_bytes ~dst slab pos

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])
