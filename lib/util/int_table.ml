(* Linear probing over a power-of-two bucket array kept at most three
   quarters full.  Fibonacci hashing takes a key's home bucket from the
   top bits of [key * 2^62/phi], so keys that differ only in high bits
   (multiples of a power of two) still spread.  Slots come from a stack
   of free ones; the stack and the bucket arrays grow by doubling. *)
type t = {
  mutable keys : int array;  (* buckets: a key, or [no_key] *)
  mutable slots : int array;  (* buckets: the slot of [keys.(i)] *)
  mutable shift : int;  (* [63 - log2 (Array.length keys)], for [home] *)
  mutable length : int;
  mutable free : int array;  (* free slots: [free.(0 .. free_top - 1)] *)
  mutable free_top : int;
}

let absent = -1
let no_key = -1

(* A table without entries shares this one-bucket index: probing it
   finds [no_key] at once, and [add] grows the index before writing to
   it, so it is never written.  Most tables never hold an entry. *)
let empty_keys = [| no_key |]
let empty_slots = [| 0 |]

let create () =
  { keys = empty_keys; slots = empty_slots; shift = 63; length = 0; free = [||]; free_top = 0 }

let length t = t.length
let capacity t = Array.length t.free

let home t key = (key * 0x278DDE6E5FD29F05) lsr t.shift
let next t i = (i + 1) land (Array.length t.keys - 1)

(* The probes are top-level functions, not local closures: a closure
   over [t] and [key] would be allocated on every lookup.  [no_key] is
   tested first, so a negative key is never found. *)
let rec probe t key i =
  let k = t.keys.(i) in
  if k = no_key then absent else if k = key then t.slots.(i) else probe t key (next t i)

let find t key = probe t key (home t key)
let mem t key = find t key <> absent

let rec insert_key t key slot i =
  if t.keys.(i) = no_key then begin
    t.keys.(i) <- key;
    t.slots.(i) <- slot
  end
  else insert_key t key slot (next t i)

let grow_index t =
  let keys = t.keys and slots = t.slots in
  let buckets = 2 * Array.length keys in
  t.keys <- Array.make buckets no_key;
  t.slots <- Array.make buckets 0;
  t.shift <- t.shift - 1;
  Array.iteri (fun i key -> if key <> no_key then insert_key t key slots.(i) (home t key)) keys

(* A free slot, doubling the stack when every slot is taken: the new
   slots are handed out in increasing order. *)
let take_slot t =
  if t.free_top = 0 then begin
    let used = Array.length t.free in
    let capacity = max 2 (2 * used) in
    t.free <- Array.init capacity (fun i -> capacity - 1 - i);
    t.free_top <- capacity - used
  end;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

let add t key =
  let slot = find t key in
  if slot <> absent then slot
  else begin
    if key < 0 then invalid_arg "Int_table.add: negative key";
    if 4 * (t.length + 1) > 3 * Array.length t.keys then grow_index t;
    let slot = take_slot t in
    insert_key t key slot (home t key);
    t.length <- t.length + 1;
    slot
  end

(* Backward-shift deletion: walk the run after the emptied bucket and
   move back every entry whose home does not lie cyclically in
   (hole, j], so every entry stays reachable from its home without
   tombstones. *)
let rec shift_back t hole j =
  let j = next t j in
  let key = t.keys.(j) in
  if key = no_key then t.keys.(hole) <- no_key
  else
    let h = home t key in
    if if hole <= j then hole < h && h <= j else hole < h || h <= j then shift_back t hole j
    else begin
      t.keys.(hole) <- key;
      t.slots.(hole) <- t.slots.(j);
      shift_back t j j
    end

let rec bucket_of t key i =
  let k = t.keys.(i) in
  if k = no_key then absent else if k = key then i else bucket_of t key (next t i)

let remove t key =
  let i = bucket_of t key (home t key) in
  if i = absent then absent
  else begin
    let slot = t.slots.(i) in
    shift_back t i i;
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1;
    t.length <- t.length - 1;
    slot
  end

let reset t =
  t.keys <- empty_keys;
  t.slots <- empty_slots;
  t.shift <- 63;
  t.length <- 0;
  t.free <- [||];
  t.free_top <- 0

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i key -> if key <> no_key then acc := f key t.slots.(i) !acc) t.keys;
  !acc

let keys t = List.sort compare (fold (fun key _ acc -> key :: acc) t [])

let fit t a filler =
  let n = Array.length a in
  if n >= capacity t then a
  else begin
    let b = Array.make (capacity t) filler in
    Array.blit a 0 b 0 n;
    b
  end

let copy t = { t with keys = Array.copy t.keys; slots = Array.copy t.slots; free = Array.copy t.free }
