module Bitset = Raid_util.Bitset

type hook = item:int -> site:int -> locked:bool -> unit

(* Sparse representation: one row per item *with at least one bit set*,
   plus per-site counts.  At paper scale (every item locked for a failed
   site) this costs the same as a dense array of bitmaps; at placement
   scale (1024 sites x 10^5 items, k holders per item) the dense table
   is ~13 GB while the sparse one is proportional to the actual
   inconsistency.

   Rows live in one [Bytes] slab, [row_bytes] bytes per row slot, with a
   stack of free slots; an int-to-int open-addressing index maps an item
   to its slot.  Creating a row therefore allocates nothing (beyond
   amortised growth), where a [Bitset] and a hash-table bucket per row
   gave the minor collector three blocks to promote for every row an
   outage creates.  Invariants: an item is in the index iff its row is
   non-empty, and every free slot's bytes are zero. *)
type t = {
  num_items : int;
  num_sites : int;
  row_bytes : int;
  mutable slab : Bytes.t;  (* slot [s] is the row at byte [s * row_bytes] *)
  mutable free : int array;  (* free slots: [free.(0 .. free_top - 1)] *)
  mutable free_top : int;
  mutable keys : int array;  (* index buckets: an item, or [no_item] *)
  mutable slots : int array;  (* index buckets: the slot of [keys.(i)] *)
  mutable shift : int;  (* [63 - log2 (Array.length keys)], for [home] *)
  mutable rows : int;
  counts : int array;  (* per-site number of locked items *)
  mutable total : int;
  mutable hook : hook option;
}

let no_item = -1
let no_row = -1

(* A table without rows shares this one-bucket index: probing it finds
   [no_item] at once, and [add_row] grows the index before writing to
   it, so it is never written.  Most tables never hold a row. *)
let empty_keys = [| no_item |]
let empty_slots = [| 0 |]

let create ~num_items ~num_sites =
  if num_items < 0 then invalid_arg "Faillock.create: negative num_items";
  if num_sites <= 0 then invalid_arg "Faillock.create: num_sites must be positive";
  {
    num_items;
    num_sites;
    row_bytes = Bitset.bytes_for num_sites;
    slab = Bytes.empty;
    free = [||];
    free_top = 0;
    keys = empty_keys;
    slots = empty_slots;
    shift = 63;
    rows = 0;
    counts = Array.make num_sites 0;
    total = 0;
    hook = None;
  }

let set_hook t hook = t.hook <- hook

(* Fire the observability hook on an actual bit transition.  With no
   hook installed (the default) this is a single branch. *)
let notify t ~item ~site ~locked =
  match t.hook with None -> () | Some hook -> hook ~item ~site ~locked

let check_item t item =
  if item < 0 || item >= t.num_items then invalid_arg "Faillock: item out of range"

let check_site t site =
  if site < 0 || site >= t.num_sites then invalid_arg "Faillock: site out of range"

(* {2 The index}

   Linear probing over a power-of-two bucket array kept at most three
   quarters full.  Fibonacci hashing takes an item's home bucket from
   the top bits of [item * 2^62/phi], so items that differ only in high
   bits (multiples of a power of two) still spread. *)

let home t item = (item * 0x278DDE6E5FD29F05) lsr t.shift

let next t i = (i + 1) land (Array.length t.keys - 1)

(* The probes are top-level functions, not local closures: a closure
   over [t] and [item] would be allocated on every lookup. *)
let rec probe t item i =
  let key = t.keys.(i) in
  if key = item then t.slots.(i) else if key = no_item then no_row else probe t item (next t i)

let find_slot t item = probe t item (home t item)

let rec insert_key t item slot i =
  if t.keys.(i) = no_item then begin
    t.keys.(i) <- item;
    t.slots.(i) <- slot
  end
  else insert_key t item slot (next t i)

let grow_index t =
  let keys = t.keys and slots = t.slots in
  let buckets = 2 * Array.length keys in
  t.keys <- Array.make buckets no_item;
  t.slots <- Array.make buckets 0;
  t.shift <- t.shift - 1;
  Array.iteri (fun i key -> if key <> no_item then insert_key t key slots.(i) (home t key)) keys

(* Backward-shift deletion: walk the run after the emptied bucket and
   move back every entry whose home does not lie cyclically in
   (hole, j], so every entry stays reachable from its home without
   tombstones. *)
let rec bucket_of t item i = if t.keys.(i) = item then i else bucket_of t item (next t i)

let rec shift_back t hole j =
  let j = next t j in
  let key = t.keys.(j) in
  if key = no_item then t.keys.(hole) <- no_item
  else
    let h = home t key in
    if if hole <= j then hole < h && h <= j else hole < h || h <= j then shift_back t hole j
    else begin
      t.keys.(hole) <- key;
      t.slots.(hole) <- t.slots.(j);
      shift_back t j j
    end

let remove_key t item =
  let i = bucket_of t item (home t item) in
  shift_back t i i

(* {2 Rows} *)

(* Byte offset of [item]'s row in the slab, or [no_row]. *)
let find_row t item =
  let slot = find_slot t item in
  if slot = no_row then no_row else slot * t.row_bytes

let row t item =
  check_item t item;
  find_row t item

let mem_bit t row site = Bytes.get_uint8 t.slab (row + (site lsr 3)) land (1 lsl (site land 7)) <> 0

let set_bit t row site =
  let i = row + (site lsr 3) in
  Bytes.set_uint8 t.slab i (Bytes.get_uint8 t.slab i lor (1 lsl (site land 7)))

let clear_bit t row site =
  let i = row + (site lsr 3) in
  Bytes.set_uint8 t.slab i (Bytes.get_uint8 t.slab i land lnot (1 lsl (site land 7)))

let rec zero_from t row i =
  i >= t.row_bytes || (Bytes.get t.slab (row + i) = '\000' && zero_from t row (i + 1))

let row_is_empty t row = zero_from t row 0

(* A free, all-zero slot, doubling the slab when every slot is taken. *)
let take_slot t =
  if t.free_top = 0 then begin
    let used = Bytes.length t.slab / t.row_bytes in
    let capacity = max 8 (2 * used) in
    let slab = Bytes.make (capacity * t.row_bytes) '\000' in
    Bytes.blit t.slab 0 slab 0 (Bytes.length t.slab);
    t.slab <- slab;
    t.free <- Array.init capacity (fun i -> capacity - 1 - i);
    t.free_top <- capacity - used
  end;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

(* Rows are added and removed only through these two.  [add_row]
   returns the new, empty row's offset. *)
let add_row t item =
  if 4 * (t.rows + 1) > 3 * Array.length t.keys then grow_index t;
  let slot = take_slot t in
  insert_key t item slot (home t item);
  t.rows <- t.rows + 1;
  slot * t.row_bytes

let remove_row t item row =
  remove_key t item;
  Bytes.fill t.slab row t.row_bytes '\000';
  t.free.(t.free_top) <- row / t.row_bytes;
  t.free_top <- t.free_top + 1;
  t.rows <- t.rows - 1

(* A row's members, as a fresh bitset (for the uncommon readers). *)
let row_bitset t row =
  let b = Bitset.create t.num_sites in
  Bitset.load b t.slab row;
  b

let is_locked t ~item ~site =
  check_site t site;
  let row = row t item in
  row <> no_row && mem_bit t row site

(* Raw bit updates maintaining counts/total and the non-empty-row
   invariant; return whether the bit actually transitioned.  The public
   [set]/[clear] add hook notification on top. *)
let set_raw t ~item ~site =
  check_site t site;
  let row = row t item in
  let row = if row = no_row then add_row t item else row in
  if mem_bit t row site then false
  else begin
    set_bit t row site;
    t.counts.(site) <- t.counts.(site) + 1;
    t.total <- t.total + 1;
    true
  end

let clear_raw t ~item ~site =
  check_site t site;
  let row = row t item in
  if row <> no_row && mem_bit t row site then begin
    clear_bit t row site;
    t.counts.(site) <- t.counts.(site) - 1;
    t.total <- t.total - 1;
    if row_is_empty t row then remove_row t item row;
    true
  end
  else false

let set t ~item ~site =
  let fresh = set_raw t ~item ~site in
  if fresh then notify t ~item ~site ~locked:true;
  fresh

let clear t ~item ~site =
  let was_set = clear_raw t ~item ~site in
  if was_set then notify t ~item ~site ~locked:false;
  was_set

let update_for t ~item ~site ~up ~set:set_count ~cleared =
  if up then begin
    if clear_raw t ~item ~site then begin
      incr cleared;
      notify t ~item ~site ~locked:false
    end
  end
  else if set_raw t ~item ~site then begin
    incr set_count;
    notify t ~item ~site ~locked:true
  end

(* A bit transition found by a row diff: counts, total, tally and hook
   move exactly as [set_raw]/[clear_raw] plus [notify] would move them. *)
let transition t ~item ~site ~locked ~set ~cleared =
  if locked then begin
    t.counts.(site) <- t.counts.(site) + 1;
    t.total <- t.total + 1;
    incr set
  end
  else begin
    t.counts.(site) <- t.counts.(site) - 1;
    t.total <- t.total - 1;
    incr cleared
  end;
  notify t ~item ~site ~locked

(* Make [item]'s row equal to [target] (read, never kept; empty means
   no row).  The transitions are [row xor target] in increasing site
   order — the order a set/clear sweep over every site produced them — so
   counts, tallies and the hook see the same sequence, at a cost of
   O(sites/8 + transitions) instead of one row probe per site. *)
let assign_row t ~item ~target ~set ~cleared =
  let row = find_row t item in
  if row = no_row then begin
    if not (Bitset.is_empty target) then begin
      Bitset.iter (fun site -> transition t ~item ~site ~locked:true ~set ~cleared) target;
      let row = add_row t item in
      Bitset.store target t.slab row
    end
  end
  (* Equal rows (the steady state of an outage) need no diff at all. *)
  else if not (Bitset.equal_row target t.slab row) then begin
    Bitset.iter_diff_row
      (fun site -> transition t ~item ~site ~locked:(Bitset.mem target site) ~set ~cleared)
      target t.slab row;
    if Bitset.is_empty target then remove_row t item row else Bitset.store target t.slab row
  end

(* With no locked bit anywhere and every site up (the steady state of a
   failure-free run) the row is absent and stays absent: skip the index
   probe. *)
let commit_update t ~item ~down ~set ~cleared =
  check_item t item;
  if Bitset.capacity down <> t.num_sites then
    invalid_arg "Faillock.commit_update: down set capacity mismatch";
  if t.total > 0 || not (Bitset.is_empty down) then assign_row t ~item ~target:down ~set ~cleared

let locked_items t =
  let items = ref [] in
  Array.iter (fun key -> if key <> no_item then items := key :: !items) t.keys;
  List.sort compare !items

let locked_items_for t ~site =
  check_site t site;
  if t.counts.(site) = 0 then []
  else begin
    let items = ref [] in
    Array.iteri
      (fun i key ->
        if key <> no_item && mem_bit t (t.slots.(i) * t.row_bytes) site then items := key :: !items)
      t.keys;
    List.sort compare !items
  end

(* Same items, same increasing order as [locked_items_for]. *)
let iter_locked_items_for t ~site f = List.iter f (locked_items_for t ~site)

let any_locked_for t ~site =
  check_site t site;
  t.counts.(site) > 0

let count_for t ~site =
  check_site t site;
  t.counts.(site)

let locked_sites t ~item =
  let row = row t item in
  if row = no_row then [] else Bitset.to_list (row_bitset t row)

let union_locked_into ~dst t ~item =
  let row = row t item in
  if Bitset.capacity dst <> t.num_sites then invalid_arg "Bitset: capacity mismatch";
  if row <> no_row then Bitset.union_row_into ~dst t.slab row

let clear_sites t ~item ~sites =
  List.fold_left (fun acc site -> if clear t ~item ~site then acc + 1 else acc) 0 sites

(* Copies are inert data (shipped inside [Recovery_state] messages); they
   never fire the source's hook. *)
let copy t =
  {
    t with
    slab = Bytes.copy t.slab;
    free = Array.copy t.free;
    keys = Array.copy t.keys;
    slots = Array.copy t.slots;
    counts = Array.copy t.counts;
    hook = None;
  }

let check_shape t from =
  if t.num_items <> from.num_items || t.num_sites <> from.num_sites then
    invalid_arg "Faillock: shape mismatch"

let install ?keep t ~from =
  check_shape t from;
  let kept item = match keep with None -> true | Some f -> f item in
  let target = Bitset.create t.num_sites in
  let set_count = ref 0 and cleared = ref 0 in
  (* Visit the union of both tables' rows in ascending item order so the
     per-bit diff reported to the hook matches a dense item-by-site sweep
     (control-1 installs a whole table at once; the trace still wants
     transitions). *)
  let items = List.sort_uniq compare (locked_items t @ locked_items from) in
  List.iter
    (fun item ->
      let row = if kept item then find_row from item else no_row in
      if row = no_row then Bitset.clear_all target else Bitset.load target from.slab row;
      assign_row t ~item ~target ~set:set_count ~cleared)
    items

let merge t ~from =
  check_shape t from;
  List.iter
    (fun item ->
      Bitset.iter (fun site -> ignore (set t ~item ~site)) (row_bitset from (find_row from item)))
    (locked_items from)

let total_locked t = t.total

let equal a b =
  let same_row ra rb =
    let rec loop i =
      i >= a.row_bytes || (Bytes.get a.slab (ra + i) = Bytes.get b.slab (rb + i) && loop (i + 1))
    in
    loop 0
  in
  a.num_items = b.num_items && a.num_sites = b.num_sites && a.total = b.total && a.rows = b.rows
  && Array.for_all2
       (fun key slot ->
         key = no_item
         ||
         let rb = find_row b key in
         rb <> no_row && same_row (slot * a.row_bytes) rb)
       a.keys a.slots
