module Bitset = Raid_util.Bitset
module Int_table = Raid_util.Int_table

type hook = item:int -> site:int -> locked:bool -> unit

(* Sparse representation: one row per item *with at least one bit set*,
   plus per-site counts.  At paper scale (every item locked for a failed
   site) this costs the same as a dense array of bitmaps; at placement
   scale (1024 sites x 10^5 items, k holders per item) the dense table
   is ~13 GB while the sparse one is proportional to the actual
   inconsistency.

   Rows live in one [Bytes] slab, [row_bytes] bytes per row slot; an
   [Int_table] maps an item to its slot.  Creating a row therefore
   allocates nothing (beyond amortised growth), where a [Bitset] and a
   hash-table bucket per row gave the minor collector three blocks to
   promote for every row an outage creates.  Invariants: an item is in
   the index iff its row is non-empty, and every free slot's bytes are
   zero. *)
type t = {
  num_items : int;
  num_sites : int;
  row_bytes : int;
  mutable slab : Bytes.t;  (* slot [s] is the row at byte [s * row_bytes] *)
  index : Int_table.t;  (* item -> slot, for the non-empty rows *)
  counts : int array;  (* per-site number of locked items *)
  mutable total : int;
  mutable sets : int;  (* clear -> set transitions so far *)
  mutable clears : int;  (* set -> clear transitions so far *)
  scratch : Bytes.t;  (* one row: [assign_row]'s copy of its target *)
  mutable hook : hook option;
}

let no_row = -1

let create ~num_items ~num_sites =
  if num_items < 0 then invalid_arg "Faillock.create: negative num_items";
  if num_sites <= 0 then invalid_arg "Faillock.create: num_sites must be positive";
  {
    num_items;
    num_sites;
    row_bytes = Bitset.bytes_for num_sites;
    slab = Bytes.empty;
    index = Int_table.create ();
    counts = Array.make num_sites 0;
    total = 0;
    sets = 0;
    clears = 0;
    scratch = Bytes.make (Bitset.bytes_for num_sites) '\000';
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

(* {2 Rows} *)

(* Byte offset of [item]'s row in the slab, or [no_row]. *)
let find_row t item =
  let slot = Int_table.find t.index item in
  if slot = Int_table.absent then no_row else slot * t.row_bytes

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

(* Rows are added and removed only through these two.  [add_row]
   returns the new, empty row's offset; the slab grows with the index's
   slots, and every slot it adds is zero. *)
let add_row t item =
  let slot = Int_table.add t.index item in
  let needed = Int_table.capacity t.index * t.row_bytes in
  if Bytes.length t.slab < needed then begin
    let slab = Bytes.make needed '\000' in
    Bytes.blit t.slab 0 slab 0 (Bytes.length t.slab);
    t.slab <- slab
  end;
  slot * t.row_bytes

let remove_row t item row =
  ignore (Int_table.remove t.index item);
  Bytes.fill t.slab row t.row_bytes '\000'

(* A row's members, as a fresh bitset (for the uncommon readers). *)
let row_bitset t row =
  let b = Bitset.create t.num_sites in
  Bitset.load b t.slab row;
  b

let is_locked t ~item ~site =
  check_site t site;
  let row = row t item in
  row <> no_row && mem_bit t row site

(* Raw bit updates maintaining counts, total, the running tallies and
   the non-empty-row invariant; return whether the bit actually
   transitioned.  The public [set]/[clear] add hook notification on
   top. *)
let set_raw t ~item ~site =
  check_site t site;
  let row = row t item in
  let row = if row = no_row then add_row t item else row in
  if mem_bit t row site then false
  else begin
    set_bit t row site;
    t.counts.(site) <- t.counts.(site) + 1;
    t.total <- t.total + 1;
    t.sets <- t.sets + 1;
    true
  end

let clear_raw t ~item ~site =
  check_site t site;
  let row = row t item in
  if row <> no_row && mem_bit t row site then begin
    clear_bit t row site;
    t.counts.(site) <- t.counts.(site) - 1;
    t.total <- t.total - 1;
    t.clears <- t.clears + 1;
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

let set_transitions t = t.sets
let clear_transitions t = t.clears

(* A bit transition found by a row diff: counts, total, tallies and hook
   move exactly as [set_raw]/[clear_raw] plus [notify] would move them. *)
let transition t ~item ~site ~locked =
  if locked then begin
    t.counts.(site) <- t.counts.(site) + 1;
    t.total <- t.total + 1;
    t.sets <- t.sets + 1
  end
  else begin
    t.counts.(site) <- t.counts.(site) - 1;
    t.total <- t.total - 1;
    t.clears <- t.clears + 1
  end;
  notify t ~item ~site ~locked

(* The index of a byte's only set bit. *)
let rec bit_index b = if b = 1 then 0 else 1 + bit_index (b lsr 1)

(* The transitions of one byte whose first site is [base]: [d] holds
   the bits that change, lowest first ([d land -d] isolates it), and
   [target] their new values. *)
let rec byte_transitions t ~item base d target =
  if d <> 0 then begin
    let low = d land -d in
    transition t ~item ~site:(base + bit_index low) ~locked:(target land low <> 0);
    byte_transitions t ~item base (d lxor low) target
  end

(* The transitions from the row at [row] (all zero when [row = no_row])
   to [t.scratch], from byte [i] on.  Bytes where the two agree are
   skipped whole.  Top-level and closure-free, so a diff allocates
   nothing. *)
let rec diff_from t ~item row i =
  if i < t.row_bytes then begin
    let target = Bytes.get_uint8 t.scratch i in
    let old = if row = no_row then 0 else Bytes.get_uint8 t.slab (row + i) in
    if old <> target then byte_transitions t ~item (i lsl 3) (old lxor target) target;
    diff_from t ~item row (i + 1)
  end

(* Make [item]'s row equal to [target] (read, never kept; empty means
   no row).  The transitions are [row xor target] in increasing site
   order — the order a set/clear sweep over every site produced them — so
   counts, tallies and the hook see the same sequence, at a cost of
   O(sites/8 + transitions) instead of one row probe per site.  Every
   transition is reported before the row is written. *)
let assign_row t ~item ~target =
  let row = find_row t item in
  if row = no_row then begin
    if not (Bitset.is_empty target) then begin
      Bitset.store target t.scratch 0;
      diff_from t ~item no_row 0;
      let row = add_row t item in
      Bitset.store target t.slab row
    end
  end
  (* Equal rows (the steady state of an outage) need no diff at all. *)
  else if not (Bitset.equal_row target t.slab row) then begin
    Bitset.store target t.scratch 0;
    diff_from t ~item row 0;
    if Bitset.is_empty target then remove_row t item row else Bitset.store target t.slab row
  end

(* With no locked bit anywhere and every site up (the steady state of a
   failure-free run) the row is absent and stays absent: skip the index
   probe. *)
let commit_update t ~item ~down =
  check_item t item;
  if Bitset.capacity down <> t.num_sites then
    invalid_arg "Faillock.commit_update: down set capacity mismatch";
  if t.total > 0 || not (Bitset.is_empty down) then assign_row t ~item ~target:down

let locked_items t = Int_table.keys t.index

let locked_items_for t ~site =
  check_site t site;
  if t.counts.(site) = 0 then []
  else begin
    List.sort compare
      (Int_table.fold
         (fun item slot items -> if mem_bit t (slot * t.row_bytes) site then item :: items else items)
         t.index [])
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
    index = Int_table.copy t.index;
    counts = Array.copy t.counts;
    scratch = Bytes.copy t.scratch;
    hook = None;
  }

let check_shape t from =
  if t.num_items <> from.num_items || t.num_sites <> from.num_sites then
    invalid_arg "Faillock: shape mismatch"

let install ?keep t ~from =
  check_shape t from;
  let kept item = match keep with None -> true | Some f -> f item in
  let target = Bitset.create t.num_sites in
  (* Visit the union of both tables' rows in ascending item order so the
     per-bit diff reported to the hook matches a dense item-by-site sweep
     (control-1 installs a whole table at once; the trace still wants
     transitions). *)
  let items = List.sort_uniq compare (locked_items t @ locked_items from) in
  List.iter
    (fun item ->
      let row = if kept item then find_row from item else no_row in
      if row = no_row then Bitset.clear_all target else Bitset.load target from.slab row;
      assign_row t ~item ~target)
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
  a.num_items = b.num_items && a.num_sites = b.num_sites && a.total = b.total
  && Int_table.length a.index = Int_table.length b.index
  && Int_table.fold
       (fun item slot same ->
         same
         &&
         let rb = find_row b item in
         rb <> no_row && same_row (slot * a.row_bytes) rb)
       a.index true
