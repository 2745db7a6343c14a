module Bitset = Raid_util.Bitset

type hook = item:int -> site:int -> locked:bool -> unit

(* Sparse representation: one bitmap per item *with at least one bit
   set*, plus per-site counts.  At paper scale (every item locked for a
   failed site) this costs the same as the old dense array-of-bitmaps;
   at placement scale (1024 sites x 10^5 items, k holders per item) the
   dense table is ~13 GB while the sparse one is proportional to the
   actual inconsistency.  Invariant: a row is present iff non-empty, and
   iff the item's bit in [has_row] is set.  That bitmap (num_items / 8
   bytes) answers "no row" for an item without hashing into [rows],
   whose buckets a wide commit fan-out keeps evicting. *)
type t = {
  num_items : int;
  num_sites : int;
  rows : (int, Bitset.t) Hashtbl.t;
  has_row : Bitset.t;
  counts : int array;  (* per-site number of locked items *)
  mutable total : int;
  mutable hook : hook option;
}

let create ~num_items ~num_sites =
  if num_items < 0 then invalid_arg "Faillock.create: negative num_items";
  if num_sites <= 0 then invalid_arg "Faillock.create: num_sites must be positive";
  {
    num_items;
    num_sites;
    rows = Hashtbl.create 16;
    has_row = Bitset.create num_items;
    counts = Array.make num_sites 0;
    total = 0;
    hook = None;
  }

let set_hook t hook = t.hook <- hook

(* Fire the observability hook on an actual bit transition.  With no
   hook installed (the default) this is a single branch. *)
let notify t ~item ~site ~locked =
  match t.hook with None -> () | Some hook -> hook ~item ~site ~locked

let num_items t = t.num_items
let num_sites t = t.num_sites

let check_item t item =
  if item < 0 || item >= t.num_items then invalid_arg "Faillock: item out of range"

let check_site t site =
  if site < 0 || site >= t.num_sites then invalid_arg "Faillock: site out of range"

(* Rows are added and removed only through these two. *)
let add_row t item m =
  Hashtbl.replace t.rows item m;
  Bitset.set t.has_row item

let remove_row t item =
  Hashtbl.remove t.rows item;
  Bitset.clear t.has_row item

let find_row t item = if Bitset.mem t.has_row item then Hashtbl.find_opt t.rows item else None

let row_opt t item =
  check_item t item;
  find_row t item

let is_locked t ~item ~site =
  check_site t site;
  match row_opt t item with None -> false | Some m -> Bitset.mem m site

(* Raw bit updates maintaining counts/total and the non-empty-row
   invariant; return whether the bit actually transitioned.  The public
   [set]/[clear] add hook notification on top. *)
let set_raw t ~item ~site =
  check_site t site;
  let m =
    match row_opt t item with
    | Some m -> m
    | None ->
      let m = Bitset.create t.num_sites in
      add_row t item m;
      m
  in
  if Bitset.mem m site then false
  else begin
    Bitset.set m site;
    t.counts.(site) <- t.counts.(site) + 1;
    t.total <- t.total + 1;
    true
  end

let clear_raw t ~item ~site =
  check_site t site;
  match row_opt t item with
  | None -> false
  | Some m ->
    if Bitset.mem m site then begin
      Bitset.clear m site;
      t.counts.(site) <- t.counts.(site) - 1;
      t.total <- t.total - 1;
      if Bitset.is_empty m then remove_row t item;
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

(* Make [item]'s row equal to [target] (read, never aliased; empty means
   no row).  The transitions are [row xor target] in increasing site
   order — the order a set/clear sweep over every site produced them — so
   counts, tallies and the hook see the same sequence, at a cost of
   O(sites/8 + transitions) instead of one row probe per site. *)
let assign_row t ~item ~target ~set ~cleared =
  match find_row t item with
  | None ->
    if not (Bitset.is_empty target) then begin
      Bitset.iter (fun site -> transition t ~item ~site ~locked:true ~set ~cleared) target;
      add_row t item (Bitset.copy target)
    end
  | Some row ->
    (* Equal rows (the steady state of an outage) need no diff at all. *)
    if not (Bitset.equal row target) then begin
      Bitset.iter_diff
        (fun site -> transition t ~item ~site ~locked:(Bitset.mem target site) ~set ~cleared)
        row target;
      if Bitset.is_empty target then remove_row t item
      else begin
        Bitset.clear_all row;
        Bitset.union_into ~dst:row target
      end
    end

(* With no locked bit anywhere and every site up (the steady state of a
   failure-free run) the row is absent and stays absent: skip the probe
   into [rows], whose buckets a wide commit fan-out has long evicted. *)
let commit_update t ~item ~down ~set ~cleared =
  check_item t item;
  if Bitset.capacity down <> t.num_sites then
    invalid_arg "Faillock.commit_update: down set capacity mismatch";
  if t.total > 0 || not (Bitset.is_empty down) then assign_row t ~item ~target:down ~set ~cleared

let locked_items t = List.sort compare (Hashtbl.fold (fun item _ acc -> item :: acc) t.rows [])

let locked_items_for t ~site =
  check_site t site;
  if t.counts.(site) = 0 then []
  else List.filter (fun item -> Bitset.mem (Hashtbl.find t.rows item) site) (locked_items t)

(* Same items, same increasing order as [locked_items_for]. *)
let iter_locked_items_for t ~site f = List.iter f (locked_items_for t ~site)

let any_locked_for t ~site =
  check_site t site;
  t.counts.(site) > 0

let count_for t ~site =
  check_site t site;
  t.counts.(site)

let locked_sites t ~item =
  match row_opt t item with None -> [] | Some m -> Bitset.to_list m

let union_locked_into ~dst t ~item =
  match row_opt t item with
  | None ->
    if Bitset.capacity dst <> t.num_sites then invalid_arg "Bitset: capacity mismatch"
  | Some m -> Bitset.union_into ~dst m

let any_locked t ~item =
  check_item t item;
  Bitset.mem t.has_row item

let clear_sites t ~item ~sites =
  List.fold_left (fun acc site -> if clear t ~item ~site then acc + 1 else acc) 0 sites

(* Copies are inert data (shipped inside [Recovery_state] messages); they
   never fire the source's hook. *)
let copy t =
  let rows = Hashtbl.create (max 16 (Hashtbl.length t.rows)) in
  Hashtbl.iter (fun item m -> Hashtbl.replace rows item (Bitset.copy m)) t.rows;
  { t with rows; has_row = Bitset.copy t.has_row; counts = Array.copy t.counts; hook = None }

let check_shape t from =
  if t.num_items <> from.num_items || t.num_sites <> from.num_sites then
    invalid_arg "Faillock: shape mismatch"

let install ?keep t ~from =
  check_shape t from;
  let kept item = match keep with None -> true | Some f -> f item in
  let empty = Bitset.create t.num_sites in
  let set_count = ref 0 and cleared = ref 0 in
  (* Visit the union of both tables' rows in ascending item order so the
     per-bit diff reported to the hook matches a dense item-by-site sweep
     (control-1 installs a whole table at once; the trace still wants
     transitions). *)
  let items = List.sort_uniq compare (locked_items t @ locked_items from) in
  List.iter
    (fun item ->
      let target =
        match if kept item then Hashtbl.find_opt from.rows item else None with
        | Some m -> m
        | None -> empty
      in
      assign_row t ~item ~target ~set:set_count ~cleared)
    items

let merge t ~from =
  check_shape t from;
  List.iter
    (fun item ->
      Bitset.iter (fun site -> ignore (set t ~item ~site)) (Hashtbl.find from.rows item))
    (locked_items from)

let total_locked t = t.total

let equal a b =
  a.num_items = b.num_items && a.num_sites = b.num_sites && a.total = b.total
  && Hashtbl.length a.rows = Hashtbl.length b.rows
  && Hashtbl.fold
       (fun item m acc ->
         acc
         && match Hashtbl.find_opt b.rows item with None -> false | Some m' -> Bitset.equal m m')
       a.rows true

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun item -> Format.fprintf ppf "item %3d: %a@," item Bitset.pp (Hashtbl.find t.rows item))
    (locked_items t);
  Format.fprintf ppf "@]"
