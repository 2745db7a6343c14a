(* Two backends behind one interface.  [Dense], for full replication
   where every slot is live, is one unboxed [int array] holding each
   item's value and version side by side ([cells.(2i)], [cells.(2i+1)]):
   a commit that writes an item touches one cache line and allocates
   nothing, and imaging, restoring and wiping are blits.  A copy it does
   not hold (restored from a partial image) has the version [absent],
   below every real version.  [Sparse] carries a base predicate (the
   static placement) plus a table of copies that have diverged from the
   initial state — written or materialised.  An untouched base item reads as (value 0, version 0)
   without ever allocating, so a 1024-site cluster over 10^5 items costs
   O(touched) per site instead of O(items). *)
type copy = { mutable value : int; mutable version : int; mutable present : bool }

type repr = Dense of int array | Sparse of { base : int -> bool; table : (int, copy) Hashtbl.t }

type t = { num_items : int; repr : repr }

type write = { item : int; value : int; version : int }

let absent = min_int

let create ~num_items =
  if num_items < 0 then invalid_arg "Database.create: negative num_items";
  { num_items; repr = Dense (Array.make (2 * num_items) 0) }

let create_partial ~num_items ~stored =
  if num_items < 0 then invalid_arg "Database.create: negative num_items";
  { num_items; repr = Sparse { base = stored; table = Hashtbl.create 16 } }

let num_items t = t.num_items

let check t item =
  if item < 0 || item >= t.num_items then invalid_arg "Database: item out of range"

let check_version version =
  if version = absent then invalid_arg "Database: version out of range"

let dense_read cells item =
  let version = cells.((2 * item) + 1) in
  if version = absent then None else Some (cells.(2 * item), version)

(* A sparse item reads its slot, or its pristine base state without one. *)
let sparse_read ~base table item =
  match Hashtbl.find_opt table item with
  | Some c -> if c.present then Some (c.value, c.version) else None
  | None -> if base item then Some (0, 0) else None

(* The slot to mutate for a sparse [item], allocating it on first touch. *)
let slot ~base table item =
  match Hashtbl.find_opt table item with
  | Some c -> c
  | None ->
    let c = { value = 0; version = 0; present = base item } in
    Hashtbl.replace table item c;
    c

let materialize t { item; value; version } =
  check t item;
  check_version version;
  match t.repr with
  | Dense cells ->
    cells.(2 * item) <- value;
    cells.((2 * item) + 1) <- version
  | Sparse s ->
    let c = slot ~base:s.base s.table item in
    c.value <- value;
    c.version <- version;
    c.present <- true

let read t item =
  check t item;
  match t.repr with
  | Dense cells -> dense_read cells item
  | Sparse s -> sparse_read ~base:s.base s.table item

let version t item = Option.map snd (read t item)

let regression item version stored =
  invalid_arg
    (Printf.sprintf "Database.apply: version regression on item %d (%d <= %d)" item version stored)

let apply t { item; value; version } =
  check t item;
  check_version version;
  match t.repr with
  | Dense cells ->
    (* An absent copy's version is below every real one: a write to it
       is never a regression, and materialises it. *)
    let stored = cells.((2 * item) + 1) in
    if version <= stored then regression item version stored;
    cells.(2 * item) <- value;
    cells.((2 * item) + 1) <- version
  | Sparse s ->
    let c = slot ~base:s.base s.table item in
    if c.present && version <= c.version then regression item version c.version;
    c.value <- value;
    c.version <- version;
    c.present <- true

let apply_all t writes = List.iter (apply t) writes

let wipe t =
  (* Crash of a volatile store: forget everything back to the creation
     state (base items pristine at (0, 0), dynamic copies gone).  The
     write-ahead log replay rebuilds from here. *)
  match t.repr with
  | Dense cells -> Array.fill cells 0 (Array.length cells) 0
  | Sparse s -> Hashtbl.reset s.table

let snapshot t = Array.init t.num_items (fun item -> read t item)

(* A checkpoint image in the backend's own format: a copy of the dense
   cells, or the base predicate plus a copy of every diverged slot, so a
   site that holds k of n items checkpoints O(slots), not O(n).  Slots
   are copied out: the live database keeps mutating its own. *)
type image_repr =
  | Dense_image of int array
  | Sparse_image of { base : int -> bool; slots : (int * copy) list }

type image = { image_items : int; image : image_repr }

let copy_of (c : copy) = { value = c.value; version = c.version; present = c.present }

let image ?reuse t =
  match (reuse, t.repr) with
  | Some ({ image = Dense_image saved; _ } as img), Dense cells
    when img.image_items = t.num_items ->
    Array.blit cells 0 saved 0 (Array.length cells);
    img
  | _ ->
    {
      image_items = t.num_items;
      image =
        (match t.repr with
        | Dense cells -> Dense_image (Array.copy cells)
        | Sparse s ->
          let slots = Hashtbl.fold (fun item c acc -> (item, copy_of c) :: acc) s.table [] in
          Sparse_image { base = s.base; slots });
    }

(* The imaged copy of each item, by the same rule as [read]. *)
let image_reader img =
  match img.image with
  | Dense_image cells -> dense_read cells
  | Sparse_image { base; slots } ->
    let table = Hashtbl.create 16 in
    List.iter (fun (item, c) -> Hashtbl.replace table item c) slots;
    sparse_read ~base table

let restore t img =
  if img.image_items <> t.num_items then invalid_arg "Database.restore: shape mismatch";
  match (t.repr, img.image) with
  | Dense cells, Dense_image saved -> Array.blit saved 0 cells 0 (Array.length cells)
  | Sparse s, Sparse_image { base; slots } when base == s.base ->
    (* An image of this database: its slots are exactly the divergence
       to rebuild, and every other item reads its base state already. *)
    Hashtbl.reset s.table;
    List.iter (fun (item, c) -> Hashtbl.replace s.table item (copy_of c)) slots
  | Dense cells, Sparse_image _ ->
    let saved = image_reader img in
    for item = 0 to t.num_items - 1 do
      match saved item with
      | Some (value, version) ->
        cells.(2 * item) <- value;
        cells.((2 * item) + 1) <- version
      | None -> cells.((2 * item) + 1) <- absent
    done
  | Sparse s, _ ->
    (* A foreign image: keep a slot only where the imaged copy differs
       from this database's pristine base state. *)
    let saved = image_reader img in
    Hashtbl.reset s.table;
    for item = 0 to t.num_items - 1 do
      match (saved item, s.base item) with
      | Some (0, 0), true | None, false -> ()
      | Some (value, version), _ ->
        Hashtbl.replace s.table item { value; version; present = true }
      | None, true -> Hashtbl.replace s.table item { value = 0; version = 0; present = false }
    done

let equal a b =
  num_items a = num_items b
  &&
  let same = ref true in
  for item = 0 to num_items a - 1 do
    if read a item <> read b item then same := false
  done;
  !same
