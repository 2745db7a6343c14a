type copy = { mutable value : int; mutable version : int; mutable present : bool }

(* Two backends behind one interface.  [Dense] is the original
   array-of-copies, right for full replication where every slot is live.
   [Sparse] carries a base predicate (the static placement) plus a table
   of copies that have diverged from the initial state — written,
   materialised or dropped.  An untouched base item reads as
   (value 0, version 0) without ever allocating, so a 1024-site cluster
   over 10^5 items costs O(touched) per site instead of O(items). *)
type repr =
  | Dense of copy array
  | Sparse of { base : int -> bool; table : (int, copy) Hashtbl.t }

type t = { num_items : int; repr : repr }

type write = { item : int; value : int; version : int }

let create ~num_items =
  if num_items < 0 then invalid_arg "Database.create: negative num_items";
  {
    num_items;
    repr = Dense (Array.init num_items (fun _ -> { value = 0; version = 0; present = true }));
  }

let create_partial ~num_items ~stored =
  if num_items < 0 then invalid_arg "Database.create: negative num_items";
  { num_items; repr = Sparse { base = stored; table = Hashtbl.create 16 } }

let num_items t = t.num_items

let check t item =
  if item < 0 || item >= t.num_items then invalid_arg "Database: item out of range"

(* The copy to read for [item]: a stored slot, or [None] when the item
   tracks its pristine base state ((0, 0) if the base stores it). *)
let copy_opt t item =
  check t item;
  match t.repr with Dense copies -> Some copies.(item) | Sparse s -> Hashtbl.find_opt s.table item

(* The copy to mutate for [item], allocating a slot on first touch. *)
let copy_slot t item =
  check t item;
  match t.repr with
  | Dense copies -> copies.(item)
  | Sparse s -> (
    match Hashtbl.find_opt s.table item with
    | Some c -> c
    | None ->
      let c = { value = 0; version = 0; present = s.base item } in
      Hashtbl.replace s.table item c;
      c)

let stores t item =
  match copy_opt t item with
  | Some c -> c.present
  | None -> ( match t.repr with Dense _ -> assert false | Sparse s -> s.base item)

let materialize t { item; value; version } =
  let c = copy_slot t item in
  c.value <- value;
  c.version <- version;
  c.present <- true

let drop t item =
  let c = copy_slot t item in
  c.present <- false

let read t item =
  match copy_opt t item with
  | Some c -> if c.present then Some (c.value, c.version) else None
  | None -> ( match t.repr with Dense _ -> assert false | Sparse s -> if s.base item then Some (0, 0) else None)

let version t item = Option.map snd (read t item)

let apply t { item; value; version } =
  let c = copy_slot t item in
  if c.present && version <= c.version then
    invalid_arg
      (Printf.sprintf "Database.apply: version regression on item %d (%d <= %d)" item version
         c.version);
  c.value <- value;
  c.version <- version;
  c.present <- true

let apply_all t writes = List.iter (apply t) writes

let wipe t =
  (* Crash of a volatile store: forget everything back to the creation
     state (base items pristine at (0, 0), dynamic copies gone).  The
     write-ahead log replay rebuilds from here. *)
  match t.repr with
  | Dense copies ->
    Array.iter
      (fun (c : copy) ->
        c.value <- 0;
        c.version <- 0;
        c.present <- true)
      copies
  | Sparse s -> Hashtbl.reset s.table

let snapshot t = Array.init t.num_items (fun item -> read t item)

(* A checkpoint image in the backend's own format.  [Sparse_image] is the
   base predicate plus a copy of every diverged slot, so a site that holds
   k of n items checkpoints O(slots), not O(n).  Slots are copied out:
   the live database keeps mutating its own. *)
type image_repr =
  | Dense_image of copy array
  | Sparse_image of { base : int -> bool; slots : (int * copy) list }

type image = { image_items : int; image : image_repr }

let copy_of (c : copy) = { value = c.value; version = c.version; present = c.present }

let assign (dst : copy) (src : copy) =
  dst.value <- src.value;
  dst.version <- src.version;
  dst.present <- src.present

let image t =
  {
    image_items = t.num_items;
    image =
      (match t.repr with
      | Dense copies -> Dense_image (Array.map copy_of copies)
      | Sparse s ->
        let slots = Hashtbl.fold (fun item c acc -> (item, copy_of c) :: acc) s.table [] in
        Sparse_image { base = s.base; slots });
  }

(* The imaged copy of each item, by the same rule as [read]. *)
let image_reader img =
  match img.image with
  | Dense_image saved -> Array.get saved
  | Sparse_image { base; slots } -> (
    let table = Hashtbl.create 16 in
    List.iter (fun (item, c) -> Hashtbl.replace table item c) slots;
    fun item ->
      match Hashtbl.find_opt table item with
      | Some c -> c
      | None -> { value = 0; version = 0; present = base item })

let restore t img =
  if img.image_items <> t.num_items then invalid_arg "Database.restore: shape mismatch";
  match (t.repr, img.image) with
  | Sparse s, Sparse_image { base; slots } when base == s.base ->
    (* An image of this database: its slots are exactly the divergence
       to rebuild, and every other item reads its base state already. *)
    Hashtbl.reset s.table;
    List.iter (fun (item, c) -> Hashtbl.replace s.table item (copy_of c)) slots
  | Dense copies, _ ->
    let saved = image_reader img in
    Array.iteri (fun item c -> assign c (saved item)) copies
  | Sparse s, _ ->
    (* A foreign image: keep a slot only where the imaged copy differs
       from this database's pristine base state. *)
    let saved = image_reader img in
    Hashtbl.reset s.table;
    for item = 0 to t.num_items - 1 do
      let c = saved item in
      let pristine =
        if s.base item then c.present && c.value = 0 && c.version = 0 else not c.present
      in
      if not pristine then Hashtbl.replace s.table item (copy_of c)
    done

let items_behind replica reference =
  let behind = ref [] in
  for item = num_items replica - 1 downto 0 do
    match (read replica item, read reference item) with
    | Some (_, v_replica), Some (_, v_reference) when v_replica < v_reference ->
      behind := item :: !behind
    | _ -> ()
  done;
  !behind

let equal a b =
  num_items a = num_items b
  &&
  let same = ref true in
  for item = 0 to num_items a - 1 do
    if read a item <> read b item then same := false
  done;
  !same

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for item = 0 to t.num_items - 1 do
    match read t item with
    | Some (value, version) ->
      Format.fprintf ppf "%3d: value=%d version=%d@," item value version
    | None -> Format.fprintf ppf "%3d: (absent)@," item
  done;
  Format.fprintf ppf "@]"
