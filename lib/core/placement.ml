module Rng = Raid_util.Rng

type sharding = Hash | Range | Modular

type spec = { factor : int; sharding : sharding }

let spec ?(sharding = Hash) ~factor () = { factor; sharding }

let sharding_of_string = function
  | "hash" -> Ok Hash
  | "range" -> Ok Range
  | "modular" -> Ok Modular
  | s -> Error (Printf.sprintf "unknown sharding %S (expected hash, range or modular)" s)

let sharding_to_string = function
  | Hash -> "hash"
  | Range -> "range"
  | Modular -> "modular"

type t =
  | Full of { num_sites : int; num_items : int }
  | Sharded of {
      num_sites : int;
      num_items : int;
      factor : int;  (* 1 <= factor < num_sites *)
      sharding : sharding;
    }

let full ~num_sites ~num_items = Full { num_sites; num_items }

let make ~num_sites ~num_items spec =
  if spec.factor <= 0 then invalid_arg "Placement.make: factor must be positive";
  if spec.factor >= num_sites then Full { num_sites; num_items }
  else Sharded { num_sites; num_items; factor = spec.factor; sharding = spec.sharding }

let is_full = function Full _ -> true | Sharded _ -> false
let factor = function Full p -> p.num_sites | Sharded p -> p.factor

let primary t item =
  match t with
  | Full _ -> 0
  | Sharded p -> (
    match p.sharding with
    | Hash ->
      (* mask the sign bit: [Rng.mix] ranges over all 63-bit ints *)
      Rng.mix item land max_int mod p.num_sites
    | Range ->
      (* num_items > 0 whenever there is an item to place *)
      item * p.num_sites / p.num_items
    | Modular -> item mod p.num_sites)

let holds t ~site ~item =
  match t with
  | Full _ -> true
  | Sharded p ->
    let d = site - primary t item in
    let d = if d < 0 then d + p.num_sites else d in
    d < p.factor

let iter_replicas t item f =
  match t with
  | Full p ->
    for site = 0 to p.num_sites - 1 do
      f site
    done
  | Sharded p ->
    let first = primary t item in
    for i = 0 to p.factor - 1 do
      let site = first + i in
      f (if site >= p.num_sites then site - p.num_sites else site)
    done

let fold_replicas t item f init =
  let acc = ref init in
  iter_replicas t item (fun site -> acc := f site !acc);
  !acc

let replicas t item = List.rev (fold_replicas t item (fun site acc -> site :: acc) [])

module View = struct
  type placement = t

  let base_holds = holds

  type t = {
    base : placement;
    (* item -> backup holders outside the static replica set, sorted
       ascending.  Empty almost always: guarded by [extra_count] so the
       hot path costs one load. *)
    extras : (int, int list) Hashtbl.t;
    mutable extra_count : int;
  }

  let create base = { base; extras = Hashtbl.create 8; extra_count = 0 }

  let holds t ~site ~item =
    holds t.base ~site ~item
    || (t.extra_count > 0
       &&
       match Hashtbl.find_opt t.extras item with
       | None -> false
       | Some sites -> List.mem site sites)

  let add_backup t ~site ~item =
    if not (holds t ~site ~item) then begin
      let sites = Option.value (Hashtbl.find_opt t.extras item) ~default:[] in
      Hashtbl.replace t.extras item (List.sort compare (site :: sites));
      t.extra_count <- t.extra_count + 1
    end

  let iter_holders t item f =
    iter_replicas t.base item f;
    if t.extra_count > 0 then
      match Hashtbl.find_opt t.extras item with
      | None -> ()
      | Some sites -> List.iter f sites

  let count_holders_if t item pred =
    let n = ref 0 in
    iter_holders t item (fun site -> if pred site then incr n);
    !n

  let exists_holder t item pred =
    (* [iter_holders] has no early exit; holder sets are O(k) so a full
       pass is still cheap. *)
    count_holders_if t item pred > 0

  let extras t =
    Hashtbl.fold (fun item sites acc -> (item, sites) :: acc) t.extras []
    |> List.sort compare

  let install_extras t pairs =
    Hashtbl.reset t.extras;
    t.extra_count <- 0;
    List.iter
      (fun (item, sites) ->
        let sites = List.sort_uniq compare sites in
        let sites =
          List.filter (fun site -> not (base_holds t.base ~site ~item)) sites
        in
        if sites <> [] then begin
          Hashtbl.replace t.extras item sites;
          t.extra_count <- t.extra_count + List.length sites
        end)
      pairs
end
