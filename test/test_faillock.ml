module Faillock = Raid_core.Faillock
module Bitset = Raid_util.Bitset

let bitset_of_list capacity members =
  let b = Bitset.create capacity in
  List.iter (Bitset.set b) members;
  b

let table () = Faillock.create ~num_items:5 ~num_sites:3

let test_initial () =
  let t = table () in
  Alcotest.(check int) "nothing locked" 0 (Faillock.total_locked t);
  Alcotest.(check bool) "not locked" false (Faillock.is_locked t ~item:0 ~site:0)

let test_set_clear_transitions () =
  let t = table () in
  Alcotest.(check bool) "fresh set" true (Faillock.set t ~item:2 ~site:1);
  Alcotest.(check bool) "redundant set" false (Faillock.set t ~item:2 ~site:1);
  Alcotest.(check bool) "locked" true (Faillock.is_locked t ~item:2 ~site:1);
  Alcotest.(check bool) "clear transition" true (Faillock.clear t ~item:2 ~site:1);
  Alcotest.(check bool) "redundant clear" false (Faillock.clear t ~item:2 ~site:1)

let test_commit_update () =
  let t = table () in
  (* Site 2 is down: committing item 3 sets its bit, clears others. *)
  ignore (Faillock.set t ~item:3 ~site:0);
  let down = bitset_of_list 3 [ 2 ] in
  let set_count = ref 0 and cleared = ref 0 in
  Faillock.commit_update t ~item:3 ~down ~set:set_count ~cleared;
  Alcotest.(check int) "one set" 1 !set_count;
  Alcotest.(check int) "one cleared" 1 !cleared;
  Alcotest.(check bool) "bit for down site" true (Faillock.is_locked t ~item:3 ~site:2);
  Alcotest.(check bool) "bit for up site cleared" false (Faillock.is_locked t ~item:3 ~site:0);
  (* Re-running is idempotent (the paper's unconditional re-clear). *)
  let set2 = ref 0 and cleared2 = ref 0 in
  Faillock.commit_update t ~item:3 ~down ~set:set2 ~cleared:cleared2;
  Alcotest.(check int) "no new sets" 0 !set2;
  Alcotest.(check int) "no new clears" 0 !cleared2;
  (* Every site back up: the row empties and the item reads unlocked. *)
  Faillock.commit_update t ~item:3 ~down:(Bitset.create 3) ~set:set2 ~cleared:cleared2;
  Alcotest.(check int) "down site's bit cleared" 1 !cleared2;
  Alcotest.(check bool) "row removed" false (List.mem 3 (Faillock.locked_items t));
  Alcotest.check_raises "down set capacity"
    (Invalid_argument "Faillock.commit_update: down set capacity mismatch") (fun () ->
      Faillock.commit_update t ~item:3 ~down:(Bitset.create 4) ~set:set2 ~cleared:cleared2)

let test_locked_items_and_counts () =
  let t = table () in
  ignore (Faillock.set t ~item:0 ~site:1);
  ignore (Faillock.set t ~item:4 ~site:1);
  ignore (Faillock.set t ~item:2 ~site:0);
  Alcotest.(check (list int)) "items for site 1" [ 0; 4 ] (Faillock.locked_items_for t ~site:1);
  Alcotest.(check int) "count for site 1" 2 (Faillock.count_for t ~site:1);
  Alcotest.(check (list int)) "sites for item 0" [ 1 ] (Faillock.locked_sites t ~item:0);
  Alcotest.(check bool) "any locked" true (List.mem 2 (Faillock.locked_items t));
  Alcotest.(check bool) "none locked" false (List.mem 1 (Faillock.locked_items t));
  Alcotest.(check int) "total" 3 (Faillock.total_locked t)

let test_clear_sites () =
  let t = table () in
  ignore (Faillock.set t ~item:1 ~site:0);
  ignore (Faillock.set t ~item:1 ~site:2);
  Alcotest.(check int) "cleared two" 2 (Faillock.clear_sites t ~item:1 ~sites:[ 0; 1; 2 ]);
  Alcotest.(check int) "cleared none" 0 (Faillock.clear_sites t ~item:1 ~sites:[ 0 ])

let test_copy_install_merge () =
  let a = table () in
  ignore (Faillock.set a ~item:0 ~site:0);
  let b = Faillock.copy a in
  ignore (Faillock.set b ~item:1 ~site:1);
  Alcotest.(check bool) "copy independent" false (Faillock.is_locked a ~item:1 ~site:1);
  Faillock.install a ~from:b;
  Alcotest.(check bool) "install equal" true (Faillock.equal a b);
  let c = table () in
  ignore (Faillock.set c ~item:4 ~site:2);
  Faillock.merge a ~from:c;
  Alcotest.(check bool) "merge keeps old" true (Faillock.is_locked a ~item:0 ~site:0);
  Alcotest.(check bool) "merge adds new" true (Faillock.is_locked a ~item:4 ~site:2);
  let wrong = Faillock.create ~num_items:2 ~num_sites:3 in
  Alcotest.check_raises "shape mismatch" (Invalid_argument "Faillock: shape mismatch") (fun () ->
      Faillock.install a ~from:wrong)

let test_bounds () =
  let t = table () in
  Alcotest.check_raises "item range" (Invalid_argument "Faillock: item out of range") (fun () ->
      ignore (Faillock.is_locked t ~item:5 ~site:0))

(* Property: commit_update leaves exactly the down sites locked. *)
let prop_commit_update_postcondition =
  QCheck.Test.make ~name:"commit_update postcondition" ~count:300
    QCheck.(pair (list (pair (int_range 0 4) (int_range 0 2))) (int_range 0 7))
    (fun (initial, up_mask) ->
      let t = table () in
      List.iter (fun (item, site) -> ignore (Faillock.set t ~item ~site)) initial;
      let site_up s = (up_mask lsr s) land 1 = 1 in
      let down = bitset_of_list 3 (List.filter (fun s -> not (site_up s)) [ 0; 1; 2 ]) in
      let set_count = ref 0 and cleared = ref 0 in
      Faillock.commit_update t ~item:2 ~down ~set:set_count ~cleared;
      List.for_all
        (fun s -> Faillock.is_locked t ~item:2 ~site:s = not (site_up s))
        [ 0; 1; 2 ])

(* Differential check of the row-diff implementations against the plain
   per-site loop they replace, kept here as the reference.  Capacities
   straddle byte boundaries (1, 7, 8, 9, 63, 64, 65, 130 sites) so
   partial tail bytes are covered.  Each scenario is a random table, a
   random target set for [commit_update] and a random source table for
   [install]; the two sides must agree on every row, per-site count, the
   total, the set/cleared tallies and the exact hook transition list. *)
let diff_items = 5

type diff_case = {
  sites : int;
  initial : (int * int) list;  (* (item, site) bits set beforehand *)
  row_is_down : bool;  (* start the updated item's row equal to [down] *)
  down : int list;
  item : int;
  source : (int * int) list;  (* the table [install] copies from *)
  keep_mask : int;  (* bit [i] set: [install] keeps item [i]'s row *)
}

let gen_diff_case =
  let open QCheck.Gen in
  oneofl [ 1; 7; 8; 9; 63; 64; 65; 130 ] >>= fun sites ->
  (* Density per scenario: empty, sparse, half, dense and full sets. *)
  let members density =
    list_repeat sites (float_bound_exclusive 1.0) >|= fun draws ->
    List.concat (List.mapi (fun site x -> if x < density then [ site ] else []) draws)
  in
  let density = oneofl [ 0.0; 0.02; 0.5; 0.95; 1.01 ] in
  let table =
    density >>= fun d ->
    list_repeat diff_items (members d) >|= fun rows ->
    List.concat (List.mapi (fun item sites -> List.map (fun s -> (item, s)) sites) rows)
  in
  table >>= fun initial ->
  bool >>= fun row_is_down ->
  (density >>= members) >>= fun down ->
  int_range 0 (diff_items - 1) >>= fun item ->
  table >>= fun source ->
  int_range 0 ((1 lsl diff_items) - 1) >|= fun keep_mask ->
  { sites; initial; row_is_down; down; item; source; keep_mask }

let print_diff_case c =
  let pairs l = String.concat ";" (List.map (fun (i, s) -> Printf.sprintf "%d/%d" i s) l) in
  Printf.sprintf "sites=%d initial=[%s] row_is_down=%b down=[%s] item=%d source=[%s] keep=%x"
    c.sites (pairs c.initial) c.row_is_down
    (String.concat ";" (List.map string_of_int c.down))
    c.item (pairs c.source) c.keep_mask

(* A fresh table from [bits], recording its hook transitions (newest
   first) into the returned list ref. *)
let table_of ~sites bits =
  let t = Faillock.create ~num_items:diff_items ~num_sites:sites in
  List.iter (fun (item, site) -> ignore (Faillock.set t ~item ~site)) bits;
  let log = ref [] in
  Faillock.set_hook t (Some (fun ~item ~site ~locked -> log := (item, site, locked) :: !log));
  (t, log)

(* Everything observable about a table. *)
let snapshot ~sites t =
  ( List.init diff_items (fun item -> Faillock.locked_sites t ~item),
    List.init sites (fun site -> Faillock.count_for t ~site),
    Faillock.total_locked t )

(* The reference: one public set/clear per site, in increasing order. *)
let reference_assign ~sites t ~item ~target ~set_count ~cleared =
  for site = 0 to sites - 1 do
    if List.mem site target then (if Faillock.set t ~item ~site then incr set_count)
    else if Faillock.clear t ~item ~site then incr cleared
  done

let prop_commit_update_matches_reference =
  QCheck.Test.make ~name:"commit_update = per-site reference loop" ~count:500
    (QCheck.make ~print:print_diff_case gen_diff_case) (fun c ->
      let initial =
        if c.row_is_down then
          List.filter (fun (item, _) -> item <> c.item) c.initial
          @ List.map (fun s -> (c.item, s)) c.down
        else c.initial
      in
      let fast, fast_log = table_of ~sites:c.sites initial in
      let slow, slow_log = table_of ~sites:c.sites initial in
      let fs = ref 0 and fc = ref 0 and ss = ref 0 and sc = ref 0 in
      Faillock.commit_update fast ~item:c.item ~down:(bitset_of_list c.sites c.down) ~set:fs
        ~cleared:fc;
      reference_assign ~sites:c.sites slow ~item:c.item ~target:c.down ~set_count:ss ~cleared:sc;
      snapshot ~sites:c.sites fast = snapshot ~sites:c.sites slow
      && Faillock.equal fast slow
      && (!fs, !fc) = (!ss, !sc)
      && !fast_log = !slow_log)

let prop_install_matches_reference =
  QCheck.Test.make ~name:"install = per-site reference loop" ~count:500
    (QCheck.make ~print:print_diff_case gen_diff_case) (fun c ->
      let keep item = (c.keep_mask lsr item) land 1 = 1 in
      let from, _ = table_of ~sites:c.sites c.source in
      let fast, fast_log = table_of ~sites:c.sites c.initial in
      let slow, slow_log = table_of ~sites:c.sites c.initial in
      Faillock.install ~keep fast ~from;
      let ignored = ref 0 in
      for item = 0 to diff_items - 1 do
        let target = if keep item then Faillock.locked_sites from ~item else [] in
        reference_assign ~sites:c.sites slow ~item ~target ~set_count:ignored ~cleared:ignored
      done;
      snapshot ~sites:c.sites fast = snapshot ~sites:c.sites slow
      && Faillock.equal fast slow
      && !fast_log = !slow_log)

(* Sequences of operations from an empty table, on one table updated by
   [commit_update] and one by the reference loop.  Most commits run with
   no site down, and clears, installs and commits empty the table again,
   so [commit_update]'s early return (no bit set anywhere, no site down)
   is taken often — and it is only right while the running total it
   reads stays exact through [install ~keep], [merge] and [copy]. *)
type seq_op =
  | Commit of int * int list  (* item, down sites *)
  | Clear of int * int
  | Set of int * int
  | Install of int * (int * int) list  (* keep mask, source bits *)
  | Merge of (int * int) list
  | Copy

let gen_seq_case =
  let open QCheck.Gen in
  oneofl [ 1; 7; 8; 9; 64; 65 ] >>= fun sites ->
  let site = int_range 0 (sites - 1) and item = int_range 0 (diff_items - 1) in
  let bits = list_size (int_range 0 4) (pair item site) in
  let down =
    frequency [ (3, return []); (1, list_size (int_range 1 3) site >|= List.sort_uniq compare) ]
  in
  let op =
    frequency
      [
        (6, map2 (fun i d -> Commit (i, d)) item down);
        (3, map2 (fun i s -> Clear (i, s)) item site);
        (2, map2 (fun i s -> Set (i, s)) item site);
        (1, map2 (fun k b -> Install (k, b)) (int_range 0 ((1 lsl diff_items) - 1)) bits);
        (1, map (fun b -> Merge b) bits);
        (1, return Copy);
      ]
  in
  list_size (int_range 1 40) op >|= fun ops -> (sites, ops)

let print_seq_case (sites, ops) =
  let pairs l = String.concat ";" (List.map (fun (i, s) -> Printf.sprintf "%d/%d" i s) l) in
  let op = function
    | Commit (i, d) ->
      Printf.sprintf "commit %d down=[%s]" i (String.concat ";" (List.map string_of_int d))
    | Clear (i, s) -> Printf.sprintf "clear %d/%d" i s
    | Set (i, s) -> Printf.sprintf "set %d/%d" i s
    | Install (k, b) -> Printf.sprintf "install keep=%x [%s]" k (pairs b)
    | Merge b -> Printf.sprintf "merge [%s]" (pairs b)
    | Copy -> "copy"
  in
  Printf.sprintf "sites=%d: %s" sites (String.concat ", " (List.map op ops))

let prop_commit_update_sequences =
  QCheck.Test.make ~name:"commit_update = reference over op sequences" ~count:500
    (QCheck.make ~print:print_seq_case gen_seq_case) (fun (sites, ops) ->
      let fast, fast_log = table_of ~sites [] in
      let slow, slow_log = table_of ~sites [] in
      let fast = ref fast and slow = ref slow in
      let rehook t log =
        Faillock.set_hook t (Some (fun ~item ~site ~locked -> log := (item, site, locked) :: !log))
      in
      let fs = ref 0 and fc = ref 0 and ss = ref 0 and sc = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Commit (item, down) ->
            Faillock.commit_update !fast ~item ~down:(bitset_of_list sites down) ~set:fs
              ~cleared:fc;
            reference_assign ~sites !slow ~item ~target:down ~set_count:ss ~cleared:sc
          | Clear (item, site) ->
            ignore (Faillock.clear !fast ~item ~site);
            ignore (Faillock.clear !slow ~item ~site)
          | Set (item, site) ->
            ignore (Faillock.set !fast ~item ~site);
            ignore (Faillock.set !slow ~item ~site)
          | Install (keep_mask, bits) ->
            let from, _ = table_of ~sites bits in
            let keep item = (keep_mask lsr item) land 1 = 1 in
            Faillock.install ~keep !fast ~from;
            Faillock.install ~keep !slow ~from
          | Merge bits ->
            let from, _ = table_of ~sites bits in
            Faillock.merge !fast ~from;
            Faillock.merge !slow ~from
          | Copy ->
            fast := Faillock.copy !fast;
            slow := Faillock.copy !slow;
            rehook !fast fast_log;
            rehook !slow slow_log);
          let (rows, counts, total) as seen = snapshot ~sites !fast in
          seen = snapshot ~sites !slow
          && total = List.fold_left (fun acc row -> acc + List.length row) 0 rows
          && total = List.fold_left ( + ) 0 counts
          && (!fs, !fc) = (!ss, !sc)
          && !fast_log = !slow_log)
        ops)

(* Long op sequences against a plain per-site model: a dense bool matrix
   whose every update is a per-site loop.  With 200 items the rows
   outgrow the index's first bucket arrays several times over, and fill
   and drain ops create and delete rows by the hundred, so index growth,
   deletions and slot reuse all meet the model; sites range over 1-130.
   After every op the table's observable state must equal the model's,
   the hook must have reported exactly the transitions the model made,
   in the same order, and [equal] must hold against the model's bits
   laid out in other slots but fail once one bit moves. *)
let model_items = 200

type model_op =
  | M_set of int * int
  | M_clear of int * int
  | M_commit of int * int list  (* item, down sites *)
  | M_fill of int * int * int list  (* commit items [lo, hi) with these sites down *)
  | M_drain of int * int  (* commit items [lo, hi) with every site up *)
  | M_install of int * (int * int) list  (* keep rule, source bits *)
  | M_copy

(* [k] in 0-3 drops every item [i] with [(i + k) mod 4 = 0]; 4 keeps all. *)
let model_keep k item = k = 4 || (item + k) mod 4 <> 0

let gen_model_case =
  let open QCheck.Gen in
  oneof [ oneofl [ 1; 7; 8; 9; 63; 64; 65; 130 ]; int_range 1 130 ] >>= fun sites ->
  let site = int_range 0 (sites - 1) and item = int_range 0 (model_items - 1) in
  let down = list_size (int_range 0 3) site >|= List.sort_uniq compare in
  let range =
    pair item (int_range 1 model_items) >|= fun (lo, len) -> (lo, min model_items (lo + len))
  in
  let op =
    frequency
      [
        (3, map2 (fun i s -> M_set (i, s)) item site);
        (3, map2 (fun i s -> M_clear (i, s)) item site);
        (3, map2 (fun i d -> M_commit (i, d)) item down);
        (2, map2 (fun (lo, hi) d -> M_fill (lo, hi, d)) range down);
        (2, map (fun (lo, hi) -> M_drain (lo, hi)) range);
        ( 1,
          map2
            (fun k b -> M_install (k, b))
            (int_range 0 4)
            (list_size (int_range 0 120) (pair item site)) );
        (1, return M_copy);
      ]
  in
  list_size (int_range 1 30) op >|= fun ops -> (sites, ops)

let print_model_case (sites, ops) =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let op = function
    | M_set (i, s) -> Printf.sprintf "set %d/%d" i s
    | M_clear (i, s) -> Printf.sprintf "clear %d/%d" i s
    | M_commit (i, d) -> Printf.sprintf "commit %d down=[%s]" i (ints d)
    | M_fill (lo, hi, d) -> Printf.sprintf "fill %d-%d down=[%s]" lo hi (ints d)
    | M_drain (lo, hi) -> Printf.sprintf "drain %d-%d" lo hi
    | M_install (k, b) -> Printf.sprintf "install keep=%d (%d bits)" k (List.length b)
    | M_copy -> "copy"
  in
  Printf.sprintf "sites=%d: %s" sites (String.concat ", " (List.map op ops))

let prop_model_sequences =
  QCheck.Test.make ~name:"fail-lock table = per-site model over long sequences" ~count:150
    (QCheck.make ~print:print_model_case gen_model_case) (fun (sites, ops) ->
      let all_sites = List.init sites Fun.id and all_items = List.init model_items Fun.id in
      let model = Array.make_matrix model_items sites false in
      let expected = ref [] and log = ref [] in
      (* The model's update of one item's row: a per-site loop. *)
      let assign item target =
        List.iter
          (fun site ->
            if model.(item).(site) <> target site then begin
              model.(item).(site) <- target site;
              expected := (item, site, target site) :: !expected
            end)
          all_sites
      in
      let logged t =
        Faillock.set_hook t (Some (fun ~item ~site ~locked -> log := (item, site, locked) :: !log));
        t
      in
      let t = ref (logged (Faillock.create ~num_items:model_items ~num_sites:sites)) in
      (* A table holding the model's bits, its rows created in decreasing
         item order so that its slots differ from [!t]'s. *)
      let of_model () =
        let u = Faillock.create ~num_items:model_items ~num_sites:sites in
        List.iter
          (fun item ->
            List.iter
              (fun site -> if model.(item).(site) then ignore (Faillock.set u ~item ~site))
              all_sites)
          (List.rev all_items);
        u
      in
      let commit item down =
        Faillock.commit_update !t ~item ~down:(bitset_of_list sites down) ~set:(ref 0)
          ~cleared:(ref 0);
        assign item (fun s -> List.mem s down)
      in
      let apply = function
        | M_set (item, site) ->
          ignore (Faillock.set !t ~item ~site);
          assign item (fun s -> model.(item).(s) || s = site)
        | M_clear (item, site) ->
          ignore (Faillock.clear !t ~item ~site);
          assign item (fun s -> model.(item).(s) && s <> site)
        | M_commit (item, down) -> commit item down
        | M_fill (lo, hi, down) ->
          for item = lo to hi - 1 do
            commit item down
          done
        | M_drain (lo, hi) ->
          for item = lo to hi - 1 do
            commit item []
          done
        | M_install (k, bits) ->
          let from = Faillock.create ~num_items:model_items ~num_sites:sites in
          List.iter (fun (item, site) -> ignore (Faillock.set from ~item ~site)) bits;
          Faillock.install ~keep:(model_keep k) !t ~from;
          List.iter
            (fun item -> assign item (fun s -> model_keep k item && List.mem (item, s) bits))
            all_items
        | M_copy ->
          (* Continue on the copy; a change to the original must not
             reach it. *)
          let original = !t in
          t := logged (Faillock.copy original);
          Faillock.set_hook original None;
          if Faillock.is_locked original ~item:0 ~site:0 then
            ignore (Faillock.clear original ~item:0 ~site:0)
          else ignore (Faillock.set original ~item:0 ~site:0)
      in
      let rows () =
        List.map (fun item -> List.filter (fun s -> model.(item).(s)) all_sites) all_items
      in
      let matches () =
        let rows = rows () in
        let locked = List.filter (fun item -> Array.exists Fun.id model.(item)) all_items in
        List.map (fun item -> Faillock.locked_sites !t ~item) all_items = rows
        && Faillock.locked_items !t = locked
        && List.for_all
             (fun site ->
               let items = List.filter (fun item -> model.(item).(site)) all_items in
               Faillock.locked_items_for !t ~site = items
               && Faillock.count_for !t ~site = List.length items)
             all_sites
        && Faillock.total_locked !t = List.length (List.concat rows)
        && !log = !expected
      in
      (* [equal] against the same bits in other slots, and against a table
         with one bit moved within a row (same total, same rows). *)
      let equal_holds () =
        Faillock.equal !t (of_model ())
        && Faillock.equal (of_model ()) !t
        &&
        match
          List.find_opt
            (fun item -> Array.exists Fun.id model.(item) && not (Array.for_all Fun.id model.(item)))
            all_items
        with
        | None -> true
        | Some item ->
          let moved = of_model () in
          let on = List.find (fun s -> model.(item).(s)) all_sites in
          let off = List.find (fun s -> not model.(item).(s)) all_sites in
          ignore (Faillock.clear moved ~item ~site:on);
          ignore (Faillock.set moved ~item ~site:off);
          (not (Faillock.equal !t moved)) && not (Faillock.equal moved !t)
      in
      List.for_all
        (fun op ->
          apply op;
          matches () && equal_holds ())
        ops
      && List.for_all
           (fun item ->
             List.for_all
               (fun site -> Faillock.is_locked !t ~item ~site = model.(item).(site))
               all_sites)
           all_items)

let test_iteration_helpers () =
  let t = table () in
  ignore (Faillock.set t ~item:0 ~site:1);
  ignore (Faillock.set t ~item:3 ~site:1);
  ignore (Faillock.set t ~item:4 ~site:2);
  let seen = ref [] in
  Faillock.iter_locked_items_for t ~site:1 (fun item -> seen := item :: !seen);
  Alcotest.(check (list int))
    "iter = locked_items_for"
    (Faillock.locked_items_for t ~site:1)
    (List.rev !seen);
  Alcotest.(check bool) "any for locked site" true (Faillock.any_locked_for t ~site:1);
  Alcotest.(check bool) "none for clean site" false (Faillock.any_locked_for t ~site:0);
  let union = Raid_util.Bitset.create 3 in
  Faillock.union_locked_into ~dst:union t ~item:0;
  Faillock.union_locked_into ~dst:union t ~item:4;
  Alcotest.(check (list int)) "union of rows" [ 1; 2 ] (Raid_util.Bitset.to_list union)

let suite =
  [
    Alcotest.test_case "initial table" `Quick test_initial;
    Alcotest.test_case "iteration helpers" `Quick test_iteration_helpers;
    Alcotest.test_case "set/clear transitions" `Quick test_set_clear_transitions;
    Alcotest.test_case "commit_update semantics" `Quick test_commit_update;
    Alcotest.test_case "locked items and counts" `Quick test_locked_items_and_counts;
    Alcotest.test_case "clear_sites" `Quick test_clear_sites;
    Alcotest.test_case "copy/install/merge" `Quick test_copy_install_merge;
    Alcotest.test_case "bounds checked" `Quick test_bounds;
    QCheck_alcotest.to_alcotest prop_commit_update_postcondition;
    QCheck_alcotest.to_alcotest prop_commit_update_matches_reference;
    QCheck_alcotest.to_alcotest prop_install_matches_reference;
    QCheck_alcotest.to_alcotest prop_commit_update_sequences;
    QCheck_alcotest.to_alcotest prop_model_sequences;
  ]
