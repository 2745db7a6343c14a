module Database = Raid_storage.Database
module Update_log = Raid_storage.Update_log

let write ~item ~value ~version = { Database.item; value; version }

(* The log's (txn, write) entries, oldest first: [exists] scans newest
   first, so prepending as it goes leaves them in application order. *)
let entries log =
  let acc = ref [] in
  ignore
    (Update_log.exists log (fun ~txn write ->
         acc := (txn, write) :: !acc;
         false));
  !acc

let test_initial_state () =
  let db = Database.create ~num_items:3 in
  Alcotest.(check int) "num_items" 3 (Database.num_items db);
  for item = 0 to 2 do
    Alcotest.(check (option (pair int int)))
      (Printf.sprintf "item %d" item)
      (Some (0, 0)) (Database.read db item)
  done

let test_apply_and_read () =
  let db = Database.create ~num_items:2 in
  Database.apply db (write ~item:0 ~value:7 ~version:1);
  Alcotest.(check (option (pair int int))) "applied" (Some (7, 1)) (Database.read db 0);
  Alcotest.(check (option int)) "version" (Some 1) (Database.version db 0);
  Alcotest.(check (option (pair int int))) "other untouched" (Some (0, 0)) (Database.read db 1)

let test_version_regression_rejected () =
  let db = Database.create ~num_items:1 in
  Database.apply db (write ~item:0 ~value:1 ~version:5);
  Alcotest.check_raises "same version"
    (Invalid_argument "Database.apply: version regression on item 0 (5 <= 5)") (fun () ->
      Database.apply db (write ~item:0 ~value:2 ~version:5));
  Alcotest.check_raises "older version"
    (Invalid_argument "Database.apply: version regression on item 0 (3 <= 5)") (fun () ->
      Database.apply db (write ~item:0 ~value:2 ~version:3))

let test_reserved_version () =
  List.iter
    (fun db ->
      Alcotest.check_raises "apply" (Invalid_argument "Database: version out of range") (fun () ->
          Database.apply db (write ~item:0 ~value:1 ~version:min_int));
      Alcotest.check_raises "materialize" (Invalid_argument "Database: version out of range")
        (fun () -> Database.materialize db (write ~item:0 ~value:1 ~version:min_int));
      Alcotest.(check (option (pair int int))) "unchanged" (Some (0, 0)) (Database.read db 0))
    [ Database.create ~num_items:1; Database.create_partial ~num_items:1 ~stored:(fun _ -> true) ]

let test_out_of_range () =
  let db = Database.create ~num_items:1 in
  Alcotest.check_raises "read out of range" (Invalid_argument "Database: item out of range")
    (fun () -> ignore (Database.read db 1))

let test_partial_and_materialize () =
  let db = Database.create_partial ~num_items:4 ~stored:(fun i -> i mod 2 = 0) in
  Alcotest.(check (option (pair int int))) "base read" (Some (0, 0)) (Database.read db 0);
  Alcotest.(check (option (pair int int))) "absent read" None (Database.read db 1);
  Database.materialize db (write ~item:1 ~value:9 ~version:4);
  Alcotest.(check (option (pair int int))) "materialized" (Some (9, 4)) (Database.read db 1)

let test_apply_materializes_absent () =
  let db = Database.create_partial ~num_items:2 ~stored:(fun _ -> false) in
  Database.apply db (write ~item:0 ~value:3 ~version:2);
  Alcotest.(check (option (pair int int))) "write creates copy" (Some (3, 2)) (Database.read db 0)

let test_equal_and_snapshot () =
  let a = Database.create ~num_items:2 and b = Database.create ~num_items:2 in
  Alcotest.(check bool) "equal initially" true (Database.equal a b);
  Database.apply a (write ~item:0 ~value:1 ~version:1);
  Alcotest.(check bool) "diverged" false (Database.equal a b);
  Database.apply b (write ~item:0 ~value:1 ~version:1);
  Alcotest.(check bool) "equal again" true (Database.equal a b);
  let snapshot = Database.snapshot a in
  Alcotest.(check (array (option (pair int int)))) "snapshot"
    [| Some (1, 1); Some (0, 0) |] snapshot

(* Re-imaging a dense database into its previous image overwrites that
   image in place; a partial database cannot, and gets a fresh one. *)
let test_image_reuse () =
  let db = Database.create ~num_items:3 in
  Database.apply db (write ~item:1 ~value:5 ~version:1);
  let img = Database.image db in
  Database.apply db (write ~item:2 ~value:7 ~version:2);
  let again = Database.image ~reuse:img db in
  Alcotest.(check bool) "same image" true (again == img);
  Database.wipe db;
  Database.restore db again;
  Alcotest.(check (list (option (pair int int))))
    "restored from the reused image"
    [ Some (0, 0); Some (5, 1); Some (7, 2) ]
    (Array.to_list (Database.snapshot db));
  let partial = Database.create_partial ~num_items:3 ~stored:(fun _ -> true) in
  Alcotest.(check bool) "fresh for a partial database" false
    (Database.image ~reuse:again partial == again)

let test_update_log () =
  let log = Update_log.create () in
  Alcotest.(check int) "empty" 0 (List.length (entries log));
  Update_log.append log ~txn:1 (write ~item:0 ~value:1 ~version:1);
  Update_log.append log ~txn:2 (write ~item:1 ~value:2 ~version:2);
  Update_log.append log ~txn:3 (write ~item:0 ~value:3 ~version:3);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.map fst (entries log));
  Alcotest.(check bool) "exists" true
    (Update_log.exists log (fun ~txn w -> txn = 3 && w.Database.version = 3));
  Alcotest.(check bool) "exists nothing" false
    (Update_log.exists log (fun ~txn:_ w -> w.Database.item = 2))

let prop_apply_monotone =
  QCheck.Test.make ~name:"ascending applies always succeed and read back" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 0 9) small_nat))
    (fun writes ->
      let db = Database.create ~num_items:10 in
      let expected = Array.make 10 (0, 0) in
      List.iteri
        (fun index (item, value) ->
          let version = index + 1 in
          Database.apply db { Database.item; value; version };
          expected.(item) <- (value, version))
        writes;
      List.for_all
        (fun item -> Database.read db item = Some expected.(item))
        (List.init 10 Fun.id))

(* {2 Differential: dense, sparse and a reference model}

   One random operation sequence drives three databases: the dense
   backend, the sparse backend over a base that stores every item (so
   both start identical), and a plain array of [(value, version)
   option]s.  Versions come from one ascending counter, so no apply is a
   regression.  After every operation all three must read back the
   same, item by item and through [snapshot] and [equal]. *)
let diff_items = 9

type db_op =
  | Apply of int * int  (* item, value *)
  | Materialize of int * int
  | Wipe
  | Image  (* remember every side's image *)
  | Restore_own  (* each side restores its own remembered image *)
  | Restore_foreign  (* dense and sparse restore each other's *)

let gen_db_op =
  let open QCheck.Gen in
  let item = int_range 0 (diff_items - 1) in
  frequency
    [
      (6, map2 (fun i v -> Apply (i, v)) item small_nat);
      (2, map2 (fun i v -> Materialize (i, v)) item small_nat);
      (1, return Wipe);
      (2, return Image);
      (1, return Restore_own);
      (1, return Restore_foreign);
    ]

let show_db_op = function
  | Apply (i, v) -> Printf.sprintf "apply %d=%d" i v
  | Materialize (i, v) -> Printf.sprintf "materialize %d=%d" i v
  | Wipe -> "wipe"
  | Image -> "image"
  | Restore_own -> "restore own"
  | Restore_foreign -> "restore foreign"

let prop_backends_agree =
  QCheck.Test.make ~name:"dense and sparse backends match a reference model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat ", " (List.map show_db_op ops))
       QCheck.Gen.(list_size (int_range 0 60) gen_db_op))
    (fun ops ->
      let dense = Database.create ~num_items:diff_items in
      let sparse = Database.create_partial ~num_items:diff_items ~stored:(fun _ -> true) in
      let pristine = Database.create ~num_items:diff_items in
      let model = Array.make diff_items (Some (0, 0)) in
      let saved = ref None and version = ref 0 in
      let next () = incr version; !version in
      let agree () =
        Database.snapshot dense = model
        && Database.snapshot sparse = model
        && List.for_all
             (fun item ->
               let r = model.(item) in
               Database.read dense item = r
               && Database.read sparse item = r
               && Database.version dense item = Option.map snd r
               && Database.version sparse item = Option.map snd r)
             (List.init diff_items Fun.id)
        && Database.equal dense sparse && Database.equal sparse dense
        && Database.equal dense pristine = (model = Array.make diff_items (Some (0, 0)))
      in
      List.for_all
        (fun op ->
          (match op with
          | Apply (item, value) ->
            let w = { Database.item; value; version = next () } in
            Database.apply dense w;
            Database.apply sparse w;
            model.(item) <- Some (value, w.Database.version)
          | Materialize (item, value) ->
            let w = { Database.item; value; version = next () } in
            Database.materialize dense w;
            Database.materialize sparse w;
            model.(item) <- Some (value, w.Database.version)
          | Wipe ->
            Database.wipe dense;
            Database.wipe sparse;
            Array.fill model 0 diff_items (Some (0, 0))
          | Image ->
            (* Each image reuses the previous one's storage where the
               backend allows it (the dense side), as a WAL checkpoint
               does. *)
            let reuse pick = Option.map pick !saved in
            saved :=
              Some
                ( Database.image ?reuse:(reuse (fun (d, _, _) -> d)) dense,
                  Database.image ?reuse:(reuse (fun (_, s, _) -> s)) sparse,
                  Array.copy model )
          | Restore_own | Restore_foreign -> (
            match !saved with
            | None -> ()
            | Some (dense_img, sparse_img, copy) ->
              let own = op = Restore_own in
              Database.restore dense (if own then dense_img else sparse_img);
              Database.restore sparse (if own then sparse_img else dense_img);
              Array.blit copy 0 model 0 diff_items));
          agree ())
        ops)

(* The update log against a plain list of (txn, write) pairs. *)
let prop_update_log_model =
  QCheck.Test.make ~name:"update log matches a list model" ~count:300
    QCheck.(
      pair
        (list_of_size
           Gen.(int_range 0 100)
           (triple (int_range (-3) 5) (int_range 0 4) (int_range 0 6)))
        (pair (int_range (-3) 5) (int_range 0 4)))
    (fun (appends, (probe_txn, probe_item)) ->
      let log = Update_log.create () in
      let model =
        List.map
          (fun (txn, item, version) ->
            let write = { Database.item; value = txn + version; version } in
            Update_log.append log ~txn write;
            (txn, write))
          appends
      in
      entries log = model
      && Update_log.exists log (fun ~txn w -> txn = probe_txn && w.Database.item = probe_item)
         = List.exists (fun (txn, w) -> txn = probe_txn && w.Database.item = probe_item) model)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "apply and read" `Quick test_apply_and_read;
    Alcotest.test_case "version regression rejected" `Quick test_version_regression_rejected;
    Alcotest.test_case "bounds checked" `Quick test_out_of_range;
    Alcotest.test_case "reserved version rejected" `Quick test_reserved_version;
    Alcotest.test_case "partial replication and materialize" `Quick test_partial_and_materialize;
    Alcotest.test_case "apply materializes absent copy" `Quick test_apply_materializes_absent;
    Alcotest.test_case "equal and snapshot" `Quick test_equal_and_snapshot;
    Alcotest.test_case "update log" `Quick test_update_log;
    Alcotest.test_case "image reuse" `Quick test_image_reuse;
    QCheck_alcotest.to_alcotest prop_apply_monotone;
    QCheck_alcotest.to_alcotest prop_backends_agree;
    QCheck_alcotest.to_alcotest prop_update_log_model;
  ]
