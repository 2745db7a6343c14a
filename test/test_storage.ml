module Database = Raid_storage.Database
module Update_log = Raid_storage.Update_log

let write ~item ~value ~version = { Database.item; value; version }

let test_initial_state () =
  let db = Database.create ~num_items:3 in
  Alcotest.(check int) "num_items" 3 (Database.num_items db);
  for item = 0 to 2 do
    Alcotest.(check (option (pair int int)))
      (Printf.sprintf "item %d" item)
      (Some (0, 0)) (Database.read db item);
    Alcotest.(check bool) "stores" true (Database.stores db item)
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

let test_out_of_range () =
  let db = Database.create ~num_items:1 in
  Alcotest.check_raises "read out of range" (Invalid_argument "Database: item out of range")
    (fun () -> ignore (Database.read db 1))

let test_partial_and_materialize () =
  let db = Database.create_partial ~num_items:4 ~stored:(fun i -> i mod 2 = 0) in
  Alcotest.(check bool) "stores 0" true (Database.stores db 0);
  Alcotest.(check bool) "not stores 1" false (Database.stores db 1);
  Alcotest.(check (option (pair int int))) "absent read" None (Database.read db 1);
  Database.materialize db (write ~item:1 ~value:9 ~version:4);
  Alcotest.(check (option (pair int int))) "materialized" (Some (9, 4)) (Database.read db 1);
  Database.drop db 1;
  Alcotest.(check (option (pair int int))) "dropped" None (Database.read db 1)

let test_apply_materializes_absent () =
  let db = Database.create_partial ~num_items:2 ~stored:(fun _ -> false) in
  Database.apply db (write ~item:0 ~value:3 ~version:2);
  Alcotest.(check (option (pair int int))) "write creates copy" (Some (3, 2)) (Database.read db 0)

let test_items_behind () =
  let a = Database.create ~num_items:4 and b = Database.create ~num_items:4 in
  Database.apply b (write ~item:1 ~value:5 ~version:2);
  Database.apply b (write ~item:3 ~value:5 ~version:7);
  Alcotest.(check (list int)) "behind" [ 1; 3 ] (Database.items_behind a b);
  Alcotest.(check (list int)) "reference not behind" [] (Database.items_behind b a)

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

let test_update_log () =
  let log = Update_log.create () in
  Alcotest.(check int) "empty" 0 (Update_log.length log);
  Update_log.append log { Update_log.txn = 1; write = write ~item:0 ~value:1 ~version:1 };
  Update_log.append log { Update_log.txn = 2; write = write ~item:1 ~value:2 ~version:2 };
  Update_log.append log { Update_log.txn = 3; write = write ~item:0 ~value:3 ~version:3 };
  Alcotest.(check int) "length" 3 (Update_log.length log);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ]
    (List.map (fun e -> e.Update_log.txn) (Update_log.entries log));
  Alcotest.(check int) "entries for item 0" 2 (List.length (Update_log.entries_for_item log 0));
  Alcotest.(check (option int)) "last version of 0" (Some 3) (Update_log.last_version_of log 0);
  Alcotest.(check (option int)) "last version of 2" None (Update_log.last_version_of log 2)

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

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "apply and read" `Quick test_apply_and_read;
    Alcotest.test_case "version regression rejected" `Quick test_version_regression_rejected;
    Alcotest.test_case "bounds checked" `Quick test_out_of_range;
    Alcotest.test_case "partial replication and materialize" `Quick test_partial_and_materialize;
    Alcotest.test_case "apply materializes absent copy" `Quick test_apply_materializes_absent;
    Alcotest.test_case "items_behind" `Quick test_items_behind;
    Alcotest.test_case "equal and snapshot" `Quick test_equal_and_snapshot;
    Alcotest.test_case "update log" `Quick test_update_log;
    QCheck_alcotest.to_alcotest prop_apply_monotone;
  ]
