module Txn = Raid_core.Txn

let test_make_validation () =
  Alcotest.check_raises "empty ops" (Invalid_argument "Txn.make: empty operation list") (fun () ->
      ignore (Txn.make ~id:1 []));
  Alcotest.check_raises "negative id" (Invalid_argument "Txn.make: negative id") (fun () ->
      ignore (Txn.make ~id:(-1) [ Txn.Read 0 ]))

let test_item_extraction () =
  let txn = Txn.make ~id:1 [ Txn.Read 3; Txn.Write 1; Txn.Read 3; Txn.Write 3; Txn.Read 2 ] in
  Alcotest.(check int) "size counts operations" 5 (Txn.size txn);
  Alcotest.(check (list int)) "reads deduplicated, in order" [ 3; 2 ] (Txn.read_items txn);
  Alcotest.(check (list int)) "writes deduplicated, in order" [ 1; 3 ] (Txn.write_items txn);
  Alcotest.(check (list int)) "all items" [ 3; 1; 2 ] (Txn.items txn)

let test_pp () =
  let txn = Txn.make ~id:7 [ Txn.Read 1; Txn.Write 2 ] in
  Alcotest.(check string) "render" "T7[r(1) w(2)]" (Format.asprintf "%a" Txn.pp txn)

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "item extraction" `Quick test_item_extraction;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]
