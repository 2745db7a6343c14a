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
  Alcotest.(check (list int)) "writes deduplicated, in order" [ 1; 3 ] (Txn.write_items txn)

(* The reference: the hash-table deduplication the transaction's item
   lists were once built with. *)
let distinct_by_hashtbl items =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun item ->
      if Hashtbl.mem seen item then false
      else begin
        Hashtbl.add seen item ();
        true
      end)
    items

(* Items from a small range, so most transactions repeat some. *)
let prop_items_match_reference =
  let op = QCheck.Gen.(map2 (fun write item -> if write then Txn.Write item else Txn.Read item) bool (int_range 0 7)) in
  let print ops =
    String.concat " "
      (List.map (function Txn.Read i -> Printf.sprintf "r%d" i | Txn.Write i -> Printf.sprintf "w%d" i) ops)
  in
  QCheck.Test.make ~name:"item lists match a hash-table dedup" ~count:500
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 30) op))
    (fun ops ->
      let txn = Txn.make ~id:1 ops in
      Txn.read_items txn
      = distinct_by_hashtbl (List.filter_map (function Txn.Read i -> Some i | Txn.Write _ -> None) ops)
      && Txn.write_items txn
         = distinct_by_hashtbl
             (List.filter_map (function Txn.Write i -> Some i | Txn.Read _ -> None) ops))

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "item extraction" `Quick test_item_extraction;
    QCheck_alcotest.to_alcotest prop_items_match_reference;
  ]
