module Bitset = Raid_util.Bitset

let of_list capacity members =
  let b = Bitset.create capacity in
  List.iter (Bitset.set b) members;
  b

let cardinal b = List.length (Bitset.to_list b)

(* [b]'s bits as the only row of a slab, the slab form that
   [union_row_into] and [equal_row] read. *)
let as_row b =
  let slab = Bytes.make (Bitset.bytes_for (Bitset.capacity b)) '\000' in
  Bitset.store b slab 0;
  slab

let test_empty () =
  let b = Bitset.create 10 in
  Alcotest.(check int) "capacity" 10 (Bitset.capacity b);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty b);
  Alcotest.(check int) "cardinal" 0 (cardinal b);
  Alcotest.(check (list int)) "to_list" [] (Bitset.to_list b)

let test_set_clear_mem () =
  let b = Bitset.create 16 in
  Bitset.set b 0;
  Bitset.set b 7;
  Bitset.set b 15;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 7" true (Bitset.mem b 7);
  Alcotest.(check bool) "mem 8" false (Bitset.mem b 8);
  Alcotest.(check int) "cardinal" 3 (cardinal b);
  Bitset.clear b 7;
  Alcotest.(check bool) "cleared" false (Bitset.mem b 7);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 15 ] (Bitset.to_list b)

let test_set_idempotent () =
  let b = Bitset.create 8 in
  Bitset.set b 3;
  Bitset.set b 3;
  Alcotest.(check int) "still one" 1 (cardinal b)

let test_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set b (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem b 8))

let test_zero_capacity () =
  let b = Bitset.create 0 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b)

let test_copy_independent () =
  let a = Bitset.create 8 in
  Bitset.set a 1;
  let b = Bitset.copy a in
  Bitset.set b 2;
  Alcotest.(check bool) "original unchanged" false (Bitset.mem a 2);
  Alcotest.(check bool) "copy has original" true (Bitset.mem b 1)

let test_union_into () =
  let a = of_list 8 [ 1; 3 ] and b = of_list 8 [ 3; 5 ] in
  Bitset.union_row_into ~dst:a (as_row b) 0;
  Alcotest.(check (list int)) "union" [ 1; 3; 5 ] (Bitset.to_list a);
  let c = Bitset.create 9 in
  Alcotest.check_raises "row narrower than the set"
    (Invalid_argument "Bitset: row out of slab bounds") (fun () ->
      Bitset.union_row_into ~dst:c (as_row a) 0)

let test_clear_all () =
  let b = of_list 12 [ 0; 5; 11 ] in
  Bitset.clear_all b;
  Alcotest.(check bool) "empty after clear_all" true (Bitset.is_empty b)

let test_equal () =
  Alcotest.(check bool) "equal" true (Bitset.equal (of_list 8 [ 1 ]) (of_list 8 [ 1 ]));
  Alcotest.(check bool) "different members" false
    (Bitset.equal (of_list 8 [ 1 ]) (of_list 8 [ 2 ]));
  Alcotest.(check bool) "different capacity" false
    (Bitset.equal (Bitset.create 8) (Bitset.create 9))

let test_fold_iter () =
  let b = of_list 64 [ 0; 31; 32; 63 ] in
  Alcotest.(check int) "sum of to_list" 126 (List.fold_left ( + ) 0 (Bitset.to_list b));
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  Alcotest.(check (list int)) "iter order" [ 63; 32; 31; 0 ] !seen

(* Model-based property: a bitset behaves like a set of ints. *)
let prop_model =
  let gen = QCheck.(list (pair (int_range 0 63) bool)) in
  QCheck.Test.make ~name:"bitset matches set model" ~count:300 gen (fun operations ->
      let b = Bitset.create 64 in
      let module IntSet = Set.Make (Int) in
      let model =
        List.fold_left
          (fun model (i, add) ->
            if add then begin
              Bitset.set b i;
              IntSet.add i model
            end
            else begin
              Bitset.clear b i;
              IntSet.remove i model
            end)
          IntSet.empty operations
      in
      Bitset.to_list b = IntSet.elements model
      && cardinal b = IntSet.cardinal model
      && Bitset.is_empty b = IntSet.is_empty model)

(* The word-scan [iter] isolates bits within bytes and skips zero bytes;
   pin its order and completeness around every byte boundary. *)
let test_iter_byte_boundaries () =
  let b = Bitset.create 70 in
  let members = [ 0; 6; 7; 8; 9; 15; 16; 31; 32; 63; 64; 69 ] in
  List.iter (Bitset.set b) members;
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  Alcotest.(check (list int)) "increasing order, every member" members (List.rev !seen);
  Alcotest.(check int) "cardinal agrees" (List.length members) (cardinal b)

let test_iter_sparse () =
  let b = Bitset.create 256 in
  Bitset.set b 0;
  Bitset.set b 255;
  Alcotest.(check (list int)) "only the set bits" [ 0; 255 ] (Bitset.to_list b);
  Bitset.clear b 0;
  Bitset.clear b 255;
  let visited = ref 0 in
  Bitset.iter (fun _ -> incr visited) b;
  Alcotest.(check int) "empty set visits none" 0 !visited

(* Slab rows: two 10-bit rows (2 bytes each) side by side, the second
   at byte 2, written, compared and read back without touching the
   first. *)
let test_slab_rows () =
  let width = Bitset.bytes_for 10 in
  Alcotest.(check int) "bytes per row" 2 width;
  let slab = Bytes.make (2 * width) '\000' in
  let row = of_list 10 [ 1; 8; 9 ] in
  Bitset.store row slab width;
  Alcotest.(check bool) "stored row equal" true (Bitset.equal_row row slab width);
  Alcotest.(check bool) "other row differs" false (Bitset.equal_row row slab 0);
  let union = of_list 10 [ 0 ] in
  Bitset.union_row_into ~dst:union slab width;
  Alcotest.(check (list int)) "union with the row" [ 0; 1; 8; 9 ] (Bitset.to_list union);
  let back = Bitset.create 10 in
  Bitset.load back slab width;
  Alcotest.(check bool) "load round trip" true (Bitset.equal back row);
  Bitset.load back slab 0;
  Alcotest.(check bool) "first row untouched" true (Bitset.is_empty back);
  Alcotest.check_raises "row past the slab" (Invalid_argument "Bitset: row out of slab bounds")
    (fun () -> Bitset.store row slab 3)

(* The slab-row forms against a list model: sets as sorted lists of
   distinct members, at random capacities (most not a multiple of 8, so
   the partial tail byte is exercised), with the row placed among other
   rows of random content that must neither leak into the result nor
   change. *)
let prop_rows_model =
  let gen =
    QCheck.(
      pair
        (pair (int_range 1 70) (int_range 0 3))
        (quad bool (list small_nat) (list small_nat) (list small_nat)))
  in
  QCheck.Test.make ~name:"slab rows match a list model" ~count:500 gen
    (fun ((capacity, row), (same, a, b, noise)) ->
      let members l = List.sort_uniq compare (List.map (fun i -> i mod capacity) l) in
      let a = members a in
      let b = if same then a else members b in
      let width = Bitset.bytes_for capacity in
      let slab = Bytes.make (4 * width) '\000' in
      for r = 0 to 3 do
        if r <> row then
          Bitset.store (of_list capacity (members (List.map (( + ) r) noise))) slab (r * width)
      done;
      Bitset.store (of_list capacity b) slab (row * width);
      let before = Bytes.copy slab in
      let pos = row * width in
      let union = of_list capacity a in
      Bitset.union_row_into ~dst:union slab pos;
      Bitset.to_list union = List.sort_uniq compare (a @ b)
      && Bitset.equal_row (of_list capacity a) slab pos = (a = b)
      && Bytes.equal slab before)

let suite =
  [
    Alcotest.test_case "empty set" `Quick test_empty;
    Alcotest.test_case "iter byte boundaries" `Quick test_iter_byte_boundaries;
    Alcotest.test_case "iter sparse/empty" `Quick test_iter_sparse;
    Alcotest.test_case "set/clear/mem" `Quick test_set_clear_mem;
    Alcotest.test_case "set idempotent" `Quick test_set_idempotent;
    Alcotest.test_case "bounds checked" `Quick test_bounds;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "union_into" `Quick test_union_into;
    Alcotest.test_case "clear_all" `Quick test_clear_all;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "fold and iter" `Quick test_fold_iter;
    Alcotest.test_case "slab rows" `Quick test_slab_rows;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_rows_model;
  ]
