module Prio = Raid_net.Heap.Prio

(* Pop everything as (at, slot), in pop order. *)
let drain h =
  let rec loop acc =
    if Prio.is_empty h then List.rev acc
    else
      let at = Prio.min_at h in
      let slot = Prio.pop_min h in
      loop ((at, slot) :: acc)
  in
  loop []

(* Push each key with its list index as both seq and slot, the way
   the engine numbers its events. *)
let of_ats ats =
  let h = Prio.create () in
  List.iteri (fun seq at -> Prio.push h ~at ~seq seq) ats;
  h

let test_empty () =
  let h = of_ats [ 3 ] in
  Alcotest.(check bool) "not empty" false (Prio.is_empty h);
  Alcotest.(check int) "popped" 0 (Prio.pop_min h);
  Alcotest.(check bool) "is_empty" true (Prio.is_empty h);
  Alcotest.(check int) "size" 0 (Prio.size h)

let test_ordering () =
  let h = of_ats [ 5; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check int) "size" 8 (Prio.size h);
  Alcotest.(check int) "min at" 1 (Prio.min_at h);
  Alcotest.(check (list (pair int int)))
    "sorted drain, equal ats in push order"
    [ (1, 1); (1, 3); (2, 6); (4, 2); (5, 0); (5, 4); (6, 7); (9, 5) ]
    (drain h)

(* Slots are arbitrary ints, unrelated to the keys: the engine reuses
   freed slots in any order. *)
let test_interleaved () =
  let h = Prio.create () in
  Prio.push h ~at:3 ~seq:0 10;
  Prio.push h ~at:1 ~seq:1 11;
  Alcotest.(check int) "pop 1" 11 (Prio.pop_min h);
  Prio.push h ~at:0 ~seq:2 11;
  Prio.push h ~at:2 ~seq:3 7;
  Alcotest.(check int) "pop 0" 11 (Prio.pop_min h);
  Alcotest.(check (list (pair int int))) "rest" [ (2, 7); (3, 10) ] (drain h)

let prop_sorted =
  QCheck.Test.make ~name:"heap drains sorted" ~count:300 QCheck.(list int) (fun ats ->
      List.map fst (drain (of_ats ats)) = List.sort Int.compare ats)

let test_prio_empty () =
  let h = Prio.create () in
  Alcotest.(check bool) "is_empty" true (Prio.is_empty h);
  Alcotest.(check int) "size" 0 (Prio.size h);
  Alcotest.check_raises "min_at empty" (Invalid_argument "Heap.Prio.min_at: empty heap")
    (fun () -> ignore (Prio.min_at h));
  Alcotest.check_raises "pop_min empty" (Invalid_argument "Heap.Prio.pop_min: empty heap")
    (fun () -> ignore (Prio.pop_min h))

let test_prio_at_then_seq_order () =
  let h = Prio.create () in
  (* Same at: seq breaks the tie; different at: at wins regardless of seq. *)
  Prio.push h ~at:20 ~seq:0 3;
  Prio.push h ~at:10 ~seq:2 2;
  Prio.push h ~at:10 ~seq:1 1;
  Prio.push h ~at:30 ~seq:3 4;
  Alcotest.(check int) "size" 4 (Prio.size h);
  Alcotest.(check (list (pair int int)))
    "drain order"
    [ (10, 1); (10, 2); (20, 3); (30, 4) ]
    (drain h)

(* Random push/pop interleavings against a sorted-list reference.  Keys
   come from a handful of [at]s, so most pops break a tie on [seq]; seqs
   are a permutation of the op indices, pushed out of order, so a sift
   that ignored them would show.  Each push's slot is its op index.
   Every pop must return exactly the reference minimum's slot, and the
   sizes must agree throughout. *)
let prop_interleavings =
  let op =
    QCheck.Gen.(frequency [ (3, map (fun at -> `Push at) (int_range 0 3)); (2, return `Pop) ])
  in
  let show = function `Push at -> Printf.sprintf "push %d" at | `Pop -> "pop" in
  QCheck.Test.make ~name:"Prio pops interleavings in (at, seq) order" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat ", " (List.map show ops))
       QCheck.Gen.(list_size (int_range 0 200) op))
    (fun ops ->
      let n = List.length ops in
      let seqs = Array.init n (fun i -> (i * 7919) mod (max 1 n)) in
      let h = Prio.create () in
      let reference = ref [] in
      List.for_all Fun.id
        (List.mapi
           (fun i op ->
             match op with
             | `Push at ->
               Prio.push h ~at ~seq:seqs.(i) i;
               reference := List.merge compare [ (at, seqs.(i), i) ] !reference;
               Prio.size h = List.length !reference
             | `Pop -> (
               match !reference with
               | [] -> Prio.is_empty h
               | (at, _, slot) :: rest ->
                 reference := rest;
                 Prio.min_at h = at && Prio.pop_min h = slot))
           ops)
      && drain h = List.map (fun (at, _, slot) -> (at, slot)) !reference)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    QCheck_alcotest.to_alcotest prop_sorted;
    Alcotest.test_case "prio: empty" `Quick test_prio_empty;
    Alcotest.test_case "prio: at then seq order" `Quick test_prio_at_then_seq_order;
    QCheck_alcotest.to_alcotest prop_interleavings;
  ]
