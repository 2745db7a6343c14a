module Int_table = Raid_util.Int_table

type op = Replace of int * int | Find of int | Remove of int | Mem of int

let print_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Mem k -> Printf.sprintf "mem %d" k

(* Operations over keys drawn by [key]: replace is half the draws, so
   tables grow past several doublings of their index. *)
let gen_ops key =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (frequency
         [
           (4, map2 (fun k v -> Replace (k, v)) key (int_range 0 1000));
           (2, map (fun k -> Remove k) key);
           (1, map (fun k -> Find k) key);
           (1, map (fun k -> Mem k) key);
         ]))

(* Run [ops] on a table whose values live at the keys' slots of an
   array, as the table's owners keep them, and on a [Stdlib.Hashtbl];
   every answer, and the length, must agree after every step.  At the
   end the held keys come back in increasing order, each with a slot of
   its own below the capacity. *)
let agrees ops =
  let table = Int_table.create () and model = Hashtbl.create 8 in
  let values = ref [||] in
  let value_of slot = if slot = Int_table.absent then None else Some !values.(slot) in
  let step = function
    | Replace (k, v) ->
      let slot = Int_table.add table k in
      values := Int_table.fit table !values (-1);
      !values.(slot) <- v;
      Hashtbl.replace model k v;
      true
    | Find k -> value_of (Int_table.find table k) = Hashtbl.find_opt model k
    | Remove k ->
      let slot = Int_table.remove table k in
      let held = Hashtbl.mem model k in
      Hashtbl.remove model k;
      (slot <> Int_table.absent) = held
    | Mem k -> Int_table.mem table k = Hashtbl.mem model k
  in
  List.for_all (fun op -> step op && Int_table.length table = Hashtbl.length model) ops
  &&
  let keys = Int_table.keys table in
  let slots = List.map (Int_table.find table) keys in
  keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
  && List.length (List.sort_uniq compare slots) = List.length slots
  && List.for_all (fun slot -> slot >= 0 && slot < Int_table.capacity table) slots
  && List.for_all2 (fun k slot -> Some !values.(slot) = Hashtbl.find_opt model k) keys slots

let model_test ~name key =
  QCheck.Test.make ~name ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map print_op ops)) (gen_ops key))
    agrees

(* Few distinct keys: the table fills, empties and refills, and most
   probes meet a collision. *)
let prop_small_keys = model_test ~name:"matches Hashtbl, small keys" (QCheck.Gen.int_range 0 23)

(* Multiples of a power of two, from small to far apart: their home
   buckets come only from the hash's spreading, runs wrap past the last
   bucket, and removals shift entries back across the wrap. *)
let prop_power_of_two_keys =
  model_test ~name:"matches Hashtbl, multiples of 2^k"
    QCheck.Gen.(map2 (fun i shift -> i lsl shift) (int_range 0 40) (oneofl [ 3; 10; 20; 40 ]))

let test_empty_and_copy () =
  let t = Int_table.create () in
  Alcotest.(check int) "no slots yet" 0 (Int_table.capacity t);
  Alcotest.(check int) "find in an empty table" Int_table.absent (Int_table.find t 0);
  Alcotest.(check int) "remove from an empty table" Int_table.absent (Int_table.remove t 5);
  Alcotest.check_raises "negative key" (Invalid_argument "Int_table.add: negative key") (fun () ->
      ignore (Int_table.add t (-3)));
  Alcotest.(check int) "negative key is never found" Int_table.absent (Int_table.find t (-1));
  let slot = Int_table.add t 7 in
  Alcotest.(check int) "adding a held key returns its slot" slot (Int_table.add t 7);
  let c = Int_table.copy t in
  ignore (Int_table.remove t 7);
  Alcotest.(check int) "the copy keeps its key and slot" slot (Int_table.find c 7);
  Int_table.reset c;
  Alcotest.(check (list int)) "reset drops every key" [] (Int_table.keys c);
  Alcotest.(check int) "reset drops every slot" 0 (Int_table.capacity c)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_small_keys;
    QCheck_alcotest.to_alcotest prop_power_of_two_keys;
    Alcotest.test_case "empty table, copy and reset" `Quick test_empty_and_copy;
  ]
