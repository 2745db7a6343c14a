module Workload = Raid_core.Workload
module Txn = Raid_core.Txn
module Rng = Raid_util.Rng

let make ?(num_items = 50) ?(seed = 1) spec =
  Workload.create spec ~num_items ~rng:(Rng.create seed)

let test_uniform_bounds () =
  let w = make (Workload.Uniform { max_ops = 5; write_prob = 0.5 }) in
  for id = 1 to 200 do
    let txn = Workload.next w ~id in
    Alcotest.(check bool) "size in [1,5]" true (Txn.size txn >= 1 && Txn.size txn <= 5);
    List.iter
      (fun item -> Alcotest.(check bool) "item in range" true (item >= 0 && item < 50))
      (Txn.items txn);
    Alcotest.(check int) "id propagated" id txn.Txn.id
  done

let test_uniform_rw_mix () =
  let w = make ~seed:3 (Workload.Uniform { max_ops = 10; write_prob = 0.5 }) in
  let reads = ref 0 and writes = ref 0 in
  for id = 1 to 500 do
    List.iter
      (function Txn.Read _ -> incr reads | Txn.Write _ -> incr writes)
      (Workload.next w ~id).Txn.ops
  done;
  let total = !reads + !writes in
  let fraction = float_of_int !writes /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "write fraction near 0.5 (%.3f)" fraction)
    true
    (fraction > 0.45 && fraction < 0.55)

let test_uniform_write_prob_extremes () =
  let all_reads = make (Workload.Uniform { max_ops = 5; write_prob = 0.0 }) in
  let all_writes = make (Workload.Uniform { max_ops = 5; write_prob = 1.0 }) in
  for id = 1 to 50 do
    Alcotest.(check bool) "read-only" true (Txn.write_items (Workload.next all_reads ~id) = []);
    Alcotest.(check (list int)) "no reads" [] (Txn.read_items (Workload.next all_writes ~id))
  done

let test_determinism () =
  let a = make ~seed:9 (Workload.Uniform { max_ops = 10; write_prob = 0.5 }) in
  let b = make ~seed:9 (Workload.Uniform { max_ops = 10; write_prob = 0.5 }) in
  for id = 1 to 50 do
    Alcotest.(check string) "same stream"
      (Format.asprintf "%a" Txn.pp (Workload.next a ~id))
      (Format.asprintf "%a" Txn.pp (Workload.next b ~id))
  done

let test_et1_structure () =
  let spec = Workload.Et1 { branches = 2; tellers_per_branch = 3; accounts_per_branch = 10 } in
  let w = make ~num_items:50 spec in
  for id = 1 to 100 do
    let txn = Workload.next w ~id in
    Alcotest.(check int) "six operations" 6 (Txn.size txn);
    (* Structure: RMW on account, teller, branch. *)
    (match txn.Txn.ops with
    | [ Txn.Read a; Txn.Write a'; Txn.Read t; Txn.Write t'; Txn.Read b; Txn.Write b' ] ->
      Alcotest.(check int) "account RMW" a a';
      Alcotest.(check int) "teller RMW" t t';
      Alcotest.(check int) "branch RMW" b b';
      Alcotest.(check bool) "branch region" true (b >= 0 && b < 2);
      Alcotest.(check bool) "teller region" true (t >= 2 && t < 8);
      Alcotest.(check bool) "account region" true (a >= 8 && a < 28);
      (* The teller and account belong to the chosen branch. *)
      Alcotest.(check int) "teller's branch" b ((t - 2) / 3);
      Alcotest.(check int) "account's branch" b ((a - 8) / 10)
    | _ -> Alcotest.fail "unexpected ET1 shape")
  done

let test_et1_space_validation () =
  Alcotest.check_raises "needs 28 items"
    (Invalid_argument "Workload: ET1 needs 28 items but only 20 available") (fun () ->
      ignore
        (make ~num_items:20
           (Workload.Et1 { branches = 2; tellers_per_branch = 3; accounts_per_branch = 10 })))

let test_wisconsin_mix () =
  let spec = Workload.Wisconsin { scan_length = 8; update_ops = 3; scan_prob = 0.5 } in
  let w = make ~num_items:50 ~seed:4 spec in
  let scans = ref 0 and updates = ref 0 in
  for id = 1 to 200 do
    let txn = Workload.next w ~id in
    if Txn.write_items txn = [] then begin
      incr scans;
      Alcotest.(check int) "scan length" 8 (Txn.size txn);
      (* Scan reads are consecutive. *)
      match Txn.read_items txn with
      | first :: _ as items ->
        Alcotest.(check (list int)) "consecutive" (List.init 8 (fun i -> first + i)) items
      | [] -> Alcotest.fail "empty scan"
    end
    else begin
      incr updates;
      Alcotest.(check int) "update ops" 6 (Txn.size txn)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "both kinds occur (%d scans, %d updates)" !scans !updates)
    true
    (!scans > 50 && !updates > 50)

let test_zipfian_bounds_and_mix () =
  let w = make ~num_items:100 ~seed:7 (Workload.Zipfian { max_ops = 6; write_prob = 0.4; theta = 0.9 }) in
  let reads = ref 0 and writes = ref 0 in
  for id = 1 to 500 do
    let txn = Workload.next w ~id in
    Alcotest.(check bool) "size in [1,6]" true (Txn.size txn >= 1 && Txn.size txn <= 6);
    List.iter
      (fun item -> Alcotest.(check bool) "item in range" true (item >= 0 && item < 100))
      (Txn.items txn);
    List.iter
      (function Txn.Read _ -> incr reads | Txn.Write _ -> incr writes)
      txn.Txn.ops
  done;
  let fraction = float_of_int !writes /. float_of_int (!reads + !writes) in
  Alcotest.(check bool)
    (Printf.sprintf "write fraction near 0.4 (%.3f)" fraction)
    true
    (fraction > 0.35 && fraction < 0.45)

let test_zipfian_shape () =
  (* theta = 0.9 concentrates mass on low ranks: item 0 must dominate and
     the ten hottest items must carry far more than their uniform share
     (10%% of the draws). *)
  let num_items = 100 in
  let w = make ~num_items ~seed:11 (Workload.Zipfian { max_ops = 4; write_prob = 0.5; theta = 0.9 }) in
  let counts = Array.make num_items 0 in
  let total = ref 0 in
  for id = 1 to 3000 do
    List.iter
      (fun item ->
        counts.(item) <- counts.(item) + 1;
        incr total)
      (Txn.items (Workload.next w ~id))
  done;
  let top10 = ref 0 in
  for i = 0 to 9 do
    top10 := !top10 + counts.(i)
  done;
  let top10_share = float_of_int !top10 /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "top-10 share well above uniform (%.3f)" top10_share)
    true (top10_share > 0.4);
  Alcotest.(check bool) "hottest item is rank 0" true
    (Array.for_all (fun c -> c <= counts.(0)) counts)

let test_zipfian_determinism () =
  let spec = Workload.Zipfian { max_ops = 8; write_prob = 0.3; theta = 0.7 } in
  let a = make ~num_items:64 ~seed:21 spec in
  let b = make ~num_items:64 ~seed:21 spec in
  for id = 1 to 100 do
    Alcotest.(check string) "same stream"
      (Format.asprintf "%a" Txn.pp (Workload.next a ~id))
      (Format.asprintf "%a" Txn.pp (Workload.next b ~id))
  done

let test_zipfian_theta_validation () =
  Alcotest.check_raises "theta = 0" (Invalid_argument "Workload: zipfian theta must be in (0,1)")
    (fun () -> ignore (make (Workload.Zipfian { max_ops = 5; write_prob = 0.5; theta = 0.0 })));
  Alcotest.check_raises "theta = 1" (Invalid_argument "Workload: zipfian theta must be in (0,1)")
    (fun () -> ignore (make (Workload.Zipfian { max_ops = 5; write_prob = 0.5; theta = 1.0 })))

let test_validation () =
  Alcotest.check_raises "bad max_ops" (Invalid_argument "Workload: max_ops must be positive")
    (fun () -> ignore (make (Workload.Uniform { max_ops = 0; write_prob = 0.5 })));
  Alcotest.check_raises "bad probability" (Invalid_argument "Workload: write_prob outside [0,1]")
    (fun () -> ignore (make (Workload.Uniform { max_ops = 5; write_prob = 1.5 })));
  Alcotest.check_raises "scan too long" (Invalid_argument "Workload: scan_length exceeds num_items")
    (fun () ->
      ignore
        (make ~num_items:5 (Workload.Wisconsin { scan_length = 8; update_ops = 1; scan_prob = 0.5 })))

let suite =
  [
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "uniform read/write mix" `Quick test_uniform_rw_mix;
    Alcotest.test_case "write_prob extremes" `Quick test_uniform_write_prob_extremes;
    Alcotest.test_case "determinism by seed" `Quick test_determinism;
    Alcotest.test_case "ET1 structure" `Quick test_et1_structure;
    Alcotest.test_case "ET1 space validation" `Quick test_et1_space_validation;
    Alcotest.test_case "Wisconsin mix" `Quick test_wisconsin_mix;
    Alcotest.test_case "zipfian bounds and op mix" `Quick test_zipfian_bounds_and_mix;
    Alcotest.test_case "zipfian shape" `Quick test_zipfian_shape;
    Alcotest.test_case "zipfian determinism" `Quick test_zipfian_determinism;
    Alcotest.test_case "zipfian theta validation" `Quick test_zipfian_theta_validation;
    Alcotest.test_case "spec validation" `Quick test_validation;
  ]
