(* Tests for the closed-form fail-lock model and for the scaling /
   multi-seed reporting helpers. *)

module Analysis = Raid_sim.Analysis
module Scaling = Raid_sim.Scaling
module Stats = Raid_util.Stats

let feq tolerance = Alcotest.float tolerance

let test_q_properties () =
  let q ?(num_items = 50) ?(max_ops = 5) write_prob =
    Analysis.item_write_probability ~num_items ~max_ops ~write_prob
  in
  Alcotest.check (feq 1e-12) "no writes, no locking" 0.0 (q 0.0);
  Alcotest.(check bool) "monotone in write_prob" true (q 0.25 < q 0.5 && q 0.5 < q 0.75);
  (* One op, p=1: the item is written with probability 1/num_items. *)
  Alcotest.check (feq 1e-12) "single certain write" 0.02
    (Analysis.item_write_probability ~num_items:50 ~max_ops:1 ~write_prob:1.0)

let test_outage_saturates () =
  let q = Analysis.item_write_probability ~num_items:50 ~max_ops:5 ~write_prob:0.5 in
  let l100 = Analysis.expected_locked_after ~q ~num_items:50 ~txns:100 in
  let l1000 = Analysis.expected_locked_after ~q ~num_items:50 ~txns:1000 in
  Alcotest.(check bool) "over 90% at 100 txns" true (l100 > 45.0);
  Alcotest.(check bool) "saturates below item count" true (l1000 <= 50.0 && l1000 > l100)

let test_clearing_convex () =
  let q = Analysis.item_write_probability ~num_items:50 ~max_ops:5 ~write_prob:0.5 in
  let first10 = Analysis.expected_txns_to_clear ~q ~from_locks:47 ~to_locks:37 in
  let last10 = Analysis.expected_txns_to_clear ~q ~from_locks:10 ~to_locks:0 in
  Alcotest.(check bool)
    (Printf.sprintf "tail dominates (%.1f vs %.1f)" first10 last10)
    true (last10 > 5.0 *. first10)

let test_clearing_additive () =
  let q = 0.03 in
  let direct = Analysis.expected_txns_to_clear ~q ~from_locks:40 ~to_locks:10 in
  let split =
    Analysis.expected_txns_to_clear ~q ~from_locks:40 ~to_locks:20
    +. Analysis.expected_txns_to_clear ~q ~from_locks:20 ~to_locks:10
  in
  Alcotest.check (feq 1e-9) "decay is additive" direct split

let test_clearing_validation () =
  Alcotest.check_raises "bad q" (Invalid_argument "Analysis: q outside (0,1]") (fun () ->
      ignore (Analysis.expected_txns_to_clear ~q:0.0 ~from_locks:5 ~to_locks:0));
  Alcotest.check_raises "bad range" (Invalid_argument "Analysis: bad lock range") (fun () ->
      ignore (Analysis.expected_txns_to_clear ~q:0.1 ~from_locks:5 ~to_locks:6))

let test_model_matches_paper () =
  (* The analytical model alone should land near the paper's published
     single-run numbers. *)
  let q = Analysis.item_write_probability ~num_items:50 ~max_ops:5 ~write_prob:0.5 in
  let peak = Analysis.expected_locked_after ~q ~num_items:50 ~txns:100 in
  let full =
    Analysis.expected_txns_to_clear ~q ~from_locks:(int_of_float (Float.round peak)) ~to_locks:0
  in
  Alcotest.(check bool)
    (Printf.sprintf "full recovery %.0f near paper's 160" full)
    true
    (full > 130.0 && full < 200.0)

let test_model_matches_simulation () =
  let q = Analysis.item_write_probability ~num_items:50 ~max_ops:5 ~write_prob:0.5 in
  let model_peak = Analysis.expected_locked_after ~q ~num_items:50 ~txns:100 in
  let summary = Scaling.experiment2_seeds ~seeds:(List.init 10 (fun i -> i + 1)) () in
  Alcotest.(check bool)
    (Printf.sprintf "peak: model %.1f vs simulated %.1f" model_peak summary.Scaling.peak.Stats.mean)
    true
    (Float.abs (model_peak -. summary.Scaling.peak.Stats.mean) < 3.0);
  (* The comparison table reads the same sweep rather than rerunning it. *)
  let rendered = Raid_util.Table.render (Analysis.comparison_table summary) in
  let contains needle =
    let n = String.length needle and h = String.length rendered in
    let rec at i = i + n <= h && (String.sub rendered i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "table names the sweep's seed count" true (contains "10 seeds");
  Alcotest.(check bool) "table shows the sweep's peak mean" true
    (contains (Printf.sprintf "%.1f" summary.Scaling.peak.Stats.mean))

let test_control1_scaling_directions () =
  let rows = Scaling.control1_scaling ~site_counts:[ 2; 8 ] ~item_counts:[ 50; 400 ] () in
  match rows with
  | [ small_sites; large_sites; small_db; large_db ] ->
    Alcotest.(check bool) "recovering grows with sites" true
      (large_sites.Scaling.recovering_ms > small_sites.Scaling.recovering_ms);
    Alcotest.(check bool) "operational flat in sites" true
      (Float.abs (large_sites.Scaling.operational_ms -. small_sites.Scaling.operational_ms) < 1.0);
    Alcotest.(check bool) "operational grows with db size" true
      (large_db.Scaling.operational_ms > small_db.Scaling.operational_ms);
    Alcotest.(check bool) "control-2 flat" true
      (Float.abs (large_db.Scaling.control2_ms -. small_db.Scaling.control2_ms) < 1.0)
  | _ -> Alcotest.fail "unexpected row count"

let suite =
  [
    Alcotest.test_case "write probability properties" `Quick test_q_properties;
    Alcotest.test_case "outage curve saturates" `Quick test_outage_saturates;
    Alcotest.test_case "clearing is convex" `Quick test_clearing_convex;
    Alcotest.test_case "clearing is additive" `Quick test_clearing_additive;
    Alcotest.test_case "clearing validation" `Quick test_clearing_validation;
    Alcotest.test_case "model matches the paper" `Quick test_model_matches_paper;
    Alcotest.test_case "model matches the simulation" `Slow test_model_matches_simulation;
    Alcotest.test_case "control-1 scaling directions" `Slow test_control1_scaling_directions;
  ]
