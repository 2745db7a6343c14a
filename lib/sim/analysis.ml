module Table = Raid_util.Table
module Chart = Raid_util.Chart
module Stats = Raid_util.Stats

let item_write_probability ~num_items ~max_ops ~write_prob =
  if num_items <= 0 || max_ops <= 0 then invalid_arg "Analysis: non-positive sizes";
  if write_prob < 0.0 || write_prob > 1.0 then invalid_arg "Analysis: bad write_prob";
  let per_op = write_prob /. float_of_int num_items in
  let sum = ref 0.0 in
  for size = 1 to max_ops do
    sum := !sum +. (1.0 -. ((1.0 -. per_op) ** float_of_int size))
  done;
  !sum /. float_of_int max_ops

let expected_locked_after ~q ~num_items ~txns =
  float_of_int num_items *. (1.0 -. ((1.0 -. q) ** float_of_int txns))

let expected_txns_to_clear ~q ~from_locks ~to_locks =
  if q <= 0.0 || q > 1.0 then invalid_arg "Analysis: q outside (0,1]";
  if to_locks < 0 || to_locks > from_locks then invalid_arg "Analysis: bad lock range";
  if from_locks = 0 || to_locks = from_locks then 0.0
  else begin
    (* Each locked item clears independently with probability q per
       transaction, so the expected locked count decays geometrically:
       n = ln(b/a) / ln(1-q).  The very last item is a plain geometric
       wait of 1/q, appended when clearing to zero. *)
    let decay a b = log (b /. a) /. log (1.0 -. q) in
    let a = float_of_int from_locks in
    if to_locks > 0 then decay a (float_of_int to_locks)
    else decay a 1.0 +. (1.0 /. q)
  end

let outage_curve ~q ~num_items ~txns =
  List.init txns (fun n ->
      (float_of_int (n + 1), expected_locked_after ~q ~num_items ~txns:(n + 1)))

let recovery_curve ~q ~peak =
  (* Invert the clearing times: the model predicts the locked count drops
     to j after expected_txns_to_clear peak -> j transactions. *)
  List.init peak (fun i ->
      let j = peak - i in
      (expected_txns_to_clear ~q ~from_locks:peak ~to_locks:j, float_of_int j))

let paper_q = lazy (item_write_probability ~num_items:50 ~max_ops:5 ~write_prob:0.5)

let comparison_table (summary : Scaling.seed_summary) =
  let q = Lazy.force paper_q in
  let model_peak = expected_locked_after ~q ~num_items:50 ~txns:100 in
  let peak_int = int_of_float (Float.round model_peak) in
  let model_first10 = expected_txns_to_clear ~q ~from_locks:peak_int ~to_locks:(peak_int - 10) in
  let model_last10 = expected_txns_to_clear ~q ~from_locks:10 ~to_locks:0 in
  let model_full = expected_txns_to_clear ~q ~from_locks:peak_int ~to_locks:0 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Analytical model vs simulation (Experiment 2, %d seeds; per-item write probability \
            q=%.4f)"
           summary.Scaling.seeds q)
      [
        ("statistic", Table.Left);
        ("model", Table.Right);
        ("simulated mean", Table.Right);
        ("paper (1 run)", Table.Right);
      ]
  in
  let row name model (s : Stats.summary) paper =
    Table.add_row table
      [ name; Printf.sprintf "%.1f" model; Printf.sprintf "%.1f" s.Stats.mean; paper ]
  in
  row "fail-locks after 100-txn outage" model_peak summary.Scaling.peak ">45";
  row "txns to clear first 10 locks" model_first10 summary.Scaling.first_10 "6";
  row "txns to clear last 10 locks" model_last10 summary.Scaling.last_10 "106";
  row "txns to full recovery" model_full summary.Scaling.recovery_txns "160";
  table

let figure ?(seed = 15) () =
  let q = Lazy.force paper_q in
  let e2 = Experiment2.run ~seed () in
  let chart =
    Chart.create ~title:"Figure 1 with the analytical model overlaid (o = model, * = simulated)"
      ~x_label:"number of transactions" ~y_label:"fail-locks set (site 0)" ()
  in
  Chart.add_series chart { Chart.label = "simulated"; glyph = '*'; points = e2.Experiment2.series };
  let model_outage = outage_curve ~q ~num_items:50 ~txns:100 in
  let peak = e2.Experiment2.stats.Experiment2.peak_faillocks in
  let model_recovery =
    List.map (fun (x, y) -> (x +. 100.0, y)) (recovery_curve ~q ~peak)
  in
  Chart.add_series chart
    { Chart.label = "model"; glyph = 'o'; points = model_outage @ model_recovery };
  chart
