module Stats = Raid_util.Stats

let feq = Alcotest.float 1e-9

let test_mean () =
  Alcotest.check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check feq "singleton" 5.0 (Stats.mean [ 5.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty sample list") (fun () ->
      ignore (Stats.mean []))

let test_stddev () =
  (* sample stddev of {1,3} is sqrt(2); of the classic 8-value set, ~2.138 *)
  Alcotest.check feq "pair" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0 ]);
  Alcotest.check (Alcotest.float 1e-3) "eight values" 2.138
    (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ]);
  Alcotest.check feq "single sample" 0.0 (Stats.stddev [ 42.0 ])

let test_percentile () =
  let samples = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.check feq "p0" 1.0 (Stats.percentile 0.0 samples);
  Alcotest.check feq "p50" 3.0 (Stats.percentile 0.5 samples);
  Alcotest.check feq "p100" 5.0 (Stats.percentile 1.0 samples);
  Alcotest.check feq "p25 interpolates" 2.0 (Stats.percentile 0.25 samples);
  Alcotest.check feq "p125 between ranks" 1.5 (Stats.percentile 0.125 samples)

let test_percentile_small_samples () =
  (* High percentiles of small samples: rank p*(n-1) interpolates toward
     the max instead of snapping onto it, and the boundary indices stay
     in range (the regression this pins was an unclamped floor of the
     rank). *)
  Alcotest.check feq "p99 of a singleton" 7.0 (Stats.percentile 0.99 [ 7.0 ]);
  Alcotest.check feq "p99 of a pair" 1.99 (Stats.percentile 0.99 [ 1.0; 2.0 ]);
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* rank = 0.99 * 9 = 8.91 -> 9 + 0.91 * (10 - 9) *)
  Alcotest.check feq "p99 of ten" 9.91 (Stats.percentile 0.99 ten);
  Alcotest.check feq "p95 of ten" 9.55 (Stats.percentile 0.95 ten);
  List.iter
    (fun n ->
      let samples = List.init n (fun i -> float_of_int i) in
      Alcotest.check feq
        (Printf.sprintf "p100 of %d is the max" n)
        (float_of_int (n - 1))
        (Stats.percentile 1.0 samples);
      Alcotest.check feq (Printf.sprintf "p0 of %d is the min" n) 0.0
        (Stats.percentile 0.0 samples))
    [ 1; 2; 3; 7; 99; 100; 101 ];
  (* Unsorted input with ties sorts correctly (Float.compare, not the
     polymorphic compare). *)
  Alcotest.check feq "unsorted ties" 3.0 (Stats.percentile 0.5 [ 3.0; 1.0; 3.0; 5.0; 3.0 ])

let prop_percentile_within_bounds =
  QCheck.Test.make ~name:"percentile stays within [min, max]" ~count:300
    QCheck.(
      pair (float_range 0. 1.) (list_of_size Gen.(int_range 1 120) (float_range (-1e6) 1e6)))
    (fun (p, samples) ->
      let v = Stats.percentile p samples in
      let lo = List.fold_left Float.min Float.infinity samples in
      let hi = List.fold_left Float.max Float.neg_infinity samples in
      lo <= v && v <= hi)

let test_percentile_validation () =
  Alcotest.check_raises "p out of range" (Invalid_argument "Stats.percentile: p outside [0,1]")
    (fun () -> ignore (Stats.percentile 1.5 [ 1.0 ]))

let test_summarize () =
  let s = Stats.summarize [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.check feq "mean" 2.5 s.Stats.mean;
  Alcotest.check feq "min" 1.0 s.Stats.min;
  Alcotest.check feq "max" 4.0 s.Stats.max;
  Alcotest.check feq "median" 2.5 s.Stats.p50

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0. 100.))
    (fun samples ->
      let p25 = Stats.percentile 0.25 samples
      and p50 = Stats.percentile 0.5 samples
      and p75 = Stats.percentile 0.75 samples in
      p25 <= p50 && p50 <= p75)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "mean of empty raises" `Quick test_mean_empty;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile small samples" `Quick test_percentile_small_samples;
    Alcotest.test_case "percentile validates p" `Quick test_percentile_validation;
    Alcotest.test_case "summarize" `Quick test_summarize;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_percentile_within_bounds;
  ]
