module Rng = Raid_util.Rng

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_different_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* Not a statistical test; just that both streams advance and differ. *)
  Alcotest.(check bool) "split differs" true (Rng.bits64 a <> Rng.bits64 b)

let test_int_bound_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_in_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.int_in: lo > hi") (fun () ->
      ignore (Rng.int_in rng 3 2))

let test_choose_empty () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose rng []))

let test_choose_weighted_degenerate () =
  let rng = Rng.create 1 in
  Alcotest.(check string) "single alternative" "only"
    (Rng.choose_weighted rng [ ("only", 1.0) ]);
  Alcotest.check_raises "all-zero weights"
    (Invalid_argument "Rng.choose_weighted: weights must sum to a positive value") (fun () ->
      ignore (Rng.choose_weighted rng [ ("a", 0.0); ("b", 0.0) ]))

let test_choose_weighted_skew () =
  let rng = Rng.create 3 in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Rng.choose_weighted rng [ (`Heavy, 0.9); (`Light, 0.1) ] = `Heavy then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "90%% alternative dominates (%d/1000)" !hits)
    true
    (!hits > 850 && !hits < 950)

let test_bernoulli_extremes () =
  let rng = Rng.create 4 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1" true (Rng.bernoulli rng 1.0);
    Alcotest.(check bool) "p=0" false (Rng.bernoulli rng 0.0)
  done

let test_shuffle_permutes () =
  let rng = Rng.create 6 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let prop_int_within_bound =
  QCheck.Test.make ~name:"Rng.int stays within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_int_in_within_range =
  QCheck.Test.make ~name:"Rng.int_in stays within range" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 200))
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let v = Rng.int_in rng lo (lo + span) in
      v >= lo && v <= lo + span)

let prop_float_unit_interval =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:500 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng in
      v >= 0.0 && v < 1.0)

let suite =
  [
    Alcotest.test_case "determinism by seed" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_different_seeds_differ;
    Alcotest.test_case "split produces distinct stream" `Quick test_split_independent;
    Alcotest.test_case "int validates bound" `Quick test_int_bound_validation;
    Alcotest.test_case "int_in validates range" `Quick test_int_in_validation;
    Alcotest.test_case "choose rejects empty" `Quick test_choose_empty;
    Alcotest.test_case "choose_weighted degenerate cases" `Quick test_choose_weighted_degenerate;
    Alcotest.test_case "choose_weighted respects skew" `Quick test_choose_weighted_skew;
    Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    QCheck_alcotest.to_alcotest prop_int_within_bound;
    QCheck_alcotest.to_alcotest prop_int_in_within_range;
    QCheck_alcotest.to_alcotest prop_float_unit_interval;
  ]
