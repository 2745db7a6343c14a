(* Steady-state throughput layer: determinism across domain counts,
   monotonicity in the virtual duration (failure times are absolute, so a
   longer run extends a shorter one), and basic accounting. *)

module Throughput = Raid_sim.Throughput

let failure = { Throughput.fail_site = 0; fail_at_ms = 100.0; recover_at_ms = 300.0 }

(* Small item space so post-recovery transactions are near-certain to touch
   fail-locked items (recovery is on-demand by default). *)
let config ?failure ?(duration_ms = 800.0) () =
  Throughput.make_config ~sites:4 ~items:20 ~duration_ms ?failure ()

let test_deterministic_across_domains () =
  let cfg = config ~failure () in
  let sequential = Throughput.run_seeds ~domains:1 ~seeds:3 cfg in
  let parallel = Throughput.run_seeds ~domains:4 ~seeds:3 cfg in
  Alcotest.(check bool) "bit-identical for any -j" true (sequential = parallel)

let test_monotone_in_duration () =
  let short = Throughput.run (config ~failure ~duration_ms:600.0 ()) in
  let long = Throughput.run (config ~failure ~duration_ms:1200.0 ()) in
  Alcotest.(check bool) "submitted grows" true (long.Throughput.submitted >= short.Throughput.submitted);
  Alcotest.(check bool) "committed grows" true (long.Throughput.committed >= short.Throughput.committed);
  Alcotest.(check bool) "aborted grows" true (long.Throughput.aborted >= short.Throughput.aborted);
  Alcotest.(check bool) "virtual time grows" true
    (long.Throughput.virtual_ms >= short.Throughput.virtual_ms);
  Alcotest.(check bool) "short run not empty" true (short.Throughput.committed > 0)

let test_failure_recovery_accounting () =
  let r = Throughput.run (config ~failure ~duration_ms:3000.0 ()) in
  Alcotest.(check int) "every txn resolves"
    r.Throughput.submitted
    (r.Throughput.committed + r.Throughput.aborted);
  Alcotest.(check bool) "failed site recovered" true r.Throughput.recovered;
  Alcotest.(check bool) "fail-locks were set" true (r.Throughput.faillocks_set > 0);
  Alcotest.(check bool) "fail-locks were cleared" true (r.Throughput.faillocks_cleared > 0);
  Alcotest.(check bool) "events counted" true (r.Throughput.events > 0);
  let window_sum f = List.fold_left (fun acc w -> acc + f w) 0 r.Throughput.windows in
  Alcotest.(check int) "windows sum to committed"
    r.Throughput.committed
    (window_sum (fun w -> w.Throughput.w_committed));
  Alcotest.(check int) "windows sum to aborted" r.Throughput.aborted
    (window_sum (fun w -> w.Throughput.w_aborted));
  (* The protocol columns are diffs of cumulative snapshots at recorded
     transactions, so their sums never exceed the run totals. *)
  Alcotest.(check bool) "window copiers bounded" true
    (window_sum (fun w -> w.Throughput.w_copiers) <= r.Throughput.copier_requests);
  Alcotest.(check bool) "window faillocks_set bounded" true
    (window_sum (fun w -> w.Throughput.w_faillocks_set) <= r.Throughput.faillocks_set);
  Alcotest.(check bool) "window faillocks_cleared bounded" true
    (window_sum (fun w -> w.Throughput.w_faillocks_cleared) <= r.Throughput.faillocks_cleared);
  Alcotest.(check bool) "window messages bounded" true
    (window_sum (fun w -> w.Throughput.w_messages) <= r.Throughput.messages_sent);
  List.iter
    (fun w ->
      Alcotest.(check bool) "window columns non-negative" true
        (w.Throughput.w_copiers >= 0 && w.Throughput.w_faillocks_set >= 0
        && w.Throughput.w_faillocks_cleared >= 0 && w.Throughput.w_messages >= 0))
    r.Throughput.windows;
  Alcotest.(check bool) "windows carry message activity" true
    (window_sum (fun w -> w.Throughput.w_messages) > 0);
  let rate = Throughput.abort_rate r in
  Alcotest.(check bool) "abort rate in [0,1]" true (rate >= 0.0 && rate <= 1.0);
  Alcotest.(check bool) "txns/vsec positive" true (Throughput.txns_per_vsec r > 0.0)

let test_no_failure_run () =
  let r = Throughput.run (config ()) in
  Alcotest.(check bool) "recovered vacuously" true r.Throughput.recovered;
  Alcotest.(check int) "nothing aborted" 0 r.Throughput.aborted;
  Alcotest.(check bool) "commits flow" true (r.Throughput.committed > 0)

(* The summary is the runs' means: one incident per staged failure, its
   phases in timeline order (then "mttr" when an episode completed), and
   none at all without a failure. *)
let test_summary () =
  let results = Throughput.run_seeds ~seeds:3 (config ~failure ~duration_ms:3000.0 ()) in
  let s = Throughput.summary results in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 results /. 3.0 in
  Alcotest.(check (float 1e-9)) "mean txns/vsec" (mean Throughput.txns_per_vsec)
    s.Throughput.mean_txns_per_vsec;
  Alcotest.(check (float 1e-9)) "mean abort rate" (mean Throughput.abort_rate)
    s.Throughput.mean_abort_rate;
  Alcotest.(check int) "events summed"
    (List.fold_left (fun acc r -> acc + r.Throughput.events) 0 results)
    s.Throughput.total_events;
  Alcotest.(check int) "one incident per run" 3 s.Throughput.incidents;
  let phases = List.map Raid_obs.Incident.phase_name Raid_obs.Incident.all_phases in
  Alcotest.(check (list string)) "phases then mttr"
    (if s.Throughput.complete_incidents > 0 then phases @ [ "mttr" ] else phases)
    (List.map fst s.Throughput.recovery_ms);
  let bare = Throughput.summary [ Throughput.run (config ()) ] in
  Alcotest.(check int) "no failure, no incident" 0 bare.Throughput.incidents;
  Alcotest.(check (list string)) "no recovery means" [] (List.map fst bare.Throughput.recovery_ms)

let test_validation () =
  let invalid name f = Alcotest.check_raises name (Invalid_argument name) f in
  invalid "Throughput: sites must be positive" (fun () ->
      ignore (Throughput.make_config ~sites:0 ()));
  invalid "Throughput: duration must be positive" (fun () ->
      ignore (Throughput.make_config ~duration_ms:0.0 ()));
  invalid "Throughput: fail_site out of range" (fun () ->
      ignore
        (Throughput.make_config ~sites:4
           ~failure:{ Throughput.fail_site = 4; fail_at_ms = 1.0; recover_at_ms = 2.0 }
           ()));
  invalid "Throughput: need 0 <= fail_at < recover_at" (fun () ->
      ignore
        (Throughput.make_config ~sites:4
           ~failure:{ Throughput.fail_site = 0; fail_at_ms = 5.0; recover_at_ms = 5.0 }
           ()))

let suite =
  [
    Alcotest.test_case "deterministic across -j" `Quick test_deterministic_across_domains;
    Alcotest.test_case "monotone in duration" `Quick test_monotone_in_duration;
    Alcotest.test_case "failure/recovery accounting" `Quick test_failure_recovery_accounting;
    Alcotest.test_case "no-failure run" `Quick test_no_failure_run;
    Alcotest.test_case "summary means" `Quick test_summary;
    Alcotest.test_case "config validation" `Quick test_validation;
  ]
