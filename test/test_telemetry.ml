(* Telemetry registry: registration validation, the virtual-time
   sampling grid, export rendering, and the end-to-end properties the
   design leans on — instrumented runs are deterministic and observing a
   run never changes its outcome. *)

module Telemetry = Raid_obs.Telemetry
module Prom = Raid_obs.Prom
module Series = Raid_obs.Series
module Vtime = Raid_net.Vtime
module Observe = Raid_sim.Observe
module Runner = Raid_sim.Runner
module Throughput = Raid_sim.Throughput

let feq = Alcotest.float 1e-9

(* A series' points in append order. *)
let points series =
  let acc = ref [] in
  Series.iter series (fun ~at value -> acc := (at, value) :: !acc);
  List.rev !acc

(* Sampling instants so far: every series registered before the first
   sample holds one point per instant. *)
let samples_taken registry =
  List.fold_left
    (fun n (v : Telemetry.view) -> max n (List.length (points v.Telemetry.v_series)))
    0 (Telemetry.views registry)

let value registry name =
  match Telemetry.find registry name with
  | Some view -> view.Telemetry.v_value
  | None -> Alcotest.failf "%s not registered" name

(* {2 Series} *)

let test_series_growth () =
  let s = Series.create () in
  Alcotest.(check int) "empty" 0 (List.length (points s));
  for i = 0 to 99 do
    Series.push s ~at:(Vtime.of_ms i) (float_of_int (i * i))
  done;
  Alcotest.(check bool) "grows past the initial chunk, in append order" true
    (points s = List.init 100 (fun i -> (Vtime.of_ms i, float_of_int (i * i))))

(* {2 Registration} *)

let test_registration_validation () =
  let t = Telemetry.create () in
  let _c = Telemetry.counter t "good_total" in
  Alcotest.check_raises "duplicate name+labels"
    (Invalid_argument "Telemetry: metric \"good_total\"{} already registered") (fun () ->
      ignore (Telemetry.counter t "good_total"));
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument "Telemetry: metric \"good_total\" registered with two kinds") (fun () ->
      Telemetry.gauge t "good_total" ~labels:[ ("site", "0") ] (fun () -> 0.0));
  Alcotest.check_raises "ill-formed name"
    (Invalid_argument "Telemetry: ill-formed metric name \"bad-name\"") (fun () ->
      ignore (Telemetry.counter t "bad-name"));
  Alcotest.check_raises "duplicate label key"
    (Invalid_argument "Telemetry: duplicate label key on metric \"dup_total\"") (fun () ->
      ignore (Telemetry.counter t "dup_total" ~labels:[ ("a", "1"); ("a", "2") ]));
  (* Same name with distinct label sets is one metric family. *)
  ignore (Telemetry.counter t "good_total" ~labels:[ ("site", "1") ]);
  Alcotest.check_raises "interval validated"
    (Invalid_argument "Telemetry.create: interval must be positive") (fun () ->
      ignore (Telemetry.create ~interval:0 ()));
  Alcotest.check_raises "histogram buckets must increase"
    (Invalid_argument "Telemetry.histogram: bucket bounds must be strictly increasing")
    (fun () -> ignore (Telemetry.histogram t ~buckets:[ 1.0; 1.0 ] "h_ms"))

let test_counter_and_histogram_values () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "ops_total" in
  Telemetry.incr c;
  Telemetry.add c 2.5;
  Alcotest.check feq "counter accumulates" 3.5 (value t "ops_total");
  let h = Telemetry.histogram t ~buckets:[ 1.0; 10.0 ] "lat_ms" in
  List.iter (Telemetry.observe h) [ 0.5; 5.0; 7.0; 50.0 ];
  match Telemetry.find t "lat_ms" with
  | None -> Alcotest.fail "histogram not found"
  | Some view ->
    Alcotest.(check (list (pair (Alcotest.float 0.0) Alcotest.int)))
      "cumulative buckets, +Inf last"
      [ (1.0, 1); (10.0, 3); (Float.infinity, 4) ]
      view.Telemetry.v_buckets;
    Alcotest.check feq "sum" 62.5 view.Telemetry.v_sum;
    Alcotest.check feq "count as value" 4.0 view.Telemetry.v_value

(* {2 The sampling grid} *)

let test_sampling_grid () =
  let t = Telemetry.create ~interval:(Vtime.of_ms 10) () in
  let c = Telemetry.counter t "ticks_total" in
  Telemetry.incr c;
  (* Catch-up stamps one sample per elapsed due time, at the due time. *)
  Telemetry.maybe_sample t ~at:(Vtime.of_ms 35);
  Alcotest.(check int) "three dues elapsed" 3 (samples_taken t);
  (match Telemetry.find t "ticks_total" with
  | None -> Alcotest.fail "counter not found"
  | Some view ->
    Alcotest.(check (list (pair Alcotest.int (Alcotest.float 0.0))))
      "stamped on the grid, not at the observation time"
      [ (Vtime.of_ms 10, 1.0); (Vtime.of_ms 20, 1.0); (Vtime.of_ms 30, 1.0) ]
      (points view.Telemetry.v_series));
  (* A final flush adds one off-grid point, once. *)
  Telemetry.sample_now t ~at:(Vtime.of_ms 35);
  Telemetry.sample_now t ~at:(Vtime.of_ms 35);
  Alcotest.(check int) "flush is idempotent" 4 (samples_taken t);
  (* The grid stays anchored: the next due time is still 40 ms. *)
  Telemetry.maybe_sample t ~at:(Vtime.of_ms 39);
  Alcotest.(check int) "no sample before the next due" 4 (samples_taken t);
  Telemetry.maybe_sample t ~at:(Vtime.of_ms 40);
  Alcotest.(check int) "due at 40 fires" 5 (samples_taken t)

(* {2 Exports} *)

let test_exports_sorted_and_escaped () =
  let t = Telemetry.create ~interval:(Vtime.of_ms 10) () in
  ignore (Telemetry.counter t "zz_total" ~help:"Last by name");
  ignore (Telemetry.counter t "aa_total" ~labels:[ ("site", "1") ]);
  ignore (Telemetry.counter t "aa_total" ~labels:[ ("site", "0") ] ~help:{|quote " slash \|});
  Telemetry.sample_now t ~at:(Vtime.of_ms 10);
  let csv = Telemetry.to_csv t in
  (match String.split_on_char '\n' csv with
  | header :: rows ->
    Alcotest.(check string) "csv header" "metric,labels,t_ms,value" header;
    Alcotest.(check (list string))
      "rows sorted by (name, labels)"
      [ "aa_total,site=0,10.000,0"; "aa_total,site=1,10.000,0"; "zz_total,,10.000,0"; "" ]
      rows
  | [] -> Alcotest.fail "empty csv");
  let prom = Prom.render t in
  Alcotest.(check bool) "help line escaped into one line" true
    (let needle = "# HELP aa_total quote \" slash \\\\" in
     let rec contains i =
       i + String.length needle <= String.length prom
       && (String.sub prom i (String.length needle) = needle || contains (i + 1))
     in
     contains 0);
  Alcotest.(check bool) "label values quoted" true
    (let needle = {|aa_total{site="0"} 0|} in
     let rec contains i =
       i + String.length needle <= String.length prom
       && (String.sub prom i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

(* Hostile label values: the 0.0.4 exposition format escapes backslash,
   double quote and newline inside quoted label values — nothing else.
   A scraper must be able to round-trip these bytes. *)
let test_label_value_escaping () =
  let t = Telemetry.create () in
  ignore
    (Telemetry.counter t "hostile_total"
       ~labels:[ ("path", "C:\\dir\\\"quoted\"\nnext") ]);
  ignore (Telemetry.counter t "tame_total" ~labels:[ ("k", "{a=\"b\",c}") ]);
  let prom = Prom.render t in
  let contains needle =
    let rec go i =
      i + String.length needle <= String.length prom
      && (String.sub prom i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "backslash, quote and newline escaped" true
    (contains {|hostile_total{path="C:\\dir\\\"quoted\"\nnext"} 0|});
  Alcotest.(check bool) "braces and inner = pass through unescaped" true
    (contains {|tame_total{k="{a=\"b\",c}"} 0|});
  (* If the newline leaked through raw, the sample would split into two
     physical lines, the second starting with the bytes after it. *)
  String.split_on_char '\n' prom
  |> List.iter (fun line ->
         Alcotest.(check bool) "sample stays one physical line" false
           (String.length line >= 4 && String.sub line 0 4 = "next"))

(* {2 End-to-end: the raid metrics pipeline} *)

let monitor_output =
  lazy
    (match Observe.scenario_of_name "exp1" with
    | Error e -> failwith e
    | Ok scenario -> Observe.run ~sample:(Vtime.of_ms 100) scenario)

let test_monitor_deterministic () =
  let render output = (Observe.render ~format:`Prom output, Observe.render ~format:`Csv output) in
  let a = render (Lazy.force monitor_output) in
  let b =
    match Observe.scenario_of_name "exp1" with
    | Error e -> failwith e
    | Ok scenario -> render (Observe.run ~sample:(Vtime.of_ms 100) scenario)
  in
  Alcotest.(check bool) "two instrumented runs render byte-identically" true (a = b);
  Alcotest.(check bool) "series were sampled" true
    (samples_taken (Lazy.force monitor_output).Observe.registry > 1)

(* [raid metrics] keeps its history: every series holds one point per
   crossed multiple of the interval, then the final flush. *)
let test_monitor_samples_on_grid () =
  let output = Lazy.force monitor_output in
  let registry = output.Observe.registry in
  let interval = Vtime.of_ms 100 in
  let samples = samples_taken registry in
  let end_at = Raid_net.Engine.now (Raid_core.Cluster.engine output.Observe.result.Runner.cluster) in
  List.iter
    (fun (v : Telemetry.view) ->
      let points = points v.Telemetry.v_series in
      Alcotest.(check int) (v.Telemetry.v_name ^ " has every sample") samples
        (List.length points);
      List.iteri
        (fun i (at, _) ->
          let expected = if i = samples - 1 then end_at else (i + 1) * interval in
          Alcotest.(check int) (v.Telemetry.v_name ^ " on the grid") expected at)
        points)
    (Telemetry.views registry)

let test_monitor_counters_match_result () =
  let output = Lazy.force monitor_output in
  let registry = output.Observe.registry in
  let value name =
    match Telemetry.find registry name with
    | Some view -> view.Telemetry.v_value
    | None -> Alcotest.fail (name ^ " not registered")
  in
  Alcotest.check feq "committed counter mirrors the run"
    (float_of_int output.Observe.result.Runner.committed)
    (value "raid_txns_committed_total");
  Alcotest.check feq "aborted counter mirrors the run"
    (float_of_int output.Observe.result.Runner.aborted)
    (value "raid_txns_aborted_total");
  Alcotest.(check bool) "engine processed events" true (value "raid_engine_events_total" > 0.0);
  Alcotest.(check bool) "heap high-water observed" true
    (value "raid_engine_heap_high_water" > 0.0);
  (* Deliveries are one event class among several (timers, failure
     notifications), so the per-kind message counters are bounded by the
     total event count. *)
  let messages =
    List.fold_left
      (fun acc view ->
        if view.Telemetry.v_name = "raid_engine_messages_total" then
          acc +. view.Telemetry.v_value
        else acc)
      0.0 (Telemetry.views registry)
  in
  Alcotest.(check bool) "messages bounded by events" true
    (messages > 0.0 && messages <= value "raid_engine_events_total");
  (* Virtual time is attributed per event; sites overlap in virtual
     time, so the sum is bounded by clock * sites, not by the clock. *)
  let vtime_us =
    List.fold_left
      (fun acc view ->
        if view.Telemetry.v_name = "raid_engine_vtime_us_total" then
          acc +. view.Telemetry.v_value
        else acc)
      0.0 (Telemetry.views registry)
  in
  let cluster = output.Observe.result.Runner.cluster in
  let clock_us = float_of_int (Raid_net.Engine.now (Raid_core.Cluster.engine cluster)) in
  Alcotest.(check bool) "per-kind virtual time bounded by clock * sites" true
    (vtime_us > 0.0
    && vtime_us <= clock_us *. float_of_int (Raid_core.Cluster.num_sites cluster))

let test_telemetry_is_transparent () =
  (* Attaching a registry must not perturb the simulation. *)
  let outcomes result =
    List.map
      (fun r ->
        ( r.Runner.index,
          r.Runner.outcome.Raid_core.Metrics.committed,
          r.Runner.faillocks_per_site ))
      result.Runner.records
  in
  (match Observe.scenario_of_name "exp1" with
  | Error e -> failwith e
  | Ok scenario ->
    let plain = Runner.run scenario in
    let instrumented = Lazy.force monitor_output in
    Alcotest.(check bool) "runner outcomes unchanged" true
      (outcomes plain = outcomes instrumented.Observe.result));
  let config = Throughput.make_config ~sites:4 ~items:20 ~duration_ms:800.0 () in
  let strip (r : Throughput.result) =
    (r.Throughput.seed, r.Throughput.submitted, r.Throughput.committed, r.Throughput.aborted,
     r.Throughput.virtual_ms, r.Throughput.events, r.Throughput.messages_sent,
     r.Throughput.windows)
  in
  let plain = Throughput.run config in
  let registry = Telemetry.create ~interval:(Vtime.of_ms 50) () in
  let instrumented = Throughput.run ~telemetry:registry config in
  Alcotest.(check bool) "throughput result unchanged" true (strip plain = strip instrumented);
  Alcotest.(check bool) "throughput run was sampled" true
    (samples_taken registry > 1)

let test_concurrent_lock_gauges () =
  let config = Raid_core.Config.make ~num_sites:4 ~num_items:50 () in
  let registry = Telemetry.create ~interval:(Vtime.of_ms 10) () in
  let result =
    Raid_sim.Concurrent.run ~txns:50 ~telemetry:registry ~config
      ~workload:(Raid_core.Workload.Uniform { max_ops = 5; write_prob = 0.5 })
      ()
  in
  Alcotest.(check bool) "batch completed" true
    (result.Raid_sim.Concurrent.committed + result.Raid_sim.Concurrent.aborted = 50);
  let final name =
    match Telemetry.find registry name with
    | Some view -> view.Telemetry.v_value
    | None -> Alcotest.fail (name ^ " not registered")
  in
  Alcotest.check feq "queue drains" 0.0 (final "raid_lock_queue_depth");
  Alcotest.check feq "nothing in flight at quiescence" 0.0 (final "raid_lock_in_flight");
  Alcotest.check feq "locks all released" 0.0 (final "raid_lock_table_locked");
  match Telemetry.find registry "raid_lock_in_flight" with
  | None -> Alcotest.fail "gauge missing"
  | Some view ->
    let peak = ref 0.0 in
    Series.iter view.Telemetry.v_series (fun ~at:_ v -> if v > !peak then peak := v);
    Alcotest.(check bool) "sampled series saw in-flight transactions" true (!peak > 0.0)

let suite =
  [
    Alcotest.test_case "series growth" `Quick test_series_growth;
    Alcotest.test_case "registration validation" `Quick test_registration_validation;
    Alcotest.test_case "counter and histogram values" `Quick test_counter_and_histogram_values;
    Alcotest.test_case "sampling grid" `Quick test_sampling_grid;
    Alcotest.test_case "exports sorted and escaped" `Quick test_exports_sorted_and_escaped;
    Alcotest.test_case "hostile label values escaped" `Quick test_label_value_escaping;
    Alcotest.test_case "monitor deterministic" `Quick test_monitor_deterministic;
    Alcotest.test_case "monitor samples on its grid" `Quick test_monitor_samples_on_grid;
    Alcotest.test_case "counters match result" `Quick test_monitor_counters_match_result;
    Alcotest.test_case "telemetry is transparent" `Quick test_telemetry_is_transparent;
    Alcotest.test_case "concurrent lock gauges" `Quick test_concurrent_lock_gauges;
  ]
