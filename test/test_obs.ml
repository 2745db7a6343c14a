(* Tests for the observability layer: JSON emit/parse round-trip, the
   ring-buffer collector, data-structure change hooks, and the end-to-end
   trace exports (JSONL lines parse; the Chrome export is valid
   trace-event JSON with one track per site and 2PC phases nested inside
   transaction spans; output is deterministic). *)

module Trace = Raid_obs.Trace
module Export = Raid_obs.Trace_export
module Json = Raid_obs.Json
module Faillock = Raid_core.Faillock
module Session = Raid_core.Session
module Observe = Raid_sim.Observe

let parse_exn label s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "%s: JSON parse error: %s" label e)

(* {2 Json} *)

let test_json_roundtrip () =
  let value =
    Json.Obj
      [
        ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("float", Json.Float 1.5);
        ("str", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("bool", Json.Bool true);
        ("null", Json.Null);
        ("arr", Json.Arr [ Json.Int 1; Json.Str "two"; Json.Arr [] ]);
        ("obj", Json.Obj [ ("nested", Json.Bool false) ]);
      ]
  in
  let compact = Json.to_string value in
  let pretty = Json.to_string ~indent:true value in
  Alcotest.(check bool) "compact round-trips" true (parse_exn "compact" compact = value);
  Alcotest.(check bool) "pretty round-trips" true (parse_exn "pretty" pretty = value)

let test_json_parse_escapes () =
  match Json.parse {|{"s": "\u0061A\n", "xs": [1, -2, 3.5, true, false, null]}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check string)
      "unicode and control escapes" "aA\n"
      (match Json.member "s" v with Some (Json.Str s) -> s | _ -> "?");
    Alcotest.(check int)
      "array length" 6
      (match Json.member "xs" v with Some xs -> List.length (Json.to_list xs) | None -> -1)

let test_json_nonfinite_roundtrip () =
  (* Non-finite floats use the Python-json spellings; [=] is useless on
     NaN so the round-trip is checked with polymorphic [compare] (which
     treats equal NaNs as equal) plus explicit spelling checks. *)
  let value =
    Json.Arr [ Json.Float Float.nan; Json.Float Float.infinity; Json.Float Float.neg_infinity ]
  in
  Alcotest.(check string) "spellings" "[NaN,Infinity,-Infinity]" (Json.to_string value);
  (match Json.parse (Json.to_string value) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    Alcotest.(check int) "round-trips structurally" 0 (compare parsed value);
    (match parsed with
    | Json.Arr [ Json.Float a; Json.Float b; Json.Float c ] ->
      Alcotest.(check bool) "NaN parses to NaN" true (Float.is_nan a);
      Alcotest.(check bool) "infinities parse" true
        (b = Float.infinity && c = Float.neg_infinity)
    | _ -> Alcotest.fail "unexpected shape"));
  (* Negative finite numbers still parse through the number path. *)
  Alcotest.(check int) "-1.5 unaffected" 0
    (compare (parse_exn "neg" "-1.5") (Json.Float (-1.5)));
  match Json.parse "[-Inf]" with
  | Ok _ -> Alcotest.fail "truncated spelling must not parse"
  | Error _ -> ()

let test_json_float_precision () =
  (* %.17g is enough digits to reconstruct any double exactly. *)
  let values =
    [ 0.1; 1.0000000000000002; 1e-300; 1.7976931348623157e308; -4.9e-324; 3.5; -0.0 ]
  in
  List.iter
    (fun f ->
      match parse_exn "float" (Json.to_string (Json.Float f)) with
      | Json.Float g ->
        Alcotest.(check bool)
          (Printf.sprintf "%h survives" f)
          true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | Json.Int g ->
        (* Integer-valued floats print without a point and read back as
           ints; the numeric value must still match. *)
        Alcotest.(check bool) (Printf.sprintf "%h as int" f) true (float_of_int g = f)
      | _ -> Alcotest.fail "not a number")
    values

let test_json_parse_errors () =
  let bad = [ "{"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "tru"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" s)
      | Error _ -> ())
    bad

(* {2 Ring collector} *)

let test_ring_buffer () =
  let t = Trace.create ~capacity:4 () in
  let sink = Trace.sink t in
  for i = 1 to 6 do
    sink.Trace.emit ~at:(Raid_net.Vtime.of_ms i) ~site:0 (Trace.Txn_commit { txn = i })
  done;
  Alcotest.(check int) "emitted" 6 (Trace.emitted t);
  Alcotest.(check int) "dropped" 2 (Trace.dropped t);
  let txns =
    List.map
      (fun e -> match e.Trace.event with Trace.Txn_commit { txn } -> txn | _ -> -1)
      (Trace.entries t)
  in
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 3; 4; 5; 6 ] txns;
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.entries t));
  Alcotest.check_raises "capacity validated"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let test_ring_multi_wrap_accounting () =
  (* Several full wraps: the drop count keeps growing while the retained
     window stays exactly the last [capacity] entries, in order. *)
  let t = Trace.create ~capacity:3 () in
  let sink = Trace.sink t in
  Alcotest.(check int) "capacity exposed" 3 (Trace.capacity t);
  for i = 1 to 11 do
    sink.Trace.emit ~at:(Raid_net.Vtime.of_ms i) ~site:0 (Trace.Txn_commit { txn = i });
    Alcotest.(check int)
      (Printf.sprintf "dropped after %d" i)
      (max 0 (i - 3))
      (Trace.dropped t)
  done;
  Alcotest.(check int) "emitted counts everything" 11 (Trace.emitted t);
  let txns =
    List.map
      (fun e -> match e.Trace.event with Trace.Txn_commit { txn } -> txn | _ -> -1)
      (Trace.entries t)
  in
  Alcotest.(check (list int)) "retains the newest window" [ 9; 10; 11 ] txns;
  (* Clearing resets the drop accounting with the buffer. *)
  Trace.clear t;
  Alcotest.(check int) "dropped resets" 0 (Trace.dropped t);
  sink.Trace.emit ~at:(Raid_net.Vtime.of_ms 1) ~site:0 (Trace.Txn_commit { txn = 1 });
  Alcotest.(check int) "sink still live after clear" 1 (Trace.emitted t)

(* {2 Change hooks} *)

let test_faillock_hook_fires_on_transitions () =
  let fl = Faillock.create ~num_items:4 ~num_sites:2 in
  let fired = ref [] in
  Faillock.set_hook fl
    (Some (fun ~item ~site ~locked -> fired := (item, site, locked) :: !fired));
  Alcotest.(check bool) "set transitions" true (Faillock.set fl ~item:1 ~site:0);
  Alcotest.(check bool) "re-set is a no-op" false (Faillock.set fl ~item:1 ~site:0);
  Alcotest.(check bool) "clear transitions" true (Faillock.clear fl ~item:1 ~site:0);
  Alcotest.(check bool) "re-clear is a no-op" false (Faillock.clear fl ~item:1 ~site:0);
  Alcotest.(check (list (triple int int bool)))
    "one event per actual transition"
    [ (1, 0, true); (1, 0, false) ]
    (List.rev !fired)

let test_session_hook_fires_on_change () =
  let v = Session.create ~num_sites:2 in
  let fired = ref [] in
  Session.set_hook v
    (Some (fun ~site ~session ~state -> fired := (site, session, state) :: !fired));
  Session.mark_down v 1;
  Session.mark_down v 1;  (* no change: no event *)
  Session.mark_up v 1 ~session:2;
  Alcotest.(check int) "two changes, two events" 2 (List.length !fired);
  Alcotest.(check bool)
    "down then up" true
    (List.rev !fired = [ (1, 1, Session.Down); (1, 2, Session.Up) ]);
  (* Copies are inert: mutating a copy fires nothing. *)
  let copy = Session.copy v in
  Session.mark_down copy 0;
  Alcotest.(check int) "copy carries no hook" 2 (List.length !fired)

(* {2 End-to-end exports} *)

let traced_output =
  (* One traced run of Experiment 3 scenario 1 (failures, copiers and
     aborts all occur), shared by the export tests. *)
  lazy
    (match Observe.scenario_of_name "exp3-1" with
    | Error e -> failwith e
    | Ok scenario -> Observe.run scenario)

let test_jsonl_lines_parse () =
  let output = Lazy.force traced_output in
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Observe.render ~format:`Jsonl output))
  in
  Alcotest.(check bool) "has events" true (List.length lines > 100);
  List.iter
    (fun line ->
      let v = parse_exn "jsonl line" line in
      match (Json.member "ts_us" v, Json.member "site" v, Json.member "kind" v) with
      | Some (Json.Int _), Some (Json.Int _), Some (Json.Str _) -> ()
      | _ -> Alcotest.fail ("missing ts_us/site/kind: " ^ line))
    lines

let chrome_events output =
  let v = parse_exn "chrome export" (Observe.render ~format:`Chrome output) in
  match Json.member "traceEvents" v with
  | Some events -> Json.to_list events
  | None -> Alcotest.fail "no traceEvents key"

let field name event =
  match Json.member name event with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "event lacks %S" name)

let int_field name event =
  match field name event with
  | Json.Int n -> n
  | _ -> Alcotest.fail (Printf.sprintf "field %S not an int" name)

let str_field name event =
  match field name event with
  | Json.Str s -> s
  | _ -> Alcotest.fail (Printf.sprintf "field %S not a string" name)

let test_chrome_one_track_per_site () =
  let output = Lazy.force traced_output in
  let events = chrome_events output in
  let tracks =
    List.filter
      (fun e -> str_field "ph" e = "M" && str_field "name" e = "thread_name")
      events
  in
  let num_sites = Raid_core.Cluster.num_sites output.Observe.result.Raid_sim.Runner.cluster in
  Alcotest.(check int) "one thread_name per site" num_sites (List.length tracks);
  let tids = List.sort compare (List.map (int_field "tid") tracks) in
  Alcotest.(check (list int)) "tids are the site ids" (List.init num_sites Fun.id) tids

let test_chrome_phases_nest () =
  let output = Lazy.force traced_output in
  let events = chrome_events output in
  let spans cat =
    List.filter (fun e -> str_field "ph" e = "X" && str_field "cat" e = cat) events
  in
  let txn_spans = spans "txn" and phase_spans = spans "2pc" in
  Alcotest.(check bool) "has transaction spans" true (List.length txn_spans > 50);
  Alcotest.(check bool) "has phase spans" true (List.length phase_spans > 50);
  List.iter
    (fun p ->
      let inside t =
        int_field "tid" t = int_field "tid" p
        && int_field "ts" t <= int_field "ts" p
        && int_field "ts" p + int_field "dur" p <= int_field "ts" t + int_field "dur" t
      in
      if not (List.exists inside txn_spans) then
        Alcotest.fail
          (Printf.sprintf "phase span %s at ts=%d not nested in any transaction span"
             (str_field "name" p) (int_field "ts" p)))
    phase_spans

let test_exports_deterministic () =
  let render output =
    List.map
      (fun format -> Observe.render ~format output)
      [ `Jsonl; `Chrome; `Summary; `Prom; `Csv ]
  in
  let a = render (Lazy.force traced_output) in
  let b =
    match Observe.scenario_of_name "exp3-1" with
    | Error e -> failwith e
    | Ok scenario -> render (Observe.run scenario)
  in
  Alcotest.(check bool) "two runs render byte-identically" true (a = b)

let test_untraced_run_unchanged () =
  (* Observers must not perturb the simulation: the same scenario with and
     without the sink produces identical outcomes. *)
  let outcomes result =
    List.map
      (fun r ->
        ( r.Raid_sim.Runner.index,
          r.Raid_sim.Runner.outcome.Raid_core.Metrics.committed,
          r.Raid_sim.Runner.faillocks_per_site ))
      result.Raid_sim.Runner.records
  in
  match Observe.scenario_of_name "exp3-1" with
  | Error e -> failwith e
  | Ok scenario ->
    let traced = Lazy.force traced_output in
    let untraced = Raid_sim.Runner.run scenario in
    Alcotest.(check bool) "same outcomes" true
      (outcomes traced.Observe.result = outcomes untraced)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_parse_escapes;
    Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite_roundtrip;
    Alcotest.test_case "json float precision" `Quick test_json_float_precision;
    Alcotest.test_case "json errors" `Quick test_json_parse_errors;
    Alcotest.test_case "ring buffer" `Quick test_ring_buffer;
    Alcotest.test_case "ring multi-wrap accounting" `Quick test_ring_multi_wrap_accounting;
    Alcotest.test_case "faillock hook" `Quick test_faillock_hook_fires_on_transitions;
    Alcotest.test_case "session hook" `Quick test_session_hook_fires_on_change;
    Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
    Alcotest.test_case "chrome: track per site" `Quick test_chrome_one_track_per_site;
    Alcotest.test_case "chrome: phases nest" `Quick test_chrome_phases_nest;
    Alcotest.test_case "deterministic exports" `Quick test_exports_deterministic;
    Alcotest.test_case "tracing is transparent" `Quick test_untraced_run_unchanged;
  ]
