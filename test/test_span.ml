(* The recovery observatory: causal span trees and incident timelines.
   Pins the exactness guarantees the layer is built around — the
   critical-path steps sum to the transaction's measured latency (the
   same number the latency histogram observed), incident phases tile
   crash → caught-up with no gaps, and every export is byte-identical
   across runs and domain counts. *)

module Span = Raid_obs.Span
module Incident = Raid_obs.Incident
module Trace = Raid_obs.Trace
module Json = Raid_obs.Json
module Observe = Raid_sim.Observe
module Runner = Raid_sim.Runner
module Throughput = Raid_sim.Throughput
module Crashmatrix = Raid_sim.Crashmatrix
module Metrics = Raid_core.Metrics
module Vtime = Raid_net.Vtime

let exp1 () =
  match Observe.scenario_of_name "exp1" with
  | Ok scenario -> scenario
  | Error message -> Alcotest.fail message

let run_exp1 () = Observe.run ~capacity:(1 lsl 20) (exp1 ())

(* Every transaction the runner recorded has a span tree whose root
   duration equals the outcome's elapsed time — `raid explain` and the
   raid_txn_latency_ms histogram are two views of one number. *)
let test_span_latency_matches_outcome () =
  let output = run_exp1 () in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped output.Observe.trace);
  let trees = Observe.spans output in
  Alcotest.(check bool) "trees assembled" true (trees <> []);
  List.iter
    (fun record ->
      let outcome = record.Runner.outcome in
      let id = outcome.Metrics.txn.Raid_core.Txn.id in
      match Span.find trees id with
      | None -> Alcotest.failf "no span tree for txn %d" id
      | Some tree ->
        Alcotest.(check bool) (Printf.sprintf "txn %d complete" id) true tree.Span.complete;
        Alcotest.(check bool)
          (Printf.sprintf "txn %d committed flag" id)
          outcome.Metrics.committed tree.Span.committed;
        Alcotest.(check int)
          (Printf.sprintf "txn %d root span = elapsed" id)
          outcome.Metrics.elapsed (Span.latency tree))
    output.Observe.result.Runner.records

(* The critical path is a contiguous partition of the root span: step
   boundaries telescope and the durations sum exactly to the latency. *)
let test_critical_path_sums_to_latency () =
  let output = run_exp1 () in
  let trees = Observe.spans output in
  let checked = ref 0 in
  List.iter
    (fun tree ->
      if tree.Span.complete then begin
        incr checked;
        let steps = Span.critical_path tree in
        Alcotest.(check bool) "has steps" true (steps <> []);
        let rec walk at total = function
          | [] ->
            Alcotest.(check int) "path ends at root finish" tree.Span.root.Span.finished at;
            total
          | step :: rest ->
            Alcotest.(check int) "steps are contiguous" at step.Span.step_from;
            walk step.Span.step_until (total + (step.Span.step_until - step.Span.step_from)) rest
        in
        let total = walk tree.Span.root.Span.started 0 steps in
        Alcotest.(check int)
          (Printf.sprintf "txn %d critical path sums to latency" tree.Span.txn)
          (Span.latency tree) total
      end)
    trees;
  Alcotest.(check bool) "checked some complete trees" true (!checked > 0)

(* The ring collector only drops the oldest prefix, so a wrapped run
   marks the truncated trees instead of silently shortening them. *)
let test_tiny_ring_flags_incomplete () =
  let output = Observe.run ~capacity:64 (exp1 ()) in
  Alcotest.(check bool) "ring wrapped" true (Trace.dropped output.Observe.trace > 0);
  let trees = Observe.spans output in
  Alcotest.(check bool) "a truncated tree is flagged incomplete" true
    (List.exists (fun tree -> not tree.Span.complete) trees);
  (* The survivors still render without raising. *)
  List.iter (fun tree -> ignore (Span.render tree)) trees

let check_incident_tiles incident =
  let open Incident in
  Alcotest.(check bool) "phases non-empty" true (incident.phases <> []);
  let rec walk at = function
    | [] -> Alcotest.(check int) "last phase ends at finished" incident.finished at
    | (_, from, until) :: rest ->
      Alcotest.(check int) "phase starts at previous boundary" at from;
      Alcotest.(check bool) "phase is non-negative" true (until >= from);
      walk until rest
  in
  walk incident.started incident.phases;
  let sum =
    List.fold_left (fun acc p -> acc + phase_duration incident p) 0 all_phases
  in
  Alcotest.(check int) "phase durations sum to the incident duration"
    (duration incident) sum

(* Phase partition exactness on the exp1 fail/recover cycle: outage +
   replay + resolve + install + drain = crash → caught-up, exactly. *)
let test_incident_partition_exp1 () =
  let output = run_exp1 () in
  let incidents = Observe.incidents output in
  Alcotest.(check bool) "an incident was recorded" true (incidents <> []);
  List.iter check_incident_tiles incidents;
  Alcotest.(check bool) "the exp1 episode completes" true
    (List.exists (fun i -> i.Incident.complete) incidents);
  List.iter
    (fun i ->
      if i.Incident.complete then
        match Incident.mttr i with
        | None -> Alcotest.fail "complete incident has no MTTR"
        | Some mttr -> Alcotest.(check int) "MTTR = duration" (Incident.duration i) mttr)
    incidents

(* The same partition holds under k=3 partial placement, where the
   drain phase covers a different (smaller) fail-lock population. *)
let test_incident_partition_partial () =
  List.iter
    (fun replication ->
      let config =
        Throughput.make_config ~sites:8 ~items:80 ~duration_ms:8_000.0
          ~failure:(Throughput.default_failure ~sites:8 ~duration_ms:8_000.0)
          ~replication ()
      in
      let result = Throughput.run ~seed:11 config in
      Alcotest.(check bool) "the staged failure recovered" true result.Throughput.recovered;
      let incidents = result.Throughput.incidents in
      Alcotest.(check bool) "incident recorded" true (incidents <> []);
      List.iter check_incident_tiles incidents)
    [
      Raid_core.Config.Full;
      Raid_core.Config.Partial (Raid_core.Placement.spec ~factor:3 ());
    ]

(* Recording incidents observes the run without perturbing it: the same
   stream and failure plan over a cluster with and without the recorder
   sink give the same outcomes, protocol counters and engine totals. *)
let test_recording_is_transparent () =
  let module Cluster = Raid_core.Cluster in
  let module Driver = Raid_core.Driver in
  let module Workload = Raid_core.Workload in
  let module Rng = Raid_util.Rng in
  let drive obs =
    let config = Raid_core.Config.make ~num_sites:6 ~num_items:60 () in
    let cluster = Cluster.of_spec (Cluster.Spec.make ?obs config) in
    let rng = Rng.create 5 in
    let workload =
      Workload.create (Workload.Uniform { max_ops = 5; write_prob = 0.5 }) ~num_items:60
        ~rng:(Rng.split rng)
    in
    let plan = Driver.[ (At_ms 800.0, Fail 0); (At_ms 2000.0, Recover 0) ] in
    let driver = Driver.create ~plan cluster ~workload ~rng in
    let outcomes = List.init 200 (fun _ -> Driver.step driver) in
    (outcomes, Cluster.metrics cluster, Raid_net.Engine.counters (Cluster.engine cluster))
  in
  let recorder = Incident.recorder () in
  let recorded = drive (Some (Incident.recorder_sink recorder)) in
  Alcotest.(check bool) "incident recorded" true (Incident.incidents recorder <> []);
  Alcotest.(check bool) "same results as a bare run" true (recorded = drive None)

(* Incident CSV is deterministic: identical across repeated runs, and
   the crash matrix's cell-prefixed variant is identical across domain
   counts. *)
let test_incidents_csv_deterministic () =
  let csv () = Incident.to_csv (Observe.incidents (run_exp1 ())) in
  let first = csv () in
  Alcotest.(check bool) "csv has rows" true (String.length first > String.length Incident.csv_header);
  Alcotest.(check string) "identical across runs" first (csv ())

(* `raid incidents` reads the streaming recorder: for every named
   scenario its timelines equal those assembled after the fact from a
   ring that dropped nothing. *)
let test_recorder_matches_assembly () =
  List.iter
    (fun (name, _) ->
      let output =
        match Observe.scenario_of_name name with
        | Ok scenario -> Observe.run ~capacity:(1 lsl 20) scenario
        | Error message -> Alcotest.fail message
      in
      Alcotest.(check int) (name ^ ": nothing dropped") 0 (Trace.dropped output.Observe.trace);
      let streamed = Observe.incidents output in
      Alcotest.(check bool) (name ^ ": incidents recorded") true (streamed <> []);
      Alcotest.(check bool)
        (name ^ ": recorder = assembly")
        true
        (streamed = Incident.assemble (Trace.entries output.Observe.trace)))
    Observe.scenarios

let test_crashmatrix_incidents_csv_j_invariant () =
  let run domains =
    Crashmatrix.incidents_csv
      (Crashmatrix.run ~domains ~seeds:[ 1 ] ~sizes:[ 4 ]
         ~points:[ Crashmatrix.Part_after_prepare; Crashmatrix.Flapping ] ())
  in
  let sequential = run 1 in
  Alcotest.(check bool) "cells produced incidents" true
    (String.length sequential > String.length Incident.csv_header);
  Alcotest.(check string) "byte-identical at -j4" sequential (run 4)

(* The fail-lock trace events carry the causing transaction as an
   optional JSONL field: present when known, absent otherwise, and
   wire-compatible either way. *)
let test_faillock_txn_jsonl_round_trip () =
  let entry txn =
    {
      Trace.at = Vtime.of_ms 3;
      site = 1;
      event = Trace.Faillock_set { item = 7; for_site = 2; txn };
    }
  in
  let json txn = Raid_obs.Trace_export.entry_json (entry txn) in
  (match Json.member "txn" (json (Some 42)) with
  | Some (Json.Int 42) -> ()
  | _ -> Alcotest.fail "txn field missing or wrong on attributed set");
  Alcotest.(check bool) "txn field absent when unattributed" true
    (Json.member "txn" (json None) = None);
  (* The rendered line parses back. *)
  let line = Json.to_string (json (Some 42)) in
  match Json.parse line with
  | Ok parsed -> Alcotest.(check bool) "round trip" true (Json.member "txn" parsed = Some (Json.Int 42))
  | Error m -> Alcotest.failf "JSONL line does not parse: %s" m

(* Span and incident JSON bodies are valid JSON (the serve endpoints
   return them verbatim). *)
let test_json_bodies_parse () =
  let output = run_exp1 () in
  let trees = Observe.spans output in
  (match Span.slowest trees with
  | None -> Alcotest.fail "no slowest tree"
  | Some tree -> (
    match Json.parse (Json.to_string (Span.json tree)) with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "span json: %s" m));
  List.iter
    (fun incident ->
      match Json.parse (Json.to_string (Incident.json incident)) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "incident json: %s" m)
    (Observe.incidents output)

let suite =
  [
    Alcotest.test_case "span latency = recorded outcome" `Quick test_span_latency_matches_outcome;
    Alcotest.test_case "critical path sums to latency" `Quick test_critical_path_sums_to_latency;
    Alcotest.test_case "tiny ring flags incomplete trees" `Quick test_tiny_ring_flags_incomplete;
    Alcotest.test_case "incident phases tile exp1 exactly" `Quick test_incident_partition_exp1;
    Alcotest.test_case "incident phases tile under partial placement" `Quick
      test_incident_partition_partial;
    Alcotest.test_case "incident recording is transparent" `Quick test_recording_is_transparent;
    Alcotest.test_case "incidents csv deterministic" `Quick test_incidents_csv_deterministic;
    Alcotest.test_case "recorder incidents = assembly, every scenario" `Quick
      test_recorder_matches_assembly;
    Alcotest.test_case "crashmatrix incidents csv is -j invariant" `Quick
      test_crashmatrix_incidents_csv_j_invariant;
    Alcotest.test_case "faillock txn JSONL round trip" `Quick test_faillock_txn_jsonl_round_trip;
    Alcotest.test_case "span and incident json parse" `Quick test_json_bodies_parse;
  ]
