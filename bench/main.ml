(* Benchmark harness.

   Two layers, both printed by this one executable:

   1. The paper reproduction in virtual (cost-model) time: every table of
      Experiment 1 and every figure (1, 2, 3) of Experiments 2-3, each
      annotated with the published value, followed by the ablation studies
      from DESIGN.md.

   2. Host-hardware microbenchmarks (Bechamel): one Test per paper
      artifact measuring what the corresponding code path costs on this
      machine with all modelled costs zeroed, plus substrate
      microbenchmarks.  These do not reproduce the paper's milliseconds
      (the paper's numbers come from a 1987 VAX); they demonstrate the
      implementation's real cost. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Workload = Raid_core.Workload
module Txn = Raid_core.Txn
module Faillock = Raid_core.Faillock
module Session = Raid_core.Session
module Table = Raid_util.Table
module Rng = Raid_util.Rng
module Pool = Raid_par.Pool
open Bechamel
open Toolkit

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '#')

(* {2 Command line}

   [-j N]/[--jobs N] fans every independent-run sweep (figures, ablation
   grid, scaling/seed sweeps) out over N OCaml domains; output is
   bit-identical for every N.  [--json FILE] additionally dumps the
   Bechamel OLS estimates and the wall-clock time of each stage as JSON
   so the perf trajectory is machine-readable across commits. *)

let jobs = ref 1
let json_path = ref None
let baseline_path = ref None
let wall_tolerance = ref 1.5

let parse_args () =
  let usage () =
    Printf.eprintf
      "usage: %s [-j N | --jobs N] [--json FILE] [--check-baseline FILE] [--wall-tolerance R]\n"
      Sys.argv.(0);
    exit 2
  in
  let rec go = function
    | [] -> ()
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        jobs := n;
        go rest
      | _ -> usage ())
    | "--json" :: path :: rest ->
      json_path := Some path;
      go rest
    | "--check-baseline" :: path :: rest ->
      baseline_path := Some path;
      go rest
    | "--wall-tolerance" :: v :: rest -> (
      match float_of_string_opt v with
      | Some r when r >= 1.0 ->
        wall_tolerance := r;
        go rest
      | _ -> usage ())
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* Wall-clock accounting per printed stage, reported in run order. *)
let wall_timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  wall_timings := (name, Unix.gettimeofday () -. t0) :: !wall_timings;
  r

(* {2 Layer 1: paper reproduction in virtual time} *)

let print_experiment1 () =
  section "Experiment 1: overhead measurements (paper tables, virtual time)";
  List.iter
    (fun report ->
      Table.print (Raid_sim.Experiment1.to_table report);
      List.iter (fun note -> Printf.printf "  note: %s\n" note) report.Raid_sim.Experiment1.notes;
      print_newline ())
    (Raid_sim.Experiment1.all ())

(* The three figure simulations are independent pure runs; compute them
   through the domain pool, then print in the usual order. *)
let run_figures () =
  match
    Pool.map
      (fun run -> run ())
      [
        (fun () -> `E2 (Raid_sim.Experiment2.run ()));
        (fun () -> `S1 (Raid_sim.Experiment3.scenario1 ()));
        (fun () -> `S2 (Raid_sim.Experiment3.scenario2 ()));
      ]
  with
  | [ `E2 e2; `S1 s1; `S2 s2 ] -> (e2, s1, s2)
  | _ -> assert false

let print_experiment2 e2 =
  section "Experiment 2: data availability on a recovering site (Figure 1)";
  Raid_util.Chart.print (Raid_sim.Experiment2.figure e2);
  print_newline ();
  Table.print (Raid_sim.Experiment2.summary_table e2)

let print_experiment3 s1 s2 =
  section "Experiment 3: consistency of replicated copies (Figures 2 and 3)";
  Raid_util.Chart.print
    (Raid_sim.Experiment3.figure
       ~title:"Figure 2: database inconsistency (scenario 1: alternating 2-site failures)" s1);
  print_newline ();
  Table.print (Raid_sim.Experiment3.summary_table ~title:"Scenario 1 summary" s1);
  Raid_util.Chart.print
    (Raid_sim.Experiment3.figure
       ~title:"Figure 3: database inconsistency (scenario 2: rolling 4-site failures)" s2);
  print_newline ();
  Table.print (Raid_sim.Experiment3.summary_table ~title:"Scenario 2 summary" s2)

let print_scaling_and_robustness () =
  section "Scaling and multi-seed robustness";
  Table.print (Raid_sim.Scaling.control1_table (Raid_sim.Scaling.control1_scaling ()));
  print_newline ();
  Table.print
    (Raid_sim.Scaling.experiment2_seeds_table (Raid_sim.Scaling.experiment2_seeds ()));
  print_newline ();
  Table.print (Raid_sim.Scaling.scenario1_seeds_table (Raid_sim.Scaling.scenario1_seeds ()));
  print_newline ();
  Table.print
    (Raid_sim.Scaling.cluster_size_table (Raid_sim.Scaling.recovery_vs_cluster_size ()));
  print_newline ();
  Table.print (Raid_sim.Analysis.comparison_table ());
  print_newline ();
  Raid_util.Chart.print (Raid_sim.Analysis.figure ())

let print_ablations () =
  section "Ablation studies (DESIGN.md)";
  List.iter
    (fun table ->
      Table.print table;
      print_newline ())
    (Raid_sim.Ablation.all_tables ());
  Table.print (Raid_sim.Concurrent.sweep_table (Raid_sim.Concurrent.sweep ()));
  print_newline ()

(* {2 Steady-state throughput (wall-clock layer)}

   Open-loop transaction streams at two cluster scales, each with a
   mid-run failure + recovery.  Virtual-time results (txns/vsec, abort
   rate) are deterministic; the host events/sec figure is this machine's
   real event-processing rate on the protocol hot path. *)

type throughput_case = {
  tp_sites : int;
  tp_items : int;
  tp_factor : int;  (* replication factor; 0 = full replication *)
  tp_zipf_theta : float option;
  tp_txns_per_vsec : float;
  tp_abort_rate : float;
  tp_events : int;
  tp_wall_s : float;
  tp_recovery : (string * float) list;
      (* mean virtual ms per incident phase (plus "mttr") over the
         staged failure's complete recovery incidents, all seeds *)
}

let print_throughput () =
  section "Steady-state throughput (open-loop stream; virtual results, host events/sec)";
  let run_case ?(replication = Config.Full) ?zipf_theta ~sites ~items ~duration_ms () =
    let failure = Raid_sim.Throughput.default_failure ~sites ~duration_ms in
    let config =
      Raid_sim.Throughput.make_config ~sites ~items ~duration_ms ~failure ~replication
        ?zipf_theta ()
    in
    let t0 = Unix.gettimeofday () in
    let results = Raid_sim.Throughput.run_seeds ~seeds:4 ~record_incidents:true config in
    let wall = Unix.gettimeofday () -. t0 in
    Table.print (Raid_sim.Throughput.results_table ~config results);
    let events =
      List.fold_left (fun acc r -> acc + r.Raid_sim.Throughput.events) 0 results
    in
    Printf.printf "  host: %.2f s wall clock, %d events, %.0f events/sec\n" wall events
      (float_of_int events /. wall);
    (* MTTR decomposition of the staged failure, averaged over the
       seeds' incidents — deterministic (virtual time), so it is
       stamped into the JSON dump alongside txns/vsec.  At benchmark
       scale the drain tail usually outlives the stream (the on-demand
       refreshes never touch the coldest fail-locked items), so the
       drain mean is a lower bound and "mttr" is stamped only when a
       seed's episode actually completed. *)
    let incidents =
      List.concat_map (fun r -> r.Raid_sim.Throughput.incidents) results
    in
    let complete_incidents = List.filter (fun i -> i.Raid_obs.Incident.complete) incidents in
    let tp_recovery =
      match incidents with
      | [] -> []
      | incidents ->
        let mean over f =
          List.fold_left (fun acc i -> acc +. f i) 0.0 over /. float_of_int (List.length over)
        in
        List.map
          (fun p ->
            ( Raid_obs.Incident.phase_name p,
              mean incidents (fun i ->
                  Raid_net.Vtime.to_ms (Raid_obs.Incident.phase_duration i p)) ))
          Raid_obs.Incident.all_phases
        @
        match complete_incidents with
        | [] -> []
        | complete ->
          [
            ( "mttr",
              mean complete (fun i ->
                  Raid_net.Vtime.to_ms
                    (Option.value ~default:Raid_net.Vtime.zero (Raid_obs.Incident.mttr i))) );
          ]
    in
    (match tp_recovery with
    | [] -> Printf.printf "  recovery: no incident recorded\n\n"
    | kv ->
      Printf.printf "  recovery (mean over %d incidents, %d complete): %s\n\n"
        (List.length incidents) (List.length complete_incidents)
        (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.2f ms" k v) kv)));
    let mean f = Raid_util.Stats.mean (List.map f results) in
    {
      tp_sites = sites;
      tp_items = items;
      tp_factor =
        (match replication with
        | Config.Full -> 0
        | Config.Partial spec -> spec.Raid_core.Placement.factor);
      tp_zipf_theta = zipf_theta;
      tp_txns_per_vsec = mean Raid_sim.Throughput.txns_per_vsec;
      tp_abort_rate = mean Raid_sim.Throughput.abort_rate;
      tp_events = events;
      tp_wall_s = wall;
      tp_recovery;
    }
  in
  [
    run_case ~sites:16 ~items:500 ~duration_ms:30_000.0 ();
    run_case ~sites:64 ~items:5000 ~duration_ms:30_000.0 ();
    (* The partial-replication headline: a k-holder placement keeps the
       per-write fan-out constant, so a 256-site cluster clears more
       events/sec than the 64-site write-all-available case above. *)
    run_case
      ~replication:(Config.Partial (Raid_core.Placement.spec ~factor:3 ()))
      ~zipf_theta:0.9 ~sites:256 ~items:100_000 ~duration_ms:30_000.0 ();
  ]

(* {2 Multi-tenant engine (wall-clock layer)}

   The same tenant population twice: once through the per-shard shared
   group-committed WAL, once with a private per-record-flushed WAL per
   tenant.  Per-tenant protocol results are identical in both modes (the
   WAL is host-side work only), so the wall-clock gap isolates exactly
   the batching win the shared log exists for. *)

type multi_case = {
  mt_tenants : int;
  mt_sites : int;
  mt_shared : bool;
  mt_events : int;
  mt_committed : int;
  mt_wal_flushes : int;
  mt_wall_s : float;
}

let print_multi () =
  section "Multi-tenant engine (shared WAL vs per-tenant WAL)";
  let base ~wal_mode =
    Raid_multi.spec ~tenants:200 ~sites:8 ~items:64 ~txns:30 ~shards:8 ~fail_every:10
      ~wal_mode ()
  in
  let run_case ~wal_mode =
    let spec = base ~wal_mode in
    let t0 = Unix.gettimeofday () in
    let result = Raid_multi.run spec in
    let wall = Unix.gettimeofday () -. t0 in
    let events = Raid_multi.total_events result in
    let flushes =
      Array.fold_left
        (fun acc (w : Raid_storage.Shared_wal.stats) -> acc + w.Raid_storage.Shared_wal.flushes)
        0 result.Raid_multi.wal
    in
    Printf.printf "  %-15s %d tenants x %d sites: %d events, %d wal flushes, %.2f s wall, %.0f \
                   events/sec\n"
      (match wal_mode with
      | Raid_multi.Shared { group_size } -> Printf.sprintf "shared/%d:" group_size
      | Raid_multi.Per_tenant -> "per-tenant:")
      spec.Raid_multi.tenants spec.Raid_multi.sites events flushes wall
      (if wall > 0.0 then float_of_int events /. wall else 0.0);
    {
      mt_tenants = spec.Raid_multi.tenants;
      mt_sites = spec.Raid_multi.sites;
      mt_shared = (match wal_mode with Raid_multi.Shared _ -> true | Raid_multi.Per_tenant -> false);
      mt_events = events;
      mt_committed = Raid_multi.total_committed result;
      mt_wal_flushes = flushes;
      mt_wall_s = wall;
    }
  in
  let shared = run_case ~wal_mode:(Raid_multi.Shared { group_size = 64 }) in
  let per_tenant = run_case ~wal_mode:Raid_multi.Per_tenant in
  if shared.mt_events <> per_tenant.mt_events || shared.mt_committed <> per_tenant.mt_committed
  then Printf.printf "  WARN per-tenant protocol results differ between WAL modes\n"
  else if per_tenant.mt_wall_s > 0.0 then
    Printf.printf "  shared-WAL batching win: %.2fx wall clock (%d vs %d flushes)\n"
      (per_tenant.mt_wall_s /. shared.mt_wall_s)
      shared.mt_wal_flushes per_tenant.mt_wal_flushes;
  print_newline ();
  [ shared; per_tenant ]

(* {2 Layer 2: Bechamel host-hardware microbenchmarks} *)

let bench_config ?(faillocks_enabled = true) () =
  Config.make ~cost:Cost_model.zero ~faillocks_enabled ~num_sites:4 ~num_items:50 ()

let txn_bench ~name ~faillocks_enabled =
  let cluster = Cluster.create (bench_config ~faillocks_enabled ()) in
  let workload =
    Workload.create (Workload.Uniform { max_ops = 10; write_prob = 0.5 }) ~num_items:50
      ~rng:(Rng.create 1)
  in
  Test.make ~name
    (Staged.stage (fun () ->
         let id = Cluster.next_txn_id cluster in
         ignore (Cluster.submit cluster ~coordinator:0 (Workload.next workload ~id))))

let control_cycle_bench =
  let cluster = Cluster.create (bench_config ()) in
  Test.make ~name:"table-2.2.2: control txn 1+2 (fail/recover cycle)"
    (Staged.stage (fun () ->
         Cluster.fail_site cluster 3;
         match Cluster.recover_site cluster 3 with
         | `Recovered -> ()
         | `Blocked -> failwith "bench: recovery blocked"))

let copier_trial_bench =
  let cluster = Cluster.create (bench_config ()) in
  let rng = Rng.create 2 in
  Test.make ~name:"table-2.2.3: db txn incl. one copier txn"
    (Staged.stage (fun () ->
         let item = Rng.int rng 50 in
         Cluster.fail_site cluster 3;
         let id = Cluster.next_txn_id cluster in
         ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write item ]));
         (match Cluster.recover_site cluster 3 with
         | `Recovered -> ()
         | `Blocked -> failwith "bench: recovery blocked");
         let id = Cluster.next_txn_id cluster in
         ignore (Cluster.submit cluster ~coordinator:3 (Txn.make ~id [ Txn.Read item ]))))

let figure_benches =
  [
    Test.make ~name:"figure-1: experiment 2 full run"
      (Staged.stage (fun () -> ignore (Raid_sim.Experiment2.run ())));
    Test.make ~name:"figure-2: experiment 3 scenario 1 full run"
      (Staged.stage (fun () -> ignore (Raid_sim.Experiment3.scenario1 ())));
    Test.make ~name:"figure-3: experiment 3 scenario 2 full run"
      (Staged.stage (fun () -> ignore (Raid_sim.Experiment3.scenario2 ())));
  ]

(* The large-cluster hot path the bitset/array structures target: one
   transaction's full 2PC round trip against 63 participants. *)
let large_cluster_bench =
  let config = Config.make ~cost:Cost_model.zero ~num_sites:64 ~num_items:500 () in
  let cluster = Cluster.create config in
  let workload =
    Workload.create (Workload.Uniform { max_ops = 5; write_prob = 0.5 }) ~num_items:500
      ~rng:(Rng.create 3)
  in
  Test.make ~name:"throughput: one txn, 64-site cluster"
    (Staged.stage (fun () ->
         let id = Cluster.next_txn_id cluster in
         ignore (Cluster.submit cluster ~coordinator:0 (Workload.next workload ~id))))

(* Items per staged run of the commit-update row.  One call takes tens of
   ns, too little for a stable OLS fit (r² ranged 0.75-0.98 with 1000
   items a run on a 2-vCPU VM, 0.93-0.99 with 4000). *)
let commit_update_batch = 4000

let substrate_benches =
  let faillocks = Faillock.create ~num_items:50 ~num_sites:4 in
  ignore (Faillock.set faillocks ~item:7 ~site:2);
  (* The commit the 64-site workloads run in steady state: one site down,
     so each written item's row already equals the down set and the diff
     finds no transition. *)
  let faillocks64 = Faillock.create ~num_items:commit_update_batch ~num_sites:64 in
  let down64 = Raid_util.Bitset.of_list 64 [ 17 ] in
  let set_count = ref 0 and cleared = ref 0 in
  let vector = Session.create ~num_sites:4 in
  (* The sparse-representation payoff: a 256-site vector with a handful
     of diverged entries copies in O(diverged), where the old dense
     array paid O(sites) however healthy the cluster was. *)
  let vector256 = Session.create ~num_sites:256 in
  Session.mark_down vector256 17;
  Session.mark_waiting vector256 99 ~session:2;
  Session.mark_down vector256 200;
  let bitset = Raid_util.Bitset.create 64 in
  [
    Test.make
      ~name:
        (Printf.sprintf "substrate: fail-lock commit update (64 sites, 1 down, %d items)"
           commit_update_batch)
      (Staged.stage (fun () ->
           for item = 0 to commit_update_batch - 1 do
             Faillock.commit_update faillocks64 ~item ~down:down64 ~set:set_count ~cleared
           done));
    Test.make ~name:"substrate: fail-lock table copy (50 items)"
      (Staged.stage (fun () -> ignore (Faillock.copy faillocks)));
    Test.make ~name:"substrate: session vector copy"
      (Staged.stage (fun () -> ignore (Session.copy vector)));
    Test.make ~name:"substrate: session vector create (256 sites)"
      (Staged.stage (fun () -> ignore (Session.create ~num_sites:256)));
    Test.make ~name:"substrate: session vector copy (256 sites, 3 diverged)"
      (Staged.stage (fun () -> ignore (Session.copy vector256)));
    Test.make ~name:"substrate: bitset set/clear"
      (Staged.stage (fun () ->
           Raid_util.Bitset.set bitset 33;
           Raid_util.Bitset.clear bitset 33));
  ]

let run_bechamel () =
  section "Host-hardware microbenchmarks (Bechamel; implementation cost, not paper times)";
  let tests =
    Test.make_grouped ~name:"raid"
      ([
         txn_bench ~name:"table-2.2.1: db txn, fail-locks code removed" ~faillocks_enabled:false;
         txn_bench ~name:"table-2.2.1: db txn, fail-locks code included" ~faillocks_enabled:true;
         control_cycle_bench;
         copier_trial_bench;
         large_cluster_bench;
       ]
      @ figure_benches @ substrate_benches)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Table.create ~title:"nanoseconds per operation (OLS estimate)"
      [ ("benchmark", Table.Left); ("ns/run", Table.Right); ("r2", Table.Right) ]
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let estimates =
    List.map
      (fun (name, ols) ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2))
      (List.sort compare rows)
  in
  List.iter
    (fun (name, estimate, r2) ->
      Table.add_row table [ name; Printf.sprintf "%.0f" estimate; Printf.sprintf "%.4f" r2 ])
    estimates;
  Table.print table;
  estimates

(* {2 JSON results dump} *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null"

(* Provenance: which commit produced these numbers, when, on how wide a
   machine — so BENCH_results.json files are comparable across commits
   and hosts without external context. *)
let git_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown"
  with _ -> "unknown"

(* Whether the work tree differs from [git_sha] (uncommitted or untracked
   files), so a number measured on an unstaged edit is not mistaken for
   the commit's.  [None] outside a git checkout. *)
let git_dirty () =
  try
    let ic = Unix.open_process_in "git status --porcelain 2>/dev/null" in
    let changed = try ignore (input_line ic); true with End_of_file -> false in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> Some changed | _ -> None
  with _ -> None

let utc_date () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let write_json ~throughput ~multi ~bechamel path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"git_sha\": \"%s\",\n" (json_escape (git_sha ()));
  out "  \"git_dirty\": %s,\n"
    (match git_dirty () with None -> "null" | Some d -> string_of_bool d);
  out "  \"date_utc\": \"%s\",\n" (utc_date ());
  out "  \"recommended_domains\": %d,\n" (Pool.recommended_domains ());
  out "  \"jobs\": %d,\n" !jobs;
  out "  \"throughput\": [\n";
  List.iteri
    (fun i c ->
      out
        "    {\"sites\": %d, \"items\": %d, \"replication_factor\": %d, \"zipf_theta\": %s, \
         \"committed_txns_per_vsec\": %s, \"abort_rate\": %s, \"events\": %d, \"wall_s\": %s, \
         \"events_per_sec\": %s, \"recovery_phases_ms\": %s}%s\n"
        c.tp_sites c.tp_items c.tp_factor
        (match c.tp_zipf_theta with None -> "null" | Some t -> json_float t)
        (json_float c.tp_txns_per_vsec) (json_float c.tp_abort_rate) c.tp_events
        (json_float c.tp_wall_s)
        (json_float (float_of_int c.tp_events /. c.tp_wall_s))
        (match c.tp_recovery with
        | [] -> "null"
        | kv ->
          "{"
          ^ String.concat ", "
              (List.map
                 (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (json_float v))
                 kv)
          ^ "}")
        (if i = List.length throughput - 1 then "" else ","))
    throughput;
  out "  ],\n";
  out "  \"multi\": [\n";
  List.iteri
    (fun i c ->
      out
        "    {\"tenants\": %d, \"sites\": %d, \"shared_wal\": %s, \"events\": %d, \
         \"committed\": %d, \"wal_flushes\": %d, \"wall_s\": %s, \"events_per_sec\": %s}%s\n"
        c.mt_tenants c.mt_sites
        (if c.mt_shared then "true" else "false")
        c.mt_events c.mt_committed c.mt_wal_flushes (json_float c.mt_wall_s)
        (json_float (float_of_int c.mt_events /. c.mt_wall_s))
        (if i = List.length multi - 1 then "" else ","))
    multi;
  out "  ],\n";
  out "  \"wall_clock_s\": [\n";
  let walls = List.rev !wall_timings in
  List.iteri
    (fun i (name, seconds) ->
      out "    {\"name\": \"%s\", \"seconds\": %s}%s\n" (json_escape name) (json_float seconds)
        (if i = List.length walls - 1 then "" else ","))
    walls;
  out "  ],\n";
  out "  \"bechamel_ns_per_run\": [\n";
  List.iteri
    (fun i (name, estimate, r2) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s}%s\n" (json_escape name)
        (json_float estimate) (json_float r2)
        (if i = List.length bechamel - 1 then "" else ","))
    bechamel;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "\nbenchmark results written to %s\n" path

(* {2 Baseline guard}

   Compares the throughput cases of this run against a previously
   committed [--json] dump.  The simulation outputs (event counts,
   committed txns/vsec, abort rate) are deterministic, so they must match
   the baseline exactly up to the dump's %.3f rounding — any drift there
   is a semantic change, not noise.  Wall-clock only has to stay within
   [--wall-tolerance] (default 1.5x: CI machines are noisy; the ratio
   still catches order-of-magnitude regressions such as an accidentally
   hot telemetry path). *)
(* A baseline stamped on a commit that is not an ancestor of HEAD (a
   stale branch, a foreign checkout, a rebase that rewrote it away) can
   still pass numerically while guarding the wrong lineage — warn, do
   not fail: the numbers themselves are still checked. *)
let warn_unless_ancestor baseline_sha =
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') in
  match baseline_sha with
  | None | Some "unknown" | Some "" -> ()
  | Some sha -> (
    if String.exists (fun c -> not (is_hex c)) sha then
      Printf.printf "  WARN baseline git_sha %S is not a commit hash\n" sha
    else
      let cmd = Printf.sprintf "git merge-base --is-ancestor %s HEAD 2>/dev/null" sha in
      try
        match Unix.system cmd with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED _ ->
          Printf.printf
            "  WARN baseline git_sha %s is not an ancestor of HEAD — the baseline predates a \
             rebase or came from another branch; consider re-stamping with --json\n"
            sha
        | _ -> ()
      with _ -> ())

let check_baseline ~throughput ~multi path =
  let module Json = Raid_obs.Json in
  section (Printf.sprintf "Baseline check against %s" path);
  let contents =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let doc =
    match Json.parse contents with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "baseline %s does not parse: %s\n" path e;
      exit 1
  in
  (let sha =
     match Json.member "git_sha" doc with Some (Json.Str s) -> Some s | _ -> None
   in
   warn_unless_ancestor sha);
  (* Baselines stamped before the flag existed carry no [git_dirty]. *)
  (match Json.member "git_dirty" doc with
  | Some (Json.Bool true) ->
    Printf.printf "  WARN baseline was measured on a work tree with uncommitted changes\n"
  | _ -> ());
  let cases =
    match Json.member "throughput" doc with Some arr -> Json.to_list arr | None -> []
  in
  let multi_cases =
    match Json.member "multi" doc with Some arr -> Json.to_list arr | None -> []
  in
  let int_field k v = match Json.member k v with Some (Json.Int n) -> Some n | _ -> None in
  let float_field k v =
    match Json.member k v with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun message ->
        incr failures;
        Printf.printf "  FAIL %s\n" message)
      fmt
  in
  List.iter
    (fun c ->
      match
        List.find_opt
          (fun b ->
            int_field "sites" b = Some c.tp_sites
            && int_field "items" b = Some c.tp_items
            (* older baselines predate partial replication: a missing
               replication_factor field means full replication *)
            && Option.value ~default:0 (int_field "replication_factor" b) = c.tp_factor)
          cases
      with
      | None ->
        Printf.printf "  no baseline case for %d sites / %d items / k=%d, skipped\n" c.tp_sites
          c.tp_items c.tp_factor
      | Some b ->
        let label =
          Printf.sprintf "%d sites / %d items%s" c.tp_sites c.tp_items
            (if c.tp_factor = 0 then "" else Printf.sprintf " / k=%d" c.tp_factor)
        in
        (match int_field "events" b with
        | Some events when events <> c.tp_events ->
          fail "%s: events %d, baseline %d (deterministic field drifted)" label c.tp_events
            events
        | _ -> ());
        (match float_field "committed_txns_per_vsec" b with
        | Some tps when Float.abs (tps -. c.tp_txns_per_vsec) > 0.0015 ->
          fail "%s: %.3f txns/vsec, baseline %.3f (deterministic field drifted)" label
            c.tp_txns_per_vsec tps
        | _ -> ());
        (match float_field "abort_rate" b with
        | Some rate when Float.abs (rate -. c.tp_abort_rate) > 0.0015 ->
          fail "%s: abort rate %.3f, baseline %.3f (deterministic field drifted)" label
            c.tp_abort_rate rate
        | _ -> ());
        (* Recovery MTTR is virtual time, hence deterministic; baselines
           stamped before the observatory simply lack the field. *)
        (match Json.member "recovery_phases_ms" b with
        | Some (Json.Obj _ as rp) ->
          List.iter
            (fun key ->
              match (float_field key rp, List.assoc_opt key c.tp_recovery) with
              | Some base, Some current when Float.abs (base -. current) > 0.0015 ->
                fail "%s: recovery %s %.3f ms, baseline %.3f (deterministic field drifted)"
                  label key current base
              | _ -> ())
            [ "outage"; "replay"; "resolve"; "install"; "mttr" ]
        | _ -> ());
        (match float_field "wall_s" b with
        | Some wall when wall > 0.0 ->
          let ratio = c.tp_wall_s /. wall in
          Printf.printf "  %s: wall %.3f s vs baseline %.3f s (%+.1f%%)\n" label c.tp_wall_s
            wall
            ((ratio -. 1.0) *. 100.0);
          if ratio > !wall_tolerance then
            fail "%s: wall clock %.2fx the baseline (tolerance %.2fx)" label ratio
              !wall_tolerance
        | _ -> ()))
    throughput;
  (* Multi-tenant cases: events, committed and flush counts are
     deterministic (fixed shard count, schedule-fixed interleaving), so
     they must match exactly; wall only within tolerance. *)
  if multi_cases = [] && multi <> [] then
    Printf.printf "  no multi section in baseline, skipped (re-stamp with --json to add it)\n"
  else
    List.iter
      (fun c ->
        match
          List.find_opt
            (fun b ->
              int_field "tenants" b = Some c.mt_tenants
              && int_field "sites" b = Some c.mt_sites
              && (match Json.member "shared_wal" b with
                 | Some (Json.Bool shared) -> shared = c.mt_shared
                 | _ -> false))
            multi_cases
        with
        | None ->
          Printf.printf "  no baseline multi case for %d tenants / %d sites / %s, skipped\n"
            c.mt_tenants c.mt_sites
            (if c.mt_shared then "shared wal" else "per-tenant wal")
        | Some b ->
          let label =
            Printf.sprintf "multi %d tenants / %s wal" c.mt_tenants
              (if c.mt_shared then "shared" else "per-tenant")
          in
          (match int_field "events" b with
          | Some events when events <> c.mt_events ->
            fail "%s: events %d, baseline %d (deterministic field drifted)" label c.mt_events
              events
          | _ -> ());
          (match int_field "committed" b with
          | Some committed when committed <> c.mt_committed ->
            fail "%s: committed %d, baseline %d (deterministic field drifted)" label
              c.mt_committed committed
          | _ -> ());
          (match int_field "wal_flushes" b with
          | Some flushes when flushes <> c.mt_wal_flushes ->
            fail "%s: wal flushes %d, baseline %d (deterministic field drifted)" label
              c.mt_wal_flushes flushes
          | _ -> ());
          match float_field "wall_s" b with
          | Some wall when wall > 0.0 ->
            let ratio = c.mt_wall_s /. wall in
            Printf.printf "  %s: wall %.3f s vs baseline %.3f s (%+.1f%%)\n" label c.mt_wall_s
              wall
              ((ratio -. 1.0) *. 100.0);
            if ratio > !wall_tolerance then
              fail "%s: wall clock %.2fx the baseline (tolerance %.2fx)" label ratio
                !wall_tolerance
          | _ -> ())
      multi;
  if !failures > 0 then begin
    Printf.eprintf "baseline check: %d failure%s\n" !failures
      (if !failures = 1 then "" else "s");
    exit 1
  end
  else Printf.printf "  baseline check passed\n"

let () =
  parse_args ();
  Pool.set_default_domains !jobs;
  print_endline "RAID replicated copy control: benchmark harness";
  print_endline "(paper: Bhargava, Noll, Sabo, ICDE 1988 / Purdue CSD-TR-692)";
  Printf.printf "(independent runs fan out over %d domain%s; pass -j N to change)\n" !jobs
    (if !jobs = 1 then "" else "s");
  timed "experiment 1 tables" print_experiment1;
  let e2, s1, s2 = timed "figure runs (experiments 2-3)" run_figures in
  print_experiment2 e2;
  print_experiment3 s1 s2;
  timed "ablation grid" print_ablations;
  timed "scaling and robustness sweeps" print_scaling_and_robustness;
  let throughput = timed "steady-state throughput" print_throughput in
  let multi = timed "multi-tenant engine" print_multi in
  let bechamel = timed "bechamel microbenchmarks" run_bechamel in
  (match !json_path with
  | None -> ()
  | Some path -> write_json ~throughput ~multi ~bechamel path);
  match !baseline_path with
  | None -> ()
  | Some path -> check_baseline ~throughput ~multi path
