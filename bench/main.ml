(* Host-time benchmark.

   The paper's times "are not intended to represent the absolute
   performance of the system": only comparisons between averages mean
   anything.  This executable measures the two host-time quantities no
   golden can pin:

   1. Bechamel rows for the paper's Table 2.2.x costs and its three
      figure runs, with every modelled cost zeroed.  Each row batches
      enough operations per staged run for its OLS fit to reach
      r^2 >= 0.9, and reports nanoseconds per operation.

   2. A wall-clock guard over the steady-state throughput cases and the
      multi-tenant population in both WAL modes, each timed as the best
      of [repetitions] runs.  [--check-baseline FILE] fails when a case
      takes more than [wall_bound] times its stamped time.

   What those cases compute (events, committed transactions, abort rate,
   recovery-phase means, WAL flushes) is pinned exactly by the goldens
   under test/golden/ that `dune runtest` diffs.  [--json FILE] stamps
   the times through [Raid_obs.Json] together with the commit they were
   measured at. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Workload = Raid_core.Workload
module Txn = Raid_core.Txn
module Throughput = Raid_sim.Throughput
module Json = Raid_obs.Json
module Rng = Raid_util.Rng
module Table = Raid_util.Table
module Pool = Raid_par.Pool
open Bechamel
open Toolkit

let repetitions = 5
let wall_bound = 1.5
let r_square_floor = 0.9
let attempts = 5

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '#')

(* {2 Command line}

   [-j N] fans the throughput seeds and the multi-tenant shards out over
   N domains, [--json FILE] writes the stamp, [--check-baseline FILE]
   runs the wall-clock guard against a stamp. *)

let jobs = ref 1
let json_path = ref None
let baseline_path = ref None

let parse_args () =
  let usage () =
    Printf.eprintf "usage: %s [-j N | --jobs N] [--json FILE] [--check-baseline FILE]\n"
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
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* {2 Provenance}

   Which commit produced the numbers, whether the work tree differed from
   it, when, and on how wide a machine.  Read before any output file is
   opened, so a stamp written into the work tree does not call itself
   dirty. *)

let command_output cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let lines = In_channel.input_all ic in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> Some lines | _ -> None
  with _ -> None

let provenance () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  [
    ( "git_sha",
      Json.Str
        (match command_output "git rev-parse HEAD" with
        | Some out -> String.trim out
        | None -> "unknown") );
    ( "git_dirty",
      match command_output "git status --porcelain" with
      | Some out -> Json.Bool (out <> "")
      | None -> Json.Null );
    ( "date_utc",
      Json.Str
        (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
           (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec) );
    ("recommended_domains", Json.Int (Pool.recommended_domains ()));
    ("jobs", Json.Int !jobs);
  ]

(* {2 Wall-clock guard}

   A case runs once and returns how to describe itself given its wall
   time.  The repetitions go round the cases in turn, so a case's five
   runs are spread over the whole section instead of sharing one moment
   of host load. *)

let throughput_case ?replication ?zipf_theta ~sites ~items name =
  let duration_ms = 30_000.0 in
  let config =
    Throughput.make_config ~sites ~items ~duration_ms
      ~failure:(Throughput.default_failure ~sites ~duration_ms)
      ?replication ?zipf_theta ()
  in
  ( name,
    fun () ->
      let results = Throughput.run_seeds ~seeds:4 config in
      fun wall ->
        let events = (Throughput.summary results).Throughput.total_events in
        Printf.sprintf "%.0f events/sec" (float_of_int events /. wall) )

(* The WAL mode moves no protocol result, only host-side log work; the
   model's measure of that work is flushes and pages, printed per mode. *)
let multi_case ~wal_mode name =
  let spec =
    Raid_multi.spec ~tenants:200 ~sites:8 ~items:64 ~txns:30 ~shards:8 ~fail_every:10 ~wal_mode
      ()
  in
  ( name,
    fun () ->
      let result = Raid_multi.run spec in
      fun _ ->
        let total f = Array.fold_left (fun acc w -> acc + f w) 0 result.Raid_multi.wal in
        Printf.sprintf "%d flushes, %d pages"
          (total (fun w -> w.Raid_storage.Shared_wal.flushes))
          (total (fun w -> w.Raid_storage.Shared_wal.pages)) )

let cases =
  [
    throughput_case ~sites:16 ~items:500 "throughput 16x500";
    throughput_case ~sites:64 ~items:5000 "throughput 64x5000";
    throughput_case
      ~replication:(Config.Partial (Raid_core.Placement.spec ~factor:3 ()))
      ~zipf_theta:0.9 ~sites:256 ~items:100_000 "throughput 256x100000 k=3";
    multi_case ~wal_mode:(Raid_multi.Shared { group_size = 64 }) "multi shared/64 wal";
    multi_case ~wal_mode:Raid_multi.Per_tenant "multi per-tenant wal";
  ]

let run_guarded () =
  section
    (Printf.sprintf "Wall clock, best of %d (what they compute: test/golden/)" repetitions);
  let best = Array.make (List.length cases) (Float.infinity, fun _ -> "") in
  for _ = 1 to repetitions do
    List.iteri
      (fun i (_, run) ->
        let t0 = Unix.gettimeofday () in
        let describe = run () in
        let wall = Unix.gettimeofday () -. t0 in
        if wall < fst best.(i) then best.(i) <- (wall, describe))
      cases
  done;
  List.mapi
    (fun i (name, _) ->
      let wall, describe = best.(i) in
      Printf.printf "  %-26s %8.3f s   %s\n" name wall (describe wall);
      (name, wall))
    cases

(* {2 Bechamel rows}

   A row is a name, a batch size and a setup that builds a fresh cluster
   and returns one operation on it.  Every staged run gets its own setup,
   made before the clock starts, and repeats the operation [batch]
   times: the run is long enough for the clock to resolve, and no state
   piles up from one run to the next, so the OLS fit holds. *)

let bench_cluster ?(faillocks_enabled = true) () =
  Cluster.create (Config.make ~cost:Cost_model.zero ~faillocks_enabled ~num_sites:4 ~num_items:50 ())

let db_txn ~faillocks_enabled () =
  let cluster = bench_cluster ~faillocks_enabled () in
  let workload =
    Workload.create (Workload.Uniform { max_ops = 10; write_prob = 0.5 }) ~num_items:50
      ~rng:(Rng.create 1)
  in
  fun () ->
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:0 (Workload.next workload ~id))

let recover cluster site =
  match Cluster.recover_site cluster site with
  | `Recovered -> ()
  | `Blocked -> failwith "bench: recovery blocked"

let control_cycle () =
  let cluster = bench_cluster () in
  fun () ->
    Cluster.fail_site cluster 3;
    recover cluster 3

(* A write while site 3 is down fail-locks its copy; the read at site 3
   after recovery runs one copier transaction to refresh it. *)
let copier_trial () =
  let cluster = bench_cluster () in
  let rng = Rng.create 2 in
  fun () ->
    let item = Rng.int rng 50 in
    Cluster.fail_site cluster 3;
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write item ]));
    recover cluster 3;
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:3 (Txn.make ~id [ Txn.Read item ]))

let full_run f () () = ignore (f ())

let rows =
  [
    ("table-2.2.1: db txn, fail-locks code removed", 100, db_txn ~faillocks_enabled:false);
    ("table-2.2.1: db txn, fail-locks code included", 100, db_txn ~faillocks_enabled:true);
    ("table-2.2.2: control txn 1+2 (fail/recover cycle)", 100, control_cycle);
    ("table-2.2.3: db txn incl. one copier txn", 100, copier_trial);
    ("figure-1: experiment 2 full run", 1, full_run Raid_sim.Experiment2.run);
    ("figure-2: experiment 3 scenario 1 full run", 1, full_run Raid_sim.Experiment3.scenario1);
    ("figure-3: experiment 3 scenario 2 full run", 1, full_run Raid_sim.Experiment3.scenario2);
  ]

(* On a shared host the machine's speed shifts in steps that last a few
   hundred milliseconds; a row that straddles one fits badly however it
   is batched.  Such a row is measured again, up to [attempts] times, and
   the best fit is kept. *)
let fit_row cfg ols (name, batch, setup) =
  let test =
    Test.make_with_resource ~name Test.multiple ~allocate:setup ~free:ignore
      (Staged.stage (fun op ->
           for _ = 1 to batch do
             op ()
           done))
  in
  let measure () =
    let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
    let fit = Hashtbl.find (Analyze.all ols Instance.monotonic_clock raw) name in
    let ns =
      match Analyze.OLS.estimates fit with
      | Some (e :: _) -> e /. float_of_int batch
      | _ -> Float.nan
    in
    (ns, Option.value ~default:Float.nan (Analyze.OLS.r_square fit))
  in
  let best = ref (measure ()) and tries = ref 1 in
  while snd !best < r_square_floor && !tries < attempts do
    let ((_, r2) as fit) = measure () in
    incr tries;
    if r2 > snd !best then best := fit
  done;
  let ns, r2 = !best in
  (name, batch, ns, r2, !tries)

let run_bechamel () =
  section "Bechamel (implementation cost per operation, not paper times)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let estimates = List.map (fit_row cfg ols) rows in
  let table =
    Table.create ~title:"nanoseconds per operation (OLS estimate / batch)"
      [
        ("row", Table.Left);
        ("batch", Table.Right);
        ("ns/op", Table.Right);
        ("r2", Table.Right);
        ("attempts", Table.Right);
      ]
  in
  List.iter
    (fun (name, batch, ns, r2, tries) ->
      Table.add_row table
        [
          name;
          string_of_int batch;
          Printf.sprintf "%.0f" ns;
          Printf.sprintf "%.4f" r2;
          string_of_int tries;
        ])
    estimates;
  Table.print table;
  estimates

(* {2 Stamp and guard} *)

let write_json ~provenance ~guarded ~bechamel path =
  let doc =
    Json.Obj
      (provenance
      @ [
          ( "wall_s",
            Json.Arr
              (List.map
                 (fun (name, wall) -> Json.Obj [ ("name", Json.Str name); ("seconds", Json.Float wall) ])
                 guarded) );
          ( "bechamel",
            Json.Arr
              (List.map
                 (fun (name, batch, ns, r2, tries) ->
                   Json.Obj
                     [
                       ("name", Json.Str name);
                       ("batch", Json.Int batch);
                       ("ns_per_op", Json.Float ns);
                       ("r_square", Json.Float r2);
                       ("attempts", Json.Int tries);
                     ])
                 bechamel) );
        ])
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~indent:true doc ^ "\n"));
  Printf.printf "\nbenchmark stamp written to %s\n" path

(* A stamp from a dirty tree or from a commit that is not an ancestor of
   HEAD still guards numerically, but may describe other code: warn. *)
let warn_provenance doc =
  (match Json.member "git_dirty" doc with
  | Some (Json.Bool true) ->
    Printf.printf "  WARN baseline was measured on a work tree with uncommitted changes\n"
  | _ -> ());
  match Json.member "git_sha" doc with
  | Some (Json.Str sha)
    when sha <> "" && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) sha
    -> (
    match Unix.system (Printf.sprintf "git merge-base --is-ancestor %s HEAD 2>/dev/null" sha) with
    | Unix.WEXITED n when n <> 0 ->
      Printf.printf "  WARN baseline git_sha %s is not an ancestor of HEAD; re-stamp with --json\n"
        sha
    | _ -> ())
  | _ -> ()

let check_baseline ~guarded path =
  section (Printf.sprintf "Wall-clock guard against %s (bound %.1fx)" path wall_bound);
  let doc =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error e ->
      Printf.eprintf "baseline %s does not parse: %s\n" path e;
      exit 1
  in
  warn_provenance doc;
  let stamped =
    List.filter_map
      (fun case ->
        match (Json.member "name" case, Json.member "seconds" case) with
        | Some (Json.Str name), Some (Json.Float s) -> Some (name, s)
        | Some (Json.Str name), Some (Json.Int s) -> Some (name, float_of_int s)
        | _ -> None)
      (Json.to_list (Option.value ~default:Json.Null (Json.member "wall_s" doc)))
  in
  (* A case the stamp lacks fails too: a guard that skips guards nothing. *)
  let failures =
    List.filter
      (fun (name, wall) ->
        match List.assoc_opt name stamped with
        | Some base when base > 0.0 ->
          let ratio = wall /. base in
          Printf.printf "  %-26s %.3f s vs %.3f s (%.2fx)%s\n" name wall base ratio
            (if ratio > wall_bound then "  FAIL" else "");
          ratio > wall_bound
        | _ ->
          Printf.printf "  %-26s FAIL no stamped time; re-stamp with --json\n" name;
          true)
      guarded
  in
  match failures with
  | [] -> Printf.printf "  wall-clock guard passed\n"
  | _ ->
    Printf.eprintf "wall-clock guard: %d of %d cases failed\n" (List.length failures)
      (List.length guarded);
    exit 1

let () =
  parse_args ();
  let provenance = provenance () in
  Pool.set_default_domains !jobs;
  print_endline "RAID replicated copy control: host-time benchmark";
  Printf.printf "(independent runs fan out over %d domain%s; pass -j N to change)\n" !jobs
    (if !jobs = 1 then "" else "s");
  let guarded = run_guarded () in
  let bechamel = run_bechamel () in
  Option.iter (write_json ~provenance ~guarded ~bechamel) !json_path;
  Option.iter (check_baseline ~guarded) !baseline_path
