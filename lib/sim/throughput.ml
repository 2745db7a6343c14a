module Cluster = Raid_core.Cluster
module Driver = Raid_core.Driver
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Rng = Raid_util.Rng
module Stats = Raid_util.Stats
module Table = Raid_util.Table
module Pool = Raid_par.Pool

type failure = { fail_site : int; fail_at_ms : float; recover_at_ms : float }

type config = {
  sites : int;
  items : int;
  max_ops : int;
  write_prob : float;
  duration_ms : float;
  failure : failure option;
  replication : Config.replication;
  zipf_theta : float option;  (** hot-spot skew; [None] keeps the uniform draw *)
}

let make_config ?(sites = 16) ?(items = 500) ?(max_ops = 5) ?(write_prob = 0.5)
    ?(duration_ms = 10_000.0) ?failure ?(replication = Config.Full) ?zipf_theta () =
  if sites <= 0 then invalid_arg "Throughput: sites must be positive";
  if items <= 0 then invalid_arg "Throughput: items must be positive";
  if duration_ms <= 0.0 then invalid_arg "Throughput: duration must be positive";
  (match failure with
  | None -> ()
  | Some { fail_site; fail_at_ms; recover_at_ms } ->
    if fail_site < 0 || fail_site >= sites then invalid_arg "Throughput: fail_site out of range";
    if fail_at_ms < 0.0 || recover_at_ms <= fail_at_ms then
      invalid_arg "Throughput: need 0 <= fail_at < recover_at");
  { sites; items; max_ops; write_prob; duration_ms; failure; replication; zipf_theta }

(* Failure times are absolute virtual times (not fractions of the
   duration), so a longer run of the same seed is a strict extension of a
   shorter one — the monotonicity property the tests pin. *)
let default_failure ~sites:_ ~duration_ms =
  { fail_site = 0; fail_at_ms = duration_ms /. 5.0; recover_at_ms = duration_ms /. 2.0 }

type window = {
  w_start_s : int;
  w_committed : int;
  w_aborted : int;
  w_copiers : int;
  w_faillocks_set : int;
  w_faillocks_cleared : int;
  w_messages : int;
}

type result = {
  seed : int;
  submitted : int;
  committed : int;
  aborted : int;
  copier_requests : int;
  faillocks_set : int;
  faillocks_cleared : int;
  virtual_ms : float;  (** engine virtual time when the stream stopped *)
  events : int;  (** messages delivered + timers fired, host-side work *)
  messages_sent : int;
  recovered : bool;  (** the failed site completed control-1 (no failure = true) *)
  windows : window list;  (** per-virtual-second activity, ascending start time *)
  incidents : Raid_obs.Incident.t list;
      (** the staged failure's recovery timelines; empty without one *)
}

let txns_per_vsec r =
  if r.virtual_ms <= 0.0 then 0.0 else float_of_int r.committed /. (r.virtual_ms /. 1000.0)

let abort_rate r =
  let total = r.committed + r.aborted in
  if total = 0 then 0.0 else float_of_int r.aborted /. float_of_int total

(* The steady-state stream.  Transactions are drawn from a uniform
   workload and submitted serially in virtual time (the paper's sites run
   serially); the stream is open-loop in the sense that load never adapts
   to outcomes — aborts do not slow the arrival of the next transaction.
   The optional failure/recovery pair fires at absolute virtual times
   mid-run, so the measurement covers normal processing, the degraded
   window and the recovery tail in one trajectory. *)
let run ?(seed = 42) ?telemetry config =
  let ccfg =
    Config.make ~replication:config.replication ~num_sites:config.sites
      ~num_items:config.items ()
  in
  (* A staged failure's recovery timeline rides the trace-sink hook; a run
     without one has no incident to record and skips the per-event
     closure call. *)
  let recorder =
    Option.map (fun _ -> Raid_obs.Incident.recorder ()) config.failure
  in
  let obs = Option.map Raid_obs.Incident.recorder_sink recorder in
  let cluster = Cluster.of_spec (Cluster.Spec.make ?telemetry ?obs ccfg) in
  let engine = Cluster.engine cluster in
  let metrics = Cluster.metrics cluster in
  let rng = Rng.create seed in
  let workload_spec =
    match config.zipf_theta with
    | None -> Workload.Uniform { max_ops = config.max_ops; write_prob = config.write_prob }
    | Some theta ->
      Workload.Zipfian { max_ops = config.max_ops; write_prob = config.write_prob; theta }
  in
  let workload = Workload.create workload_spec ~num_items:config.items ~rng:(Rng.split rng) in
  let plan =
    match config.failure with
    | None -> []
    | Some f ->
      Driver.
        [ (At_ms f.fail_at_ms, Fail f.fail_site); (At_ms f.recover_at_ms, Recover f.fail_site) ]
  in
  let driver = Driver.create ~plan cluster ~workload ~rng in
  let windows = Hashtbl.create 32 in
  let now_ms () = Vtime.to_ms (Engine.now engine) in
  (* Each window keeps its commit/abort tallies plus a snapshot of the
     cumulative protocol counters at its last recorded transaction; the
     snapshots are diffed into per-window activity once the run ends.
     Activity between two recorded windows (e.g. control traffic in a
     second with no completions) lands in the next recorded window. *)
  let record outcome =
    let window = int_of_float (now_ms () /. 1000.0) in
    let c, a =
      match Hashtbl.find_opt windows window with
      | Some (c, a, _, _, _, _) -> (c, a)
      | None -> (0, 0)
    in
    let c, a = if outcome.Metrics.committed then (c + 1, a) else (c, a + 1) in
    Hashtbl.replace windows window
      ( c,
        a,
        metrics.Metrics.copier_requests,
        metrics.Metrics.faillocks_set,
        metrics.Metrics.faillocks_cleared,
        (Engine.counters engine).Engine.sent )
  in
  while now_ms () < config.duration_ms do
    record (Driver.step driver)
  done;
  (match telemetry with
  | None -> ()
  | Some registry -> Raid_obs.Telemetry.sample_now registry ~at:(Engine.now engine));
  let counters = Engine.counters engine in
  {
    seed;
    submitted = Driver.submitted driver;
    committed = Driver.committed driver;
    aborted = Driver.aborted driver;
    copier_requests = metrics.Metrics.copier_requests;
    faillocks_set = metrics.Metrics.faillocks_set;
    faillocks_cleared = metrics.Metrics.faillocks_cleared;
    virtual_ms = now_ms ();
    events = counters.Engine.delivered + counters.Engine.timer_fired;
    messages_sent = counters.Engine.sent;
    recovered = config.failure = None || Driver.recovered driver > 0;
    incidents =
      (match recorder with None -> [] | Some r -> Raid_obs.Incident.incidents r);
    windows =
      (let raw =
         List.sort compare (Hashtbl.fold (fun w v acc -> (w, v) :: acc) windows [])
       in
       let prev = ref (0, 0, 0, 0) in
       List.map
         (fun (w, (c, a, cop, fs, fc, sent)) ->
           let pcop, pfs, pfc, psent = !prev in
           prev := (cop, fs, fc, sent);
           {
             w_start_s = w;
             w_committed = c;
             w_aborted = a;
             w_copiers = cop - pcop;
             w_faillocks_set = fs - pfs;
             w_faillocks_cleared = fc - pfc;
             w_messages = sent - psent;
           })
         raw);
  }

(* Multi-seed sweep: each seed is an independent pure run, so the batch
   fans out over the domain pool with bit-identical results for any -j. *)
let run_seeds ?domains ?(base_seed = 42) ~seeds config =
  if seeds <= 0 then invalid_arg "Throughput: seeds must be positive";
  Pool.map ?domains
    (fun seed -> run ~seed config)
    (List.init seeds (fun i -> base_seed + i))

let results_table ~config results =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Steady-state throughput: %d sites, %d items, txn<=%d ops, P(write)=%.2f, %.0f \
            virtual ms%s%s%s"
           config.sites config.items config.max_ops config.write_prob config.duration_ms
           (match config.replication with
           | Raid_core.Config.Full -> ""
           | Raid_core.Config.Partial spec ->
             Printf.sprintf ", k=%d %s" spec.Raid_core.Placement.factor
               (Raid_core.Placement.sharding_to_string spec.Raid_core.Placement.sharding))
           (match config.zipf_theta with
           | None -> ""
           | Some theta -> Printf.sprintf ", zipf theta=%.2f" theta)
           (match config.failure with
           | None -> ", no failure"
           | Some f ->
             Printf.sprintf ", site %d down %.0f-%.0f ms" f.fail_site f.fail_at_ms
               f.recover_at_ms))
      [
        ("seed", Table.Right);
        ("committed", Table.Right);
        ("aborted", Table.Right);
        ("abort %", Table.Right);
        ("txns/vsec", Table.Right);
        ("copiers", Table.Right);
        ("events", Table.Right);
        ("recovered", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.seed;
          string_of_int r.committed;
          string_of_int r.aborted;
          Printf.sprintf "%.1f" (100.0 *. abort_rate r);
          Printf.sprintf "%.1f" (txns_per_vsec r);
          string_of_int r.copier_requests;
          string_of_int r.events;
          string_of_bool r.recovered;
        ])
    results;
  table

type summary = {
  mean_txns_per_vsec : float;
  mean_abort_rate : float;
  total_events : int;
  incidents : int;
  complete_incidents : int;
  recovery_ms : (string * float) list;
}

(* Recovery means are virtual time, hence as deterministic as the rest.
   At benchmark scale the drain tail usually outlives the stream (the
   on-demand refreshes never touch the coldest fail-locked items), so the
   drain mean is a lower bound and "mttr" appears only when an episode
   actually completed. *)
let summary results =
  let incidents = List.concat_map (fun (r : result) -> r.incidents) results in
  let complete = List.filter (fun i -> i.Raid_obs.Incident.complete) incidents in
  let mean over f =
    List.fold_left (fun acc i -> acc +. f i) 0.0 over /. float_of_int (List.length over)
  in
  let recovery_ms =
    if incidents = [] then []
    else
      List.map
        (fun p ->
          ( Raid_obs.Incident.phase_name p,
            mean incidents (fun i -> Vtime.to_ms (Raid_obs.Incident.phase_duration i p)) ))
        Raid_obs.Incident.all_phases
      @
      if complete = [] then []
      else
        [
          ( "mttr",
            mean complete (fun i ->
                Vtime.to_ms (Option.value ~default:Vtime.zero (Raid_obs.Incident.mttr i))) );
        ]
  in
  {
    mean_txns_per_vsec = Stats.mean (List.map txns_per_vsec results);
    mean_abort_rate = Stats.mean (List.map abort_rate results);
    total_events = List.fold_left (fun acc (r : result) -> acc + r.events) 0 results;
    incidents = List.length incidents;
    complete_incidents = List.length complete;
    recovery_ms;
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>mean: %.3f txns/vsec, abort rate %.3f, %d events" s.mean_txns_per_vsec
    s.mean_abort_rate s.total_events;
  if s.recovery_ms <> [] then
    Format.fprintf ppf "@,recovery (mean over %d incidents, %d complete): %s" s.incidents
      s.complete_incidents
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.3f ms" k v) s.recovery_ms));
  Format.fprintf ppf "@]"

let windows_csv r =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    "virtual_s,committed,aborted,copier_requests,faillocks_set,faillocks_cleared,messages_sent\n";
  List.iter
    (fun w ->
      Buffer.add_string buffer
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d\n" w.w_start_s w.w_committed w.w_aborted
           w.w_copiers w.w_faillocks_set w.w_faillocks_cleared w.w_messages))
    r.windows;
  Buffer.contents buffer
