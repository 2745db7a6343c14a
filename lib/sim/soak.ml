module Cluster = Raid_core.Cluster
module Driver = Raid_core.Driver
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Telemetry = Raid_obs.Telemetry
module Prom = Raid_obs.Prom
module Http = Raid_obs.Http
module Json = Raid_obs.Json
module Trace = Raid_obs.Trace
module Incident = Raid_obs.Incident
module Span = Raid_obs.Span
module Rng = Raid_util.Rng

type config = {
  sites : int;
  items : int;
  max_ops : int;
  write_prob : float;
  replication : Config.replication;
  zipf_theta : float option;
  accel : float;
  seed : int;
  port : int;
  duration_s : float option;
}

let make_config ?(sites = 16) ?(items = 500) ?(max_ops = 5) ?(write_prob = 0.5)
    ?(replication = Config.Full) ?zipf_theta ?(accel = 1.0) ?(seed = 42) ?(port = 0) ?duration_s
    () =
  if sites <= 0 then invalid_arg "Soak: sites must be positive";
  if items <= 0 then invalid_arg "Soak: items must be positive";
  if accel < 0.0 then invalid_arg "Soak: accel must be non-negative";
  (match duration_s with
  | Some d when d <= 0.0 -> invalid_arg "Soak: duration must be positive"
  | _ -> ());
  { sites; items; max_ops; write_prob; replication; zipf_theta; accel; seed; port;
    duration_s }

type t = {
  cfg : config;
  cluster : Cluster.t;
  driver : Driver.t;
  reg : Telemetry.t;
  (* Recovery observatory: the typed event ring and the streaming
     incident recorder behind /incidents and /txns/:id. *)
  obs_trace : Trace.t;
  obs_recorder : Incident.recorder;
  server : Http.server;
  started : float;  (** wall clock at {!create} *)
  (* live-adjustable workload shape (POST /load) *)
  mutable max_ops : int;
  mutable write_prob : float;
  mutable zipf_theta : float option;
  mutable rate_cap : float option;  (** max submissions per wall second *)
  mutable stopping : bool;
  mutable shut : bool;
  (* events/sec over a sliding wall-clock window, surfaced as a gauge *)
  mutable eps : float;
  mutable eps_wall : float;
  mutable eps_events : int;
}

let wall t = Unix.gettimeofday () -. t.started
let cluster t = t.cluster
let now_ms t = Vtime.to_ms (Engine.now (Cluster.engine t.cluster))

let events t =
  let c = Engine.counters (Cluster.engine t.cluster) in
  c.Engine.delivered + c.Engine.timer_fired

let submitted t = Driver.submitted t.driver

let workload_spec ~max_ops ~write_prob = function
  | None -> Workload.Uniform { max_ops; write_prob }
  | Some theta -> Workload.Zipfian { max_ops; write_prob; theta }

let set_workload t spec =
  Driver.set_workload t.driver
    (Workload.create spec ~num_items:t.cfg.items ~rng:(Rng.split (Driver.rng t.driver)))

(* {2 Endpoint bodies} *)

let json_of_status (s : Cluster.site_status) =
  Json.Obj
    [
      ("site", Json.Int s.Cluster.st_id);
      ("alive", Json.Bool s.Cluster.st_alive);
      ("waiting", Json.Bool s.Cluster.st_waiting);
      ("faillocks", Json.Int s.Cluster.st_faillocks);
      ("table_bits", Json.Int s.Cluster.st_table_bits);
      ("pending_2pc", Json.Int s.Cluster.st_pending_2pc);
      ("buffered_prepares", Json.Int s.Cluster.st_buffered_prepares);
      ("session_up", Json.Int s.Cluster.st_session_up);
    ]

let sites_body t =
  Json.Obj
    [
      ("virtual_ms", Json.Float (now_ms t));
      ("alive", Json.Int (List.length (Cluster.alive_sites t.cluster)));
      ("total_faillocks", Json.Int (Cluster.total_faillocks t.cluster));
      ("sites", Json.Arr (List.map json_of_status (Array.to_list (Cluster.status t.cluster))));
    ]

let latency_summary t ~outcome =
  match Telemetry.find t.reg "raid_txn_latency_ms" ~labels:[ ("outcome", outcome) ] with
  | None -> Json.Null
  | Some v ->
    let count = int_of_float v.Telemetry.v_value and sum = v.Telemetry.v_sum in
    Json.Obj
      [
        ("count", Json.Int count);
        ("sum_ms", Json.Float sum);
        ("mean_ms", if count = 0 then Json.Null else Json.Float (sum /. float_of_int count));
        ( "buckets",
          Json.Arr
            (List.map
               (fun (le, cumulative) ->
                 Json.Obj
                   [
                     ("le", Json.Str (Telemetry.float_repr le));
                     ("count", Json.Int cumulative);
                   ])
               v.Telemetry.v_buckets) );
      ]

let txns_body t =
  let committed = Driver.committed t.driver and aborted = Driver.aborted t.driver in
  let total = committed + aborted in
  Json.Obj
    [
      ("submitted", Json.Int (submitted t));
      ("committed", Json.Int committed);
      ("aborted", Json.Int aborted);
      ( "abort_rate",
        Json.Float (if total = 0 then 0.0 else float_of_int aborted /. float_of_int total) );
      ("virtual_ms", Json.Float (now_ms t));
      ( "latency_ms",
        Json.Obj
          [
            ("commit", latency_summary t ~outcome:"commit");
            ("abort", latency_summary t ~outcome:"abort");
          ] );
    ]

let incidents_body t =
  let incidents = Incident.incidents t.obs_recorder in
  Json.Obj
    [
      ("virtual_ms", Json.Float (now_ms t));
      ("count", Json.Int (List.length incidents));
      ("dropped_trace_entries", Json.Int (Trace.dropped t.obs_trace));
      ("incidents", Json.Arr (List.map Incident.json incidents));
    ]

(* Path ids are 1*DIGIT, the rule [Content-Length] follows: no sign,
   no 0x/0b/0o prefix, no underscores. *)
let id_param params =
  let raw = List.assoc "id" params in
  if Http.is_digits raw then int_of_string_opt raw else None

(* Per-transaction span tree: assembled on demand from whatever the
   ring still holds (old transactions age out oldest-first;
   a tree caught mid-drop reports [complete = false]). *)
let txn_span_action t ~params _req =
  match id_param params with
  | None -> Http.error 404 (Printf.sprintf "bad txn id %S" (List.assoc "id" params))
  | Some id -> (
    match Span.find (Span.assemble (Trace.entries t.obs_trace)) id with
    | None -> Http.error 404 (Printf.sprintf "no span tree for txn %d in the ring" id)
    | Some tree -> Http.json (Span.json tree))

let health_body t =
  Json.Obj
    [
      ("status", Json.Str (if t.stopping then "draining" else "ok"));
      ("uptime_s", Json.Float (wall t));
      ("virtual_ms", Json.Float (now_ms t));
      ("submitted", Json.Int (submitted t));
      ("accel", Json.Float t.cfg.accel);
    ]

let site_id_of ~params t =
  match id_param params with
  | Some id when id < Cluster.num_sites t.cluster -> Ok id
  | _ -> Error (Http.error 404 (Printf.sprintf "no such site %S" (List.assoc "id" params)))

let fail_action t ~params _req =
  match site_id_of ~params t with
  | Error resp -> resp
  | Ok id ->
    if not (Cluster.alive t.cluster id) then
      Http.error 409 (Printf.sprintf "site %d is already down" id)
    else if Cluster.operational t.cluster = [ id ] then
      Http.error 409 "refusing to fail the last operational site"
    else begin
      Cluster.fail_site t.cluster id;
      Http.json
        (Json.Obj
           [ ("site", Json.Int id); ("alive", Json.Bool false); ("action", Json.Str "fail") ])
    end

let recover_action t ~params _req =
  match site_id_of ~params t with
  | Error resp -> resp
  | Ok id ->
    (* A blocked site (alive, waiting for a donor) is not operational:
       recovering it again retries control 1. *)
    if Cluster.is_operational t.cluster id then
      Http.error 409 (Printf.sprintf "site %d is already up" id)
    else
      let result =
        match Cluster.recover_site t.cluster id with
        | `Recovered -> "recovered"
        | `Blocked -> "blocked"
      in
      Http.json
        (Json.Obj
           [
             ("site", Json.Int id);
             ("alive", Json.Bool (Cluster.alive t.cluster id));
             ("action", Json.Str "recover");
             ("result", Json.Str result);
           ])

let load_action t ~params:_ (req : Http.request) =
  match Json.parse (if String.trim req.Http.body = "" then "{}" else req.Http.body) with
  | Error message -> Http.error 400 message
  | Ok body ->
    (* Every field is checked, and the new workload built, before any
       setting is assigned: a refused request changes nothing. *)
    let field key ~current check =
      match Json.member key body with
      | None -> Ok current
      | Some value -> check value
    in
    let number ~ok ~invalid = function
      | Json.Int n when ok (float_of_int n) -> Ok (float_of_int n)
      | Json.Float f when ok f -> Ok f
      | _ -> Error invalid
    in
    let ( let* ) r k = match r with Error m -> Http.error 400 m | Ok v -> k v in
    let* max_ops =
      field "max_ops" ~current:t.max_ops (function
        | Json.Int n when n >= 1 -> Ok n
        | _ -> Error "max_ops must be an integer >= 1")
    in
    let* write_prob =
      field "write_prob" ~current:t.write_prob
        (number ~ok:(fun p -> p >= 0.0 && p <= 1.0)
           ~invalid:"write_prob must be in [0,1]")
    in
    let* zipf_theta =
      field "zipf_theta" ~current:t.zipf_theta (function
        | Json.Null -> Ok None
        | value ->
          Result.map Option.some
            (number value
               ~ok:(fun theta -> theta > 0.0 && theta < 1.0)
               ~invalid:"zipf_theta must be in (0,1), or null for uniform"))
    in
    let* rate_cap =
      field "rate" ~current:t.rate_cap (function
        | Json.Null -> Ok None
        | value ->
          Result.map
            (fun r -> if r = 0.0 then None else Some r)
            (number value ~ok:(fun r -> r >= 0.0) ~invalid:"rate must be >= 0"))
    in
    set_workload t (workload_spec ~max_ops ~write_prob zipf_theta);
    t.max_ops <- max_ops;
    t.write_prob <- write_prob;
    t.zipf_theta <- zipf_theta;
    t.rate_cap <- rate_cap;
    Http.json
      (Json.Obj
         [
           ("max_ops", Json.Int max_ops);
           ("write_prob", Json.Float write_prob);
           ("zipf_theta", match zipf_theta with None -> Json.Null | Some theta -> Json.Float theta);
           ("rate", match rate_cap with None -> Json.Null | Some r -> Json.Float r);
         ])

let index_body =
  String.concat "\n"
    [
      "raid serve: live cluster introspection";
      "";
      "GET  /health            liveness and stream counters";
      "GET  /metrics           Prometheus text exposition";
      "GET  /sites             per-site status (JSON)";
      "GET  /txns              stream counters + latency histograms (JSON)";
      "GET  /txns/:id          causal span tree + critical path for one txn";
      "GET  /incidents         recovery incident timelines (JSON)";
      "POST /sites/:id/fail    crash a site";
      "POST /sites/:id/recover bring a site back, or retry a blocked recovery";
      "POST /load              adjust workload: max_ops, write_prob, zipf_theta, rate";
      "";
    ]

let routes t_ref =
  let with_t f ~params req =
    match !t_ref with
    | None -> Http.error 503 "server warming up"
    | Some t -> f t ~params req
  in
  [
    Http.route ~meth:"GET" "/" (fun ~params:_ _ -> Http.text index_body);
    Http.route ~meth:"GET" "/health" (with_t (fun t ~params:_ _ -> Http.json (health_body t)));
    Http.route ~meth:"GET" "/metrics"
      (with_t (fun t ~params:_ _ -> Http.prom (Prom.render t.reg)));
    Http.route ~meth:"GET" "/sites" (with_t (fun t ~params:_ _ -> Http.json (sites_body t)));
    Http.route ~meth:"GET" "/txns" (with_t (fun t ~params:_ _ -> Http.json (txns_body t)));
    Http.route ~meth:"GET" "/txns/:id" (with_t txn_span_action);
    Http.route ~meth:"GET" "/incidents"
      (with_t (fun t ~params:_ _ -> Http.json (incidents_body t)));
    Http.route ~meth:"POST" "/sites/:id/fail" (with_t fail_action);
    Http.route ~meth:"POST" "/sites/:id/recover" (with_t recover_action);
    Http.route ~meth:"POST" "/load" (with_t load_action);
  ]

let create cfg =
  (* No interval: every reader of this registry ([/metrics], [/txns])
     wants current values, so it keeps no series history. *)
  let reg = Telemetry.create () in
  let obs_trace = Trace.create () in
  let obs_sink, obs_recorder = Observe.attach_observatory reg obs_trace in
  let ccfg =
    Config.make ~replication:cfg.replication ~num_sites:cfg.sites ~num_items:cfg.items ()
  in
  let cluster = Cluster.of_spec (Cluster.Spec.make ~telemetry:reg ~obs:obs_sink ccfg) in
  (* The stream's seed path, which raidbench's serve-16 fingerprints
     pin: the creation-time uniform workload takes the first split,
     {!set_workload} below the next. *)
  let rng = Rng.create cfg.seed in
  let workload =
    Workload.create
      (Workload.Uniform { max_ops = cfg.max_ops; write_prob = cfg.write_prob })
      ~num_items:cfg.items ~rng:(Rng.split rng)
  in
  let driver = Driver.create cluster ~workload ~rng in
  let t_ref = ref None in
  let router = Http.dispatch (routes t_ref) in
  let server = Http.serve ~port:cfg.port router in
  let t =
    {
      cfg;
      cluster;
      driver;
      reg;
      obs_trace;
      obs_recorder;
      server;
      started = Unix.gettimeofday ();
      max_ops = cfg.max_ops;
      write_prob = cfg.write_prob;
      zipf_theta = cfg.zipf_theta;
      rate_cap = None;
      stopping = false;
      shut = false;
      eps = 0.0;
      eps_wall = 0.0;
      eps_events = 0;
    }
  in
  set_workload t (workload_spec ~max_ops:t.max_ops ~write_prob:t.write_prob t.zipf_theta);
  (* Process-level gauges: wall-clock facts about this soak, next to the
     virtual-time cluster metrics in the same exposition. *)
  Telemetry.gauge reg "raid_process_uptime_seconds"
    ~help:"Wall-clock seconds since the soak started" (fun () -> wall t);
  Telemetry.gauge reg "raid_process_events_per_sec"
    ~help:"Engine events per wall-clock second, over a recent window" (fun () -> t.eps);
  Telemetry.polled_counter reg "raid_process_requests_total"
    ~help:"HTTP requests answered by the introspection API" (fun () ->
      float_of_int (Http.requests_served server));
  Raid_obs.Build_info.register reg;
  t_ref := Some t;
  t

let port t = Http.port t.server
let registry t = t.reg
let stop t = t.stopping <- true
let finished t = t.stopping || t.shut

let rate_allows t =
  match t.rate_cap with
  | None -> true
  | Some rate -> float_of_int (submitted t) < (rate *. wall t) +. 1.0

(* Admit one transaction.  False when no site can coordinate: the
   stream idles until an operator recovers one. *)
let submit_one t =
  match Driver.step t.driver with
  | (_ : Raid_core.Metrics.outcome) -> true
  | exception Driver.No_operational_site -> false

(* Cap the admission burst per tick so the HTTP server stays responsive
   even when the virtual clock is far behind the pacing target (or the
   throttle is off entirely). *)
let max_batch = 64

let tick ?(timeout = 0.02) t =
  if not (finished t) then begin
    (match t.cfg.duration_s with
    | Some d when wall t >= d -> t.stopping <- true
    | _ -> ());
    if not t.stopping then begin
      let target_vms =
        if t.cfg.accel <= 0.0 then Float.infinity else t.cfg.accel *. wall t *. 1000.0
      in
      let budget = ref max_batch in
      let progress = ref true in
      while
        !progress && !budget > 0 && now_ms t < target_vms && rate_allows t
        && not t.stopping
      do
        progress := submit_one t;
        decr budget
      done;
      (* Refresh the events/sec window gauge about twice a second. *)
      let w = wall t in
      if w -. t.eps_wall >= 0.5 then begin
        let e = events t in
        t.eps <- float_of_int (e - t.eps_events) /. (w -. t.eps_wall);
        t.eps_wall <- w;
        t.eps_events <- e
      end;
      (* Behind the pacing target with budget exhausted: come back
         immediately; otherwise sleep in the server's select. *)
      let timeout =
        if !budget = 0 && now_ms t < target_vms && rate_allows t then 0.0 else timeout
      in
      ignore (Http.poll ~timeout t.server)
    end
  end

type summary = {
  submitted : int;
  committed : int;
  aborted : int;
  virtual_ms : float;
  wall_s : float;
  events : int;
  requests : int;
}

let summary (t : t) =
  {
    submitted = submitted t;
    committed = Driver.committed t.driver;
    aborted = Driver.aborted t.driver;
    virtual_ms = now_ms t;
    wall_s = wall t;
    events = events t;
    requests = Http.requests_served t.server;
  }

let shutdown t =
  if not t.shut then begin
    t.stopping <- true;
    Cluster.run_to_quiescence t.cluster;
    (* Answer anything already buffered, then stop listening. *)
    ignore (Http.poll ~timeout:0.0 t.server);
    Http.close_server t.server;
    t.shut <- true
  end;
  summary t

let run t =
  while not (finished t) do
    tick t
  done;
  shutdown t
