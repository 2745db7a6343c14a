module Cluster = Raid_core.Cluster
module Driver = Raid_core.Driver
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Message = Raid_core.Message
module Site = Raid_core.Site
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
  tenants : int;
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

let make_config ?(tenants = 1) ?(sites = 16) ?(items = 500) ?(max_ops = 5) ?(write_prob = 0.5)
    ?(replication = Config.Full) ?zipf_theta ?(accel = 1.0) ?(seed = 42) ?(port = 0) ?duration_s
    () =
  if tenants <= 0 then invalid_arg "Soak: tenants must be positive";
  if sites <= 0 then invalid_arg "Soak: sites must be positive";
  if items <= 0 then invalid_arg "Soak: items must be positive";
  if accel < 0.0 then invalid_arg "Soak: accel must be non-negative";
  (match duration_s with
  | Some d when d <= 0.0 -> invalid_arg "Soak: duration must be positive"
  | _ -> ());
  { tenants; sites; items; max_ops; write_prob; replication; zipf_theta; accel; seed; port;
    duration_s }

(* One tenant: a full independent cluster with its own transaction
   stream.  Tenant 0 keeps the exact single-tenant stream (same seed
   path), so [tenants = 1] behaves byte-for-byte like the pre-tenant
   soak. *)
type tenant = { tn_id : int; tn_cluster : Cluster.t; tn_driver : Driver.t }

type t = {
  cfg : config;
  tenants : tenant array;
  reg : Telemetry.t;
  (* Recovery observatory over tenant 0: the typed event ring and the
     streaming incident recorder behind /incidents and /txns/:id. *)
  obs_trace : Trace.t;
  obs_recorder : Incident.recorder;
  server : Http.server;
  started : float;  (** wall clock at {!create} *)
  (* live-adjustable workload shape (POST /load), applied to every tenant *)
  mutable max_ops : int;
  mutable write_prob : float;
  mutable zipf_theta : float option;
  mutable rate_cap : float option;  (** max submissions per wall second *)
  mutable next_tenant : int;  (** round-robin admission cursor *)
  mutable stopping : bool;
  mutable shut : bool;
  (* events/sec over a sliding wall-clock window, surfaced as a gauge *)
  mutable eps : float;
  mutable eps_wall : float;
  mutable eps_events : int;
}

let wall t = Unix.gettimeofday () -. t.started
let tenant0 t = t.tenants.(0)
let cluster t = (tenant0 t).tn_cluster

(* Pacing floor: the slowest tenant's virtual clock.  Round-robin
   admission keeps the clocks together, so for one tenant this is the
   old single-clock value. *)
let now_ms t =
  Array.fold_left
    (fun acc tn -> Float.min acc (Vtime.to_ms (Engine.now (Cluster.engine tn.tn_cluster))))
    Float.infinity t.tenants

let events t =
  Array.fold_left
    (fun acc tn ->
      let c = Engine.counters (Cluster.engine tn.tn_cluster) in
      acc + c.Engine.delivered + c.Engine.timer_fired)
    0 t.tenants

let tally f t = Array.fold_left (fun acc tn -> acc + f tn.tn_driver) 0 t.tenants
let submitted t = tally Driver.submitted t

let workload_spec ~max_ops ~write_prob = function
  | None -> Workload.Uniform { max_ops; write_prob }
  | Some theta -> Workload.Zipfian { max_ops; write_prob; theta }

(* Every tenant's new workload is built before any is installed. *)
let set_workloads t spec =
  let workloads =
    Array.map
      (fun tn ->
        let rng = Rng.split (Driver.rng tn.tn_driver) in
        Workload.create spec ~num_items:t.cfg.items ~rng)
      t.tenants
  in
  Array.iteri (fun i workload -> Driver.set_workload t.tenants.(i).tn_driver workload) workloads

(* {2 Endpoint bodies} *)

let json_of_status ?tenant (s : Cluster.site_status) =
  let base =
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
  in
  Json.Obj (match tenant with None -> base | Some i -> ("tenant", Json.Int i) :: base)

let sites_body t =
  let multi = Array.length t.tenants > 1 in
  let alive =
    Array.fold_left
      (fun a tn -> a + List.length (Cluster.alive_sites tn.tn_cluster))
      0 t.tenants
  in
  let faillocks =
    Array.fold_left (fun a tn -> a + Cluster.total_faillocks tn.tn_cluster) 0 t.tenants
  in
  let sites =
    List.concat_map
      (fun tn ->
        let tenant = if multi then Some tn.tn_id else None in
        List.map (json_of_status ?tenant) (Array.to_list (Cluster.status tn.tn_cluster)))
      (Array.to_list t.tenants)
  in
  Json.Obj
    (("virtual_ms", Json.Float (now_ms t))
     :: (if multi then [ ("tenants", Json.Int (Array.length t.tenants)) ] else [])
    @ [
        ("alive", Json.Int alive);
        ("total_faillocks", Json.Int faillocks);
        ("sites", Json.Arr sites);
      ])

(* With one tenant the latency series carries only the outcome label;
   with many, one series per tenant — aggregate them (the bucket edges
   are shared, so cumulative counts add). *)
let latency_views t ~outcome =
  if Array.length t.tenants = 1 then
    Option.to_list (Telemetry.find t.reg "raid_txn_latency_ms" ~labels:[ ("outcome", outcome) ])
  else
    List.filter_map
      (fun tn ->
        Telemetry.find t.reg "raid_txn_latency_ms"
          ~labels:[ ("tenant", string_of_int tn.tn_id); ("outcome", outcome) ])
      (Array.to_list t.tenants)

let latency_summary t ~outcome =
  match latency_views t ~outcome with
  | [] -> Json.Null
  | first :: _ as views ->
    let count =
      List.fold_left (fun a (v : Telemetry.view) -> a + int_of_float v.Telemetry.v_value) 0 views
    in
    let sum = List.fold_left (fun a v -> a +. v.Telemetry.v_sum) 0.0 views in
    let buckets =
      List.fold_left
        (fun acc v ->
          List.map2 (fun (le, c) (_, c') -> (le, c + c')) acc v.Telemetry.v_buckets)
        (List.map (fun (le, _) -> (le, 0)) first.Telemetry.v_buckets)
        views
    in
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
               buckets) );
      ]

let txns_body t =
  let committed = tally Driver.committed t and aborted = tally Driver.aborted t in
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

(* Per-transaction span tree: assembled on demand from whatever the
   tenant-0 ring still holds (old transactions age out oldest-first;
   a tree caught mid-drop reports [complete = false]). *)
let txn_span_action t ~params _req =
  match int_of_string_opt (List.assoc "id" params) with
  | None -> Http.error 404 (Printf.sprintf "bad txn id %S" (List.assoc "id" params))
  | Some id -> (
    match Span.find (Span.assemble (Trace.entries t.obs_trace)) id with
    | None -> Http.error 404 (Printf.sprintf "no span tree for txn %d in the ring (tenant 0)" id)
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

(* Operator fail/recover actions address tenant 0: the soak's tenants
   are independent, so one controllable cluster is enough to exercise
   the recovery protocol live while the rest keep serving. *)
let site_id_of ~params t =
  match int_of_string_opt (List.assoc "id" params) with
  | Some id when id >= 0 && id < Cluster.num_sites (cluster t) -> Ok id
  | _ -> Error (Http.error 404 (Printf.sprintf "no such site %S" (List.assoc "id" params)))

let fail_action t ~params _req =
  match site_id_of ~params t with
  | Error resp -> resp
  | Ok id ->
    let tn = tenant0 t in
    if not (Cluster.alive tn.tn_cluster id) then
      Http.error 409 (Printf.sprintf "site %d is already down" id)
    else if Cluster.operational tn.tn_cluster = [ id ] then
      Http.error 409 "refusing to fail the last operational site"
    else begin
      Cluster.fail_site tn.tn_cluster id;
      Http.json
        (Json.Obj
           [ ("site", Json.Int id); ("alive", Json.Bool false); ("action", Json.Str "fail") ])
    end

let recover_action t ~params _req =
  match site_id_of ~params t with
  | Error resp -> resp
  | Ok id ->
    let tn = tenant0 t in
    let report status =
      Http.json
        (Json.Obj
           [
             ("site", Json.Int id);
             ("alive", Json.Bool (Cluster.alive tn.tn_cluster id));
             ("action", Json.Str "recover");
             ("result", Json.Str status);
           ])
    in
    if Cluster.alive tn.tn_cluster id then
      if Site.is_waiting (Cluster.site tn.tn_cluster id) then begin
        (* A blocked recovery (no operational donor at the time) retries
           through the same control-1 path. *)
        Engine.inject (Cluster.engine tn.tn_cluster) ~dst:id Message.Recover_command;
        Cluster.run_to_quiescence tn.tn_cluster;
        report
          (if Site.is_waiting (Cluster.site tn.tn_cluster id) then "blocked" else "recovered")
      end
      else Http.error 409 (Printf.sprintf "site %d is already up" id)
    else
      match Cluster.recover_site tn.tn_cluster id with
      | `Recovered -> report "recovered"
      | `Blocked -> report "blocked"

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
    set_workloads t (workload_spec ~max_ops ~write_prob zipf_theta);
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
      "GET  /metrics           Prometheus text exposition (tenant-labelled when --tenants > 1)";
      "GET  /sites             per-site status across tenants (JSON)";
      "GET  /txns              stream counters + latency histograms (JSON)";
      "GET  /txns/:id          causal span tree + critical path for one txn (tenant 0)";
      "GET  /incidents         recovery incident timelines (tenant 0, JSON)";
      "POST /sites/:id/fail    crash a site (tenant 0)";
      "POST /sites/:id/recover bring a site back (tenant 0)";
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
  (* The recovery observatory watches tenant 0 only — the tenant the
     operator fail/recover endpoints address, so its ring holds exactly
     the incidents those actions produce. *)
  let obs_trace = Trace.create () in
  let obs_sink, obs_recorder = Observe.attach_observatory reg obs_trace in
  let ccfg =
    Config.make ~replication:cfg.replication ~num_sites:cfg.sites ~num_items:cfg.items ()
  in
  let make_tenant i =
    (* Label every series by tenant only in multi-tenant mode, so a
       single-tenant soak exposes the exact historical series names. *)
    let telemetry_labels = if cfg.tenants > 1 then [ ("tenant", string_of_int i) ] else [] in
    let tn_cluster =
      Cluster.of_spec
        (Cluster.Spec.make ~telemetry:reg ~telemetry_labels
           ?obs:(if i = 0 then Some obs_sink else None)
           ccfg)
    in
    (* Tenant 0 reproduces the historical single-tenant stream; the rest
       get independent mixed streams (cf. Raid_multi). *)
    let rng =
      if i = 0 then Rng.create cfg.seed
      else Rng.create (Rng.mix ((cfg.seed * 1_000_003) + i))
    in
    let workload =
      Workload.create
        (Workload.Uniform { max_ops = cfg.max_ops; write_prob = cfg.write_prob })
        ~num_items:cfg.items ~rng:(Rng.split rng)
    in
    { tn_id = i; tn_cluster; tn_driver = Driver.create tn_cluster ~workload ~rng }
  in
  let tenants = Array.init cfg.tenants make_tenant in
  let t_ref = ref None in
  let router = Http.dispatch (routes t_ref) in
  let server = Http.serve ~port:cfg.port router in
  let t =
    {
      cfg;
      tenants;
      reg;
      obs_trace;
      obs_recorder;
      server;
      started = Unix.gettimeofday ();
      max_ops = cfg.max_ops;
      write_prob = cfg.write_prob;
      zipf_theta = cfg.zipf_theta;
      rate_cap = None;
      next_tenant = 0;
      stopping = false;
      shut = false;
      eps = 0.0;
      eps_wall = 0.0;
      eps_events = 0;
    }
  in
  set_workloads t (workload_spec ~max_ops:t.max_ops ~write_prob:t.write_prob t.zipf_theta);
  (* Process-level gauges: wall-clock facts about this soak, next to the
     virtual-time cluster metrics in the same exposition. *)
  Telemetry.gauge reg "raid_process_uptime_seconds"
    ~help:"Wall-clock seconds since the soak started" (fun () -> wall t);
  Telemetry.gauge reg "raid_process_events_per_sec"
    ~help:"Engine events per wall-clock second, over a recent window" (fun () -> t.eps);
  Telemetry.polled_counter reg "raid_process_requests_total"
    ~help:"HTTP requests answered by the introspection API" (fun () ->
      float_of_int (Http.requests_served server));
  (if cfg.tenants > 1 then
     Telemetry.gauge reg "raid_process_tenants"
       ~help:"Independent tenant clusters hosted by this soak" (fun () ->
         float_of_int cfg.tenants));
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

(* Admit one transaction to the next tenant (round-robin) that has an
   operational coordinator.  False when no tenant can make progress. *)
let submit_one t =
  let n = Array.length t.tenants in
  let rec try_from k attempts =
    if attempts = 0 then false  (* everything failable failed; idle until recover *)
    else
      let next = (k + 1) mod n in
      match Driver.step t.tenants.(k).tn_driver with
      | (_ : Raid_core.Metrics.outcome) ->
        t.next_tenant <- next;
        true
      | exception Driver.No_operational_site -> try_from next (attempts - 1)
  in
  try_from t.next_tenant n

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
    committed = tally Driver.committed t;
    aborted = tally Driver.aborted t;
    virtual_ms = now_ms t;
    wall_s = wall t;
    events = events t;
    requests = Http.requests_served t.server;
  }

let shutdown t =
  if not t.shut then begin
    t.stopping <- true;
    Array.iter (fun tn -> Cluster.run_to_quiescence tn.tn_cluster) t.tenants;
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
