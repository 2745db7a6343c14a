module Config = Raid_core.Config
module Cluster = Raid_core.Cluster
module Workload = Raid_core.Workload
module Driver = Raid_core.Driver
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Wal = Raid_storage.Wal
module Shared_wal = Raid_storage.Shared_wal
module Rng = Raid_util.Rng
module Pool = Raid_par.Pool

type wal_mode = Shared of { group_size : int } | Per_tenant

type spec = {
  tenants : int;
  shards : int;
  sites : int;
  items : int;
  txns : int;
  batch : int;
  seed : int;
  max_ops : int;
  write_prob : float;
  wal_mode : wal_mode;
  fail_every : int;
}

let spec ?(shards = 8) ?(sites = 8) ?(items = 64) ?(txns = 40) ?(batch = 8) ?(seed = 1)
    ?(max_ops = 4) ?(write_prob = 0.5) ?(wal_mode = Shared { group_size = 64 })
    ?(fail_every = 0) ~tenants () =
  if tenants <= 0 then invalid_arg "Multi.spec: non-positive tenants";
  if shards <= 0 then invalid_arg "Multi.spec: non-positive shards";
  if sites < 2 then invalid_arg "Multi.spec: need at least 2 sites per tenant";
  if items <= 0 then invalid_arg "Multi.spec: non-positive items";
  if txns <= 0 then invalid_arg "Multi.spec: non-positive txns";
  if batch <= 0 then invalid_arg "Multi.spec: non-positive batch";
  if max_ops <= 0 then invalid_arg "Multi.spec: non-positive max_ops";
  if write_prob < 0.0 || write_prob > 1.0 then invalid_arg "Multi.spec: write_prob out of range";
  if fail_every < 0 then invalid_arg "Multi.spec: negative fail_every";
  (match wal_mode with
  | Shared { group_size } when group_size <= 0 ->
    invalid_arg "Multi.spec: non-positive group_size"
  | Shared _ | Per_tenant -> ());
  { tenants; shards; sites; items; txns; batch; seed; max_ops; write_prob; wal_mode; fail_every }

type tenant_result = {
  tenant : int;
  shard : int;
  submitted : int;
  committed : int;
  aborted : int;
  events : int;
  virtual_ms : float;
  recovered : int;
}

type result = {
  run_spec : spec;
  results : tenant_result array;
  wal : Shared_wal.stats array;
}

(* One tenant's live state while its stream is in flight. *)
type tenant_state = { t_id : int; driver : Driver.t }

let has_failure_plan spec tenant = spec.fail_every > 0 && tenant mod spec.fail_every = 0

let make_tenant spec ~tenant ~wal_factory ~obs ~telemetry =
  let config =
    Config.make ~num_sites:spec.sites ~num_items:spec.items
      ~durability:(Config.Durable_wal { checkpoint_interval = 64 })
      ()
  in
  let cluster =
    Cluster.of_spec
      (Cluster.Spec.make ?obs ?telemetry
         ~telemetry_labels:[ ("tenant", string_of_int tenant) ]
         ?wal_factory config)
  in
  (* Independent per-tenant streams: the workload draws from a split of
     the tenant generator, coordinator choice from the remainder. *)
  let rng = Rng.create (Rng.mix ((spec.seed * 1_000_003) + tenant)) in
  let workload =
    Workload.create
      (Workload.Uniform { max_ops = spec.max_ops; write_prob = spec.write_prob })
      ~num_items:spec.items ~rng:(Rng.split rng)
  in
  (* The victim is down for the middle third of the stream, so at least
     sites-1 coordinators stay operational. *)
  let plan =
    if has_failure_plan spec tenant then
      let victim = 1 + (tenant mod (spec.sites - 1)) in
      Driver.
        [
          (After_txns (spec.txns / 3), Fail victim);
          (After_txns (2 * spec.txns / 3), Recover victim);
        ]
    else []
  in
  { t_id = tenant; driver = Driver.create ~plan cluster ~workload ~rng }

(* Advance one scheduling quantum: up to [batch] transactions.  Returns
   whether the tenant still has work, so the shard loop can drop it. *)
let step spec st =
  let n = min spec.batch (spec.txns - Driver.submitted st.driver) in
  for _ = 1 to n do
    ignore (Driver.step st.driver)
  done;
  Driver.submitted st.driver < spec.txns

let finish st =
  let d = st.driver in
  let engine = Cluster.engine (Driver.cluster d) in
  let counters = Engine.counters engine in
  {
    tenant = st.t_id;
    shard = 0;  (* stamped by the caller *)
    submitted = Driver.submitted d;
    committed = Driver.committed d;
    aborted = Driver.aborted d;
    events = counters.Engine.delivered + counters.Engine.timer_fired;
    virtual_ms = Vtime.to_ms (Engine.now engine);
    recovered = Driver.recovered d;
  }

(* Combine per-tenant log digests into one deterministic per-shard value
   (Per_tenant mode has no single byte stream to digest). *)
let combine_digests ds = List.fold_left (fun acc d -> Rng.mix (acc lxor d)) 0 ds

let run_shard spec ~shard ~make_sink ~telemetry =
  let tenants =
    List.filter (fun t -> t mod spec.shards = shard) (List.init spec.tenants Fun.id)
  in
  let shared_log, log_for =
    match spec.wal_mode with
    | Shared { group_size } ->
      let log = Shared_wal.create ~group_size () in
      (Some log, fun _tenant -> log)
    | Per_tenant ->
      let logs = Hashtbl.create 16 in
      ( None,
        fun tenant ->
          match Hashtbl.find_opt logs tenant with
          | Some log -> log
          | None ->
            let log = Shared_wal.create ~group_size:1 () in
            Hashtbl.replace logs tenant log;
            log )
  in
  let states =
    List.map
      (fun tenant ->
        let log = log_for tenant in
        let wal_factory ~site ~initial =
          Wal.create ~checkpoint_interval:64
            ~backing:(Shared_wal.attach log ~tenant ~site)
            ~initial ~num_items:spec.items ()
        in
        make_tenant spec ~tenant ~wal_factory:(Some wal_factory) ~obs:(make_sink tenant)
          ~telemetry)
      tenants
  in
  (* Round-robin quanta in tenant order: the shared log's record
     interleaving is fixed by this schedule, independent of -j and of
     wall-clock speed. *)
  let live = ref states in
  while !live <> [] do
    live := List.filter (fun st -> step spec st) !live
  done;
  let wal_stats =
    match shared_log with
    | Some log ->
      Shared_wal.flush log;
      Shared_wal.stats log
    | None ->
      let per_tenant =
        List.map
          (fun tenant ->
            let log = log_for tenant in
            Shared_wal.flush log;
            Shared_wal.stats log)
          tenants
      in
      {
        Shared_wal.records = List.fold_left (fun a s -> a + s.Shared_wal.records) 0 per_tenant;
        flushes = List.fold_left (fun a s -> a + s.Shared_wal.flushes) 0 per_tenant;
        pages = List.fold_left (fun a s -> a + s.Shared_wal.pages) 0 per_tenant;
        bytes_logged = List.fold_left (fun a s -> a + s.Shared_wal.bytes_logged) 0 per_tenant;
        digest = combine_digests (List.map (fun s -> s.Shared_wal.digest) per_tenant);
      }
  in
  (List.map (fun st -> { (finish st) with shard }) states, wal_stats)

let run ?(make_sink = fun _ -> None) ?telemetry spec =
  let shard_ids = List.init spec.shards Fun.id in
  let f shard = run_shard spec ~shard ~make_sink ~telemetry in
  let shard_results =
    match telemetry with
    | Some _ ->
      (* One registry cannot be mutated from parallel domains; keep the
         whole run on the calling domain.  Results are identical either
         way — Pool.map is order-preserving and shards are independent. *)
      List.map f shard_ids
    | None -> Pool.map f shard_ids
  in
  let results =
    Array.init spec.tenants (fun tenant ->
        let per_shard, _ = List.nth shard_results (tenant mod spec.shards) in
        List.find (fun r -> r.tenant = tenant) per_shard)
  in
  let wal = Array.of_list (List.map snd shard_results) in
  { run_spec = spec; results; wal }

let total_events r = Array.fold_left (fun a t -> a + t.events) 0 r.results
let total_committed r = Array.fold_left (fun a t -> a + t.committed) 0 r.results
let total_aborted r = Array.fold_left (fun a t -> a + t.aborted) 0 r.results

let csv r =
  let buf = Buffer.create (64 * (Array.length r.results + Array.length r.wal)) in
  Buffer.add_string buf "tenant,shard,submitted,committed,aborted,events,virtual_ms,recovered\n";
  Array.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%.3f,%d\n" t.tenant t.shard t.submitted t.committed
           t.aborted t.events t.virtual_ms t.recovered))
    r.results;
  Buffer.add_string buf "shard,wal_records,wal_flushes,wal_pages,wal_bytes,wal_digest\n";
  Array.iteri
    (fun shard (s : Shared_wal.stats) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%x\n" shard s.Shared_wal.records s.Shared_wal.flushes
           s.Shared_wal.pages s.Shared_wal.bytes_logged s.Shared_wal.digest))
    r.wal;
  Buffer.contents buf

let pp_summary ppf r =
  let s = r.run_spec in
  let wal_records = Array.fold_left (fun a (w : Shared_wal.stats) -> a + w.Shared_wal.records) 0 r.wal in
  let wal_flushes = Array.fold_left (fun a (w : Shared_wal.stats) -> a + w.Shared_wal.flushes) 0 r.wal in
  let wal_pages = Array.fold_left (fun a (w : Shared_wal.stats) -> a + w.Shared_wal.pages) 0 r.wal in
  Format.fprintf ppf
    "@[<v>%d tenants x %d sites (%d shards, %s wal)@,\
     txns: %d submitted, %d committed, %d aborted@,\
     events: %d   recoveries: %d@,\
     wal: %d records in %d flushes (%d pages, %.1f records/flush)@]"
    s.tenants s.sites s.shards
    (match s.wal_mode with
    | Shared { group_size } -> Printf.sprintf "shared/%d" group_size
    | Per_tenant -> "per-tenant")
    (Array.fold_left (fun a t -> a + t.submitted) 0 r.results)
    (total_committed r) (total_aborted r) (total_events r)
    (Array.fold_left (fun a t -> a + t.recovered) 0 r.results)
    wal_records wal_flushes wal_pages
    (if wal_flushes = 0 then 0.0 else float_of_int wal_records /. float_of_int wal_flushes)
