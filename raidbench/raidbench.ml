(* raidbench: the repository benchmark.

   Four workloads drive the system only through its public surface
   ([Cluster.create/submit/fail_site/recover_site], [Raid_multi.run],
   [Soak.create/tick] and HTTP), print every end-to-end metric with its
   unit and sample count, check the outputs, and exit non-zero when a
   check fails.  With [--trace] every other round is re-run with timers
   around each call into a layer (see [Ledger]) and the per-layer
   metrics are printed instead.

   A workload is measured in rounds.  Each round builds the system in a
   collected heap (timed: set-up), runs the first 10% of its stream as
   an untimed warm-up, times the rest, then checks correctness untimed.
   Every round replays the same seeded stream, so all rounds of a run —
   traced or not — must produce the same fingerprint.  Rounds repeat
   while another fits in [--seconds] (at least three; four with
   [--trace]).  Each end-to-end timing is the best round's (see
   [end_to_end]); every other metric is the median over rounds.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Invariant = Raid_core.Invariant
module Message = Raid_core.Message
module Metrics = Raid_core.Metrics
module Placement = Raid_core.Placement
module Site = Raid_core.Site
module Workload = Raid_core.Workload
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Wal = Raid_storage.Wal
module Shared_wal = Raid_storage.Shared_wal
module Json = Raid_obs.Json
module Prom = Raid_obs.Prom
module Telemetry = Raid_obs.Telemetry
module Trace = Raid_obs.Trace
module Soak = Raid_sim.Soak
module Pool = Raid_par.Pool
module Rng = Raid_util.Rng

let now_ns = Ledger.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* {1 Samples and statistics} *)

(* A growable flat float array: recording a sample allocates nothing. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Linear interpolation between closest ranks; 0 for no samples. *)
let percentile p samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let r = p *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 (Array.of_list xs)
let per x n = if n = 0 then 0.0 else x /. float_of_int n

(* {1 Layers}

   Ledger layers, by index: the benchmark's own loop, the engine (time
   inside [Cluster.submit] that no handler accounts for), the cluster's
   fail and recover calls (likewise), the soak's tick, the multi-tenant
   run, and one layer per [Site] handler event kind. *)

let l_driver = 0
let l_engine = 1
let l_fail = 2
let l_recover = 3
let l_soak = 4
let l_multi = 5
let first_kind = 6

(* The message kinds these workloads deliver, named as [Message.kind]
   names them.  Everything they never produce (aborts, bounce
   notifications, timers, graceful termination, control-3 backups,
   in-doubt status probes) shares [other]. *)
let kinds =
  [|
    "begin_txn"; "prepare"; "prepare_ack"; "commit"; "commit_ack"; "copy_request"; "copy_reply";
    "copy_unavailable"; "faillocks_cleared"; "recover_command"; "failure_noticed";
    "failure_announce"; "recovery_announce"; "recovery_state"; "faillock_hint"; "other";
  |]

let kind_index : Message.t Engine.event -> int = function
  | Engine.Send_failed _ | Engine.Timer _ -> 15
  | Engine.Message { payload; _ } -> (
    match payload with
    | Message.Begin_txn _ -> 0
    | Prepare _ -> 1
    | Prepare_ack _ -> 2
    | Commit _ -> 3
    | Commit_ack _ -> 4
    | Copy_request _ -> 5
    | Copy_reply _ -> 6
    | Copy_unavailable _ -> 7
    | Faillocks_cleared _ -> 8
    | Recover_command -> 9
    | Failure_noticed _ -> 10
    | Failure_announce _ -> 11
    | Recovery_announce _ -> 12
    | Recovery_state _ -> 13
    | Faillock_hint _ -> 14
    | Abort _ | Terminate_command | Departure_announce _ | Backup_copy _ | Txn_status_request _
    | Txn_status_reply _ ->
      15)

let num_layers = first_kind + Array.length kinds

(* Re-register every site's handler behind a timer that charges the
   call to its event kind. *)
let wrap_handlers ledger cluster =
  let engine = Cluster.engine cluster in
  for id = 0 to Cluster.num_sites cluster - 1 do
    let handler = Site.handler (Cluster.site cluster id) in
    Engine.register engine id (fun ctx event ->
        let prev = Ledger.enter ledger (first_kind + kind_index event) in
        handler ctx event;
        Ledger.leave ledger prev)
  done

(* Run [f] charged to [layer] when tracing. *)
let in_layer ledger layer f =
  match ledger with
  | None -> f ()
  | Some l ->
    let prev = Ledger.enter l layer in
    let r = f () in
    Ledger.leave l prev;
    r

(* {1 Rounds} *)

(* Counters snapshotted at the start and end of the timed region. *)
type snap = {
  events : int;
  messages : int;
  undeliverable : int;
  words : float;  (* minor words allocated by the system's domains *)
  gc : Gc.stat;
  copier_requests : int;
  copier_items : int;
  faillocks_set : int;
  faillocks_cleared : int;
  aborted : int;
  wal : Shared_wal.stats option;
  checkpoints : int;
}

type round = {
  traced : bool;
  setup_s : float;
  wall_ns : int;  (* timed region *)
  before : snap;
  after : snap;
  txns : int;  (* transactions completed in the timed region *)
  round_txns : int;  (* transactions submitted over the whole round *)
  ops : int;  (* operations attempted over the whole round *)
  failed_ops : int;
  queue_high_water : int;
  retained_bytes_per_txn : float;
  lat_ms : float array;  (* per-transaction wall time, timed region *)
  recover_ms : float array;
  tick_ms : float array;
  scrape_ms : float array;
  scrape_bytes : float;
  render_ms : float array;
  series : int;
  ledger : (int array * int array) option;  (* per-layer ns and calls *)
  fingerprint : string;
  errors : string list;
}

let live_bytes () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.live_words * (Sys.word_size / 8)

(* What every workload hands to [measure]: how to snapshot counters, and
   the pieces of the round, each returning what the next one needs. *)
type 'st workload_impl = {
  setup : traced:Ledger.t option -> 'st;
  snapshot : 'st -> snap;
  warmup : 'st -> unit;
  timed : 'st -> unit;
  finish : check:bool -> 'st -> round -> round;
      (* teardown, fingerprint, extra samples; with [check], also the
         invariant checks, which cost as much as a short round *)
}

let empty_snap () =
  {
    events = 0;
    messages = 0;
    undeliverable = 0;
    words = Gc.minor_words ();
    gc = Gc.quick_stat ();
    copier_requests = 0;
    copier_items = 0;
    faillocks_set = 0;
    faillocks_cleared = 0;
    aborted = 0;
    wal = None;
    checkpoints = 0;
  }

let cluster_snap ?wal cluster =
  let c = Engine.counters (Cluster.engine cluster) in
  let m = Cluster.metrics cluster in
  let checkpoints = ref 0 in
  for id = 0 to Cluster.num_sites cluster - 1 do
    match Site.wal (Cluster.site cluster id) with
    | Some w -> checkpoints := !checkpoints + Wal.checkpoints_taken w
    | None -> ()
  done;
  {
    (empty_snap ()) with
    events = c.Engine.delivered + c.Engine.timer_fired;
    messages = c.Engine.sent;
    undeliverable = c.Engine.undeliverable;
    copier_requests = m.Metrics.copier_requests;
    copier_items = m.Metrics.copier_items_refreshed;
    faillocks_set = m.Metrics.faillocks_set;
    faillocks_cleared = m.Metrics.faillocks_cleared;
    aborted = m.Metrics.txns_aborted;
    wal = Option.map Shared_wal.stats wal;
    checkpoints = !checkpoints;
  }

(* Rounds start from a heap holding nothing of the previous round.  A
   full major collection rather than a compaction: compaction hands the
   memory back to the OS, and re-faulting hundreds of megabytes each
   round made the timings depend on the host's memory pressure. *)
let measure impl ~traced ~check =
  Gc.full_major ();
  let ledger = if traced then Some (Ledger.create num_layers) else None in
  let t0 = now_ns () in
  let st = impl.setup ~traced:ledger in
  let setup_s = s_of_ns (now_ns () - t0) in
  (* Only traced rounds report retained bytes, but every round pays this
     collection so traced and untraced rounds start their streams from
     the same heap state. *)
  let live0 = live_bytes () in
  impl.warmup st;
  let s0 = impl.snapshot st in
  let t_begin = now_ns () in
  Option.iter (fun l -> Ledger.start l l_driver) ledger;
  impl.timed st;
  Option.iter Ledger.stop ledger;
  let wall_ns = now_ns () - t_begin in
  let s1 = impl.snapshot st in
  let round =
    {
      traced;
      setup_s;
      wall_ns;
      before = s0;
      after = s1;
      txns = 0;
      round_txns = 0;
      ops = 0;
      failed_ops = 0;
      queue_high_water = 0;
      retained_bytes_per_txn = 0.0;
      lat_ms = [||];
      recover_ms = [||];
      tick_ms = [||];
      scrape_ms = [||];
      scrape_bytes = 0.0;
      render_ms = [||];
      series = 0;
      ledger = Option.map (fun (l : Ledger.t) -> (l.Ledger.ns, l.Ledger.calls)) ledger;
      fingerprint = "";
      errors = [];
    }
  in
  let round = impl.finish ~check st round in
  let retained = if traced then live_bytes () - live0 else 0 in
  ignore (Sys.opaque_identity st);
  let partition_errors =
    match ledger with
    | None -> []
    | Some l ->
      (* The ledger's intervals must cover the timed region: its total
         against the wall time measured by independent clock reads. *)
      let err = Float.abs (float_of_int (Ledger.total l - wall_ns)) /. float_of_int wall_ns in
      if err > 0.01 then
        [ Printf.sprintf "layer partition off by %.2f%% of wall time" (100.0 *. err) ]
      else []
  in
  {
    round with
    retained_bytes_per_txn = per (float_of_int retained) round.round_txns;
    errors = round.errors @ partition_errors;
  }

(* {1 The closed-loop client (steady-64, churn-128)} *)

type client = {
  cluster : Cluster.t;
  shared_wal : Shared_wal.t option;
  rng : Rng.t;
  fault_rng : Rng.t;
  workload : Workload.t;
  ledger : Ledger.t option;
  mutable operational : int list;
  mutable timing : bool;
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable timed_txns : int;
  mutable recoveries : int;
  mutable blocked : int;
  lat : Samples.t;
  recover_lat : Samples.t;
}

let refresh c =
  c.operational <-
    List.filter
      (fun s -> not (Site.is_waiting (Cluster.site c.cluster s)))
      (Cluster.alive_sites c.cluster)

let make_client ?shared_wal ~ledger ~seed ~spec cluster =
  let config = Cluster.config cluster in
  let rng = Rng.create seed in
  let workload = Workload.create spec ~num_items:config.Config.num_items ~rng:(Rng.split rng) in
  let c =
    {
      cluster;
      shared_wal;
      rng;
      fault_rng = Rng.split rng;
      workload;
      ledger;
      operational = [];
      timing = false;
      submitted = 0;
      committed = 0;
      aborted = 0;
      timed_txns = 0;
      recoveries = 0;
      blocked = 0;
      lat = Samples.create ();
      recover_lat = Samples.create ();
    }
  in
  Option.iter (fun l -> wrap_handlers l cluster) ledger;
  refresh c;
  c

let submit_one c =
  let coordinator = Rng.choose c.rng c.operational in
  let txn = Workload.next c.workload ~id:(Cluster.next_txn_id c.cluster) in
  let t0 = now_ns () in
  let outcome =
    match c.ledger with
    | None -> Cluster.submit c.cluster ~coordinator txn
    | Some l ->
      let prev = Ledger.enter l l_engine in
      let o = Cluster.submit c.cluster ~coordinator txn in
      Ledger.leave l prev;
      o
  in
  if c.timing then begin
    Samples.add c.lat (ms_of_ns (now_ns () - t0));
    c.timed_txns <- c.timed_txns + 1
  end;
  c.submitted <- c.submitted + 1;
  if outcome.Metrics.committed then c.committed <- c.committed + 1 else c.aborted <- c.aborted + 1

let fail c site =
  in_layer c.ledger l_fail (fun () -> Cluster.fail_site c.cluster site);
  refresh c

let recover c site =
  let t0 = now_ns () in
  let result = in_layer c.ledger l_recover (fun () -> Cluster.recover_site c.cluster site) in
  if c.timing then Samples.add c.recover_lat (ms_of_ns (now_ns () - t0));
  c.recoveries <- c.recoveries + 1;
  (match result with `Recovered -> () | `Blocked -> c.blocked <- c.blocked + 1);
  refresh c

let check name = function Ok () -> [] | Error e -> [ Printf.sprintf "%s: %s" name e ]

let client_finish ~staleness ~check:full c (r : round) =
  let engine = Cluster.engine c.cluster in
  let counters = Engine.counters engine in
  let wal_digest =
    match c.shared_wal with
    | None -> 0
    | Some w ->
      Shared_wal.flush w;
      (Shared_wal.stats w).Shared_wal.digest
  in
  let fingerprint =
    Printf.sprintf "events=%d sent=%d committed=%d aborted=%d vms=%.3f wal=%x recoveries=%d"
      (counters.Engine.delivered + counters.Engine.timer_fired)
      counters.Engine.sent c.committed c.aborted
      (Vtime.to_ms (Engine.now engine))
      wal_digest c.recoveries
  in
  let errors =
    (if c.committed + c.aborted <> c.submitted then
       [
         Printf.sprintf "committed %d + aborted %d <> submitted %d" c.committed c.aborted
           c.submitted;
       ]
     else [])
    @ (if c.blocked > 0 then [ Printf.sprintf "%d recoveries blocked" c.blocked ] else [])
    @ (match Cluster.knowledge_loss_events c.cluster with
      | 0 -> []
      | n -> [ Printf.sprintf "%d fail-lock facts lost with their last witness" n ])
    @
    if not full then []
    else
      check "no_stale_reads" (Invariant.no_stale_reads c.cluster)
      @ check "session_vectors_sane" (Invariant.session_vectors_sane c.cluster)
      @
      if staleness then
        check "faillocks_track_staleness" (Invariant.faillocks_track_staleness c.cluster)
      else []
  in
  {
    r with
    txns = c.timed_txns;
    round_txns = c.submitted;
    ops = c.submitted + c.recoveries;
    failed_ops = c.aborted + c.blocked;
    queue_high_water = Engine.heap_high_water engine;
    lat_ms = Samples.to_array c.lat;
    recover_ms = Samples.to_array c.recover_lat;
    fingerprint;
    errors = r.errors @ errors;
  }

(* Runs transactions [from, until) of a stream whose fault schedule is
   [before i], called ahead of transaction [i]. *)
let run_stream c ~before ~from ~until =
  for i = from to until - 1 do
    before c i;
    submit_one c
  done

let client_impl ~setup ~txns ~before ~staleness =
  let warm = txns / 10 in
  {
    setup;
    snapshot = (fun c -> cluster_snap ?wal:c.shared_wal c.cluster);
    warmup = (fun c -> run_stream c ~before ~from:0 ~until:warm);
    timed =
      (fun c ->
        c.timing <- true;
        run_stream c ~before ~from:warm ~until:txns;
        c.timing <- false);
    finish = client_finish ~staleness;
  }

(* {1 Workloads} *)

type size = { quick : bool; seed : int }

(* steady-64: the write-all-available path at its widest fan-out.  Full
   replication, in memory, 64 sites; site 0 is down for the middle
   stretch of the stream, so most of the run is 2PC over 63 or 64
   participants and the recovered site then refreshes through copiers.
   Every site's update log grows with each commit, so rounds stay short
   to keep the heap, and the major GC's share of each round, small. *)
let steady size =
  let txns = if size.quick then 100 else 3_000 in
  let config = Config.make ~num_sites:64 ~num_items:5_000 () in
  let setup ~traced =
    make_client ~ledger:traced ~seed:size.seed
      ~spec:(Workload.Uniform { max_ops = 5; write_prob = 0.5 })
      (Cluster.create config)
  in
  let before c i = if i = txns / 5 then fail c 0 else if i = txns / 2 then recover c 0 in
  client_impl ~setup ~txns ~before ~staleness:true

(* churn-128: the paper's subject at scale.  k=3 hash placement over 128
   sites, zipf-skewed items, durable WALs group-committed through one
   shared log; every 80th transaction crashes a random operational site
   and recovers it 40 transactions later.

   Victims are drawn from every fourth site only.  Replica sets are three
   consecutive sites, so no two victims ever hold the same item: when
   two holders of an item recover in turn while a third is stale, each
   control-1 install can drop the fact that the third is stale (the
   donor does not hold the item), and a later read there is stale.  That
   is a protocol bug, not a benchmark choice; until it is fixed this
   schedule keeps every seed's checks meaningful and passing. *)
let churn size =
  let txns = if size.quick then 160 else 3_000 in
  let items = if size.quick then 2_000 else 20_000 in
  let config =
    Config.make ~num_sites:128 ~num_items:items
      ~replication:(Config.Partial (Placement.spec ~factor:3 ()))
      ~durability:(Config.Durable_wal { checkpoint_interval = 64 })
      ()
  in
  let setup ~traced =
    let log = Shared_wal.create ~group_size:64 () in
    let wal_factory ~site ~initial =
      Wal.create ~checkpoint_interval:64
        ~backing:(Shared_wal.attach log ~tenant:0 ~site)
        ~initial ~num_items:items ()
    in
    make_client ~shared_wal:log ~ledger:traced ~seed:size.seed
      ~spec:(Workload.Zipfian { max_ops = 5; write_prob = 0.5; theta = 0.9 })
      (Cluster.of_spec (Cluster.Spec.make ~wal_factory config))
  in
  let down = ref None in
  let before c i =
    match !down with
    | Some site when i mod 80 = 40 ->
      down := None;
      recover c site
    | None when i mod 80 = 0 && i > 0 ->
      let site = Rng.choose c.fault_rng (List.filter (fun s -> s mod 4 = 0) c.operational) in
      down := Some site;
      fail c site
    | _ -> ()
  in
  client_impl ~setup ~txns ~before ~staleness:false

(* multi-200: many small clusters in one process.  200 tenants of 8 sites
   over 8 shards and one group-committed shared WAL per shard.  The shards
   run on one domain, one after another: fanned over the two cores of a
   small host, their timings followed the scheduler and the host's
   other load, not the program.  Set-up is inside
   [Raid_multi.run]; it is measured as a run of one transaction per
   tenant, which also serves as the warm-up. *)
type multi_state = {
  spec : Raid_multi.spec;
  m_ledger : Ledger.t option;
  last : int array;  (* per shard: when its previous outcome was seen *)
  gaps : Samples.t array;  (* per shard; shards never share a domain *)
  outcomes : int array;
  mutable result : Raid_multi.result option;
}

let multi size =
  let tenants = 200 and shards = 8 in
  let txns = if size.quick then 8 else 200 in
  let spec =
    Raid_multi.spec ~tenants ~shards ~sites:8 ~items:64 ~txns ~seed:size.seed
      ~wal_mode:(Raid_multi.Shared { group_size = 64 })
      ~fail_every:10 ()
  in
  (* The wall time between a shard's successive transaction outcomes is
     that transaction's wall time: a shard runs its tenants serially. *)
  let make_sink st tenant =
    let shard = tenant mod shards in
    Some
      {
        Trace.emit =
          (fun ~at:_ ~site:_ event ->
            match event with
            | Trace.Txn_commit _ | Trace.Txn_abort _ ->
              let now = now_ns () in
              if st.last.(shard) > 0 then
                Samples.add st.gaps.(shard) (ms_of_ns (now - st.last.(shard)));
              st.last.(shard) <- now;
              st.outcomes.(shard) <- st.outcomes.(shard) + 1
            | _ -> ());
      }
  in
  let run st spec =
    Array.fill st.last 0 shards 0;
    Array.fill st.outcomes 0 shards 0;
    Array.iteri (fun i _ -> st.gaps.(i) <- Samples.create ()) st.gaps;
    Raid_multi.run ~make_sink:(make_sink st) spec
  in
  let setup ~traced =
    let st =
      {
        spec;
        m_ledger = traced;
        last = Array.make shards 0;
        gaps = Array.init shards (fun _ -> Samples.create ());
        outcomes = Array.make shards 0;
        result = None;
      }
    in
    ignore (run st { spec with Raid_multi.txns = 1; fail_every = 0 });
    st
  in
  (* Before the timed run there is no result, so every count is zero;
     the shards' logs are summed into one. *)
  let snapshot st =
    let shard_logs = match st.result with Some r -> r.Raid_multi.wal | None -> [||] in
    let sum f = Array.fold_left (fun a w -> a + f w) 0 shard_logs in
    {
      (empty_snap ()) with
      words = (Gc.quick_stat ()).Gc.minor_words;
      events = Option.fold ~none:0 ~some:Raid_multi.total_events st.result;
      aborted = Option.fold ~none:0 ~some:Raid_multi.total_aborted st.result;
      wal =
        Some
          {
            Shared_wal.records = sum (fun w -> w.Shared_wal.records);
            flushes = sum (fun w -> w.Shared_wal.flushes);
            pages = sum (fun w -> w.Shared_wal.pages);
            bytes_logged = sum (fun w -> w.Shared_wal.bytes_logged);
            digest = 0;
          };
    }
  in
  let finish ~check:_ st (r : round) =
    match st.result with
    | None -> { r with errors = [ "multi-200: no result" ] }
    | Some res ->
      let sum f = Array.fold_left (fun a t -> a + f t) 0 res.Raid_multi.results in
      let submitted = sum (fun t -> t.Raid_multi.submitted) in
      let committed = Raid_multi.total_committed res and aborted = Raid_multi.total_aborted res in
      let recovered = sum (fun t -> t.Raid_multi.recovered) in
      let planned = (tenants + 9) / 10 in
      let seen = Array.fold_left ( + ) 0 st.outcomes in
      let errors =
        (if submitted <> tenants * txns || committed + aborted <> submitted then
           [ Printf.sprintf "submitted %d, committed %d, aborted %d" submitted committed aborted ]
         else [])
        @ (if recovered <> planned then [ Printf.sprintf "%d of %d recoveries" recovered planned ]
           else [])
        @
        if seen <> submitted then [ Printf.sprintf "sinks saw %d outcomes of %d" seen submitted ]
        else []
      in
      {
        r with
        txns = submitted;
        round_txns = submitted;
        ops = submitted + planned;
        failed_ops = aborted + (planned - recovered);
        lat_ms = Array.concat (Array.to_list (Array.map Samples.to_array st.gaps));
        fingerprint = Digest.to_hex (Digest.string (Raid_multi.csv res));
        errors = r.errors @ errors;
      }
  in
  {
    setup;
    snapshot;
    warmup = (fun _ -> ());
    timed = (fun st -> st.result <- Some (in_layer st.m_ledger l_multi (fun () -> run st st.spec)));
    finish;
  }

(* {2 serve-16} *)

(* A blocking HTTP/1.1 request over a fresh loopback connection (the
   server closes every connection after one response).  Returns the
   status code and the whole response, or an error. *)
let http_request ~port ~meth path =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    let result =
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req =
          Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 0\r\n\r\n" meth path
        in
        ignore (Unix.write_substring fd req 0 (String.length req));
        Ok fd
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    in
    if Result.is_error result then Unix.close fd;
    result)

let http_response fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec read () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Ok ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      read ()
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let r = read () in
  Unix.close fd;
  match r with
  | Error e -> Error e
  | Ok () -> (
    let body = Buffer.contents buf in
    match String.split_on_char ' ' body with
    | _ :: code :: _ -> (
      match int_of_string_opt code with Some c -> Ok (c, body) | None -> Error "bad status line")
    | _ -> Error "empty response")

type serve_state = {
  soak : Soak.t;
  s_ledger : Ledger.t option;
  s_rng : Rng.t;
  mutable ticks : int;
  mutable s_timing : bool;
  mutable last_outcome : int;
  mutable posts : int;
  mutable post_errors : string list;
  mutable recoveries : int;
  mutable down : int option;
  s_lat : Samples.t;
  ticks_ms : Samples.t;
  scrape_ms : Samples.t;
  mutable scrape_bytes : int;
  mutable scrapes_ok : int;
  mutable scrapes_bad : int;
}

(* serve-16: the live surface.  A 16-site soak with telemetry and the
   recovery observatory on, admitting as fast as it can ([accel 0],
   64-transaction ticks), scraped over HTTP once per tick; an operator
   fails a site and recovers it through the HTTP API every 60 ticks, so
   incident recording and the POST handlers carry load too.

   The scraping client runs on the simulation's own domain: it sends
   [GET /metrics] before a tick, whose HTTP poll answers it, and reads
   the response after.  A client on a second domain would make every
   minor collection stop both domains, and on a host with two cores its
   timings followed the scheduler rather than the soak.  The scrape
   count is then fixed, one per tick, and a scrape's latency is what a
   client sees when its request lands as an admission batch begins.
   Rounds stay short because the soak's telemetry series grow with every
   sample (about 13 KB retained per transaction). *)
let serve size =
  let ticks = if size.quick then 20 else 240 in
  let period = if size.quick then 10 else 60 in
  let setup ~traced =
    let soak =
      Soak.create (Soak.make_config ~sites:16 ~items:500 ~accel:0.0 ~seed:size.seed ~port:0 ())
    in
    let st =
      {
        soak;
        s_ledger = traced;
        s_rng = Rng.create (Rng.mix size.seed);
        ticks = 0;
        s_timing = false;
        last_outcome = 0;
        posts = 0;
        post_errors = [];
        recoveries = 0;
        down = None;
        s_lat = Samples.create ();
        ticks_ms = Samples.create ();
        scrape_ms = Samples.create ();
        scrape_bytes = 0;
        scrapes_ok = 0;
        scrapes_bad = 0;
      }
    in
    let cluster = Soak.cluster soak in
    Option.iter (fun l -> wrap_handlers l cluster) traced;
    (* Transactions run serially on this domain, so the wall time
       between successive outcomes is one transaction's wall time,
       including any HTTP work the soak did in between. *)
    Cluster.set_outcome_hook cluster
      (Some
         (fun _ ->
           let now = now_ns () in
           if st.s_timing then Samples.add st.s_lat (ms_of_ns (now - st.last_outcome));
           st.last_outcome <- now));
    st
  in
  (* An operator action: the request is sent before the tick whose HTTP
     poll answers it, so it lands after a fixed number of admissions. *)
  let post st path ~expect =
    st.posts <- st.posts + 1;
    match http_request ~port:(Soak.port st.soak) ~meth:"POST" path with
    | Error e -> fun () -> st.post_errors <- (path ^ ": " ^ e) :: st.post_errors
    | Ok fd ->
      fun () ->
        match http_response fd with
        | Ok (200, body) when expect body -> ()
        | Ok (code, _) ->
          st.post_errors <- Printf.sprintf "%s: status %d" path code :: st.post_errors
        | Error e -> st.post_errors <- (path ^ ": " ^ e) :: st.post_errors
  in
  (* A scrape, sent and answered the same way. *)
  let scrape st =
    let t0 = now_ns () in
    let failed () = st.scrapes_bad <- st.scrapes_bad + 1 in
    match http_request ~port:(Soak.port st.soak) ~meth:"GET" "/metrics" with
    | Error _ -> failed
    | Ok fd ->
      fun () ->
        match http_response fd with
        | Ok (200, body) ->
          if st.s_timing then Samples.add st.scrape_ms (ms_of_ns (now_ns () - t0));
          st.scrape_bytes <- st.scrape_bytes + String.length body;
          st.scrapes_ok <- st.scrapes_ok + 1
        | Ok _ | Error _ -> failed ()
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let tick st =
    let after =
      if st.ticks > 0 && st.ticks mod period = 0 then begin
        let site = 1 + Rng.int st.s_rng 15 in
        st.down <- Some site;
        post st (Printf.sprintf "/sites/%d/fail" site) ~expect:(fun b ->
            contains b "\"alive\":false")
      end
      else if st.ticks mod period = period / 2 then
        match st.down with
        | Some site ->
          st.down <- None;
          st.recoveries <- st.recoveries + 1;
          post st (Printf.sprintf "/sites/%d/recover" site) ~expect:(fun b ->
              contains b "\"result\":\"recovered\"")
        | None -> ignore
      else ignore
    in
    let scraped = scrape st in
    let t0 = now_ns () in
    in_layer st.s_ledger l_soak (fun () -> Soak.tick st.soak);
    if st.s_timing then Samples.add st.ticks_ms (ms_of_ns (now_ns () - t0));
    st.ticks <- st.ticks + 1;
    after ();
    scraped ()
  in
  let warm = ticks / 10 in
  let snapshot st = cluster_snap (Soak.cluster st.soak) in
  let finish ~check:full st (r : round) =
    Soak.stop st.soak;
    let summary = Soak.shutdown st.soak in
    let cluster = Soak.cluster st.soak in
    let reg = Soak.registry st.soak in
    let render_ms =
      Array.init 16 (fun _ ->
          let t0 = now_ns () in
          ignore (Sys.opaque_identity (Prom.render reg));
          ms_of_ns (now_ns () - t0))
    in
    let counters = Engine.counters (Cluster.engine cluster) in
    let expected = ticks * 64 in
    let errors =
      (if summary.Soak.submitted <> expected
          || summary.Soak.committed + summary.Soak.aborted <> summary.Soak.submitted
       then
         [
           Printf.sprintf "submitted %d (expected %d), committed %d, aborted %d"
             summary.Soak.submitted expected summary.Soak.committed summary.Soak.aborted;
         ]
       else [])
      @ List.rev st.post_errors
      @ (if st.scrapes_bad > 0 then [ Printf.sprintf "%d scrapes failed" st.scrapes_bad ] else [])
      @
      if not full then []
      else
        check "no_stale_reads" (Invariant.no_stale_reads cluster)
        @ check "session_vectors_sane" (Invariant.session_vectors_sane cluster)
        @ check "faillocks_track_staleness" (Invariant.faillocks_track_staleness cluster)
    in
    {
      r with
      txns = Samples.(st.s_lat.n);
      round_txns = summary.Soak.submitted;
      ops = summary.Soak.submitted + st.posts + st.scrapes_ok + st.scrapes_bad;
      failed_ops = summary.Soak.aborted + List.length st.post_errors + st.scrapes_bad;
      queue_high_water = Engine.heap_high_water (Cluster.engine cluster);
      lat_ms = Samples.to_array st.s_lat;
      tick_ms = Samples.to_array st.ticks_ms;
      scrape_ms = Samples.to_array st.scrape_ms;
      scrape_bytes = per (float_of_int st.scrape_bytes) st.scrapes_ok;
      render_ms;
      series = List.length (Telemetry.views reg);
      fingerprint =
        Printf.sprintf "events=%d sent=%d committed=%d aborted=%d vms=%.3f recoveries=%d"
          (counters.Engine.delivered + counters.Engine.timer_fired)
          counters.Engine.sent summary.Soak.committed summary.Soak.aborted summary.Soak.virtual_ms
          st.recoveries;
      errors = r.errors @ errors;
    }
  in
  {
    setup;
    snapshot;
    warmup =
      (fun st ->
        for _ = 1 to warm do
          tick st
        done);
    timed =
      (fun st ->
        st.s_timing <- true;
        st.last_outcome <- now_ns ();
        for _ = warm + 1 to ticks do
          tick st
        done;
        st.s_timing <- false);
    finish;
  }

(* {1 Workload table} *)

type workload = { name : string; why : string; round : size -> traced:bool -> check:bool -> round }

let pack impl size ~traced ~check = measure (impl size) ~traced ~check

let workloads =
  [
    {
      name = "steady-64";
      why =
        "full replication over 64 sites with one outage: 2PC fan-out and the engine queue, no \
         storage or observer";
      round = pack steady;
    };
    {
      name = "churn-128";
      why =
        "k=3 over 128 sites, durable WALs on a shared log, a crash every 80 txns: checkpoints, \
         replay and recovery";
      round = pack churn;
    };
    {
      name = "multi-200";
      why =
        "200 eight-site tenants on 8 shards and shared WALs: the only load on Raid_multi and group \
         commit";
      round = pack multi;
    };
    {
      name = "serve-16";
      why =
        "live soak scraped over HTTP with operator fail/recover: the only load on telemetry, Prom, \
         HTTP, incidents";
      round = pack serve;
    };
  ]

(* {1 Metrics} *)

type metric = { m_name : string; unit : string; value : float; n : int }

let metric m_name unit value n = { m_name; unit; value; n }

let delta f r = f r.after - f r.before
let events s = s.events

(* Every round replays the same stream, so its timings differ from
   another round's only by what the host did meanwhile, and the host
   only ever slows a round down: on a shared machine, neighbours slow
   cache- and memory-heavy work by up to 40% for seconds to minutes at a
   time.  So each timing is the best over the untraced rounds of that
   round's value (latency percentiles too): the least disturbed round.
   A median over rounds still followed the host whenever a disturbance
   outlasted half a run.  Memory metrics are the median.

   The tail is p99.5, the highest percentile with at least ten samples
   beyond it in every workload's round.  On multi-200, p99 sat on the
   edge of a slow mode holding about 1% of transactions (p98 0.03 ms,
   p99.5 0.27 ms), so a round's p99 jumped between the two modes and
   the best round's with it.  [n] is the number of rounds, or for
   latency the transactions timed per round. *)
let end_to_end rounds =
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let k = List.length untraced in
  let values f = List.map f untraced in
  let med f = median (values f) in
  let least f = List.fold_left Float.min infinity (values f) in
  let most f = List.fold_left Float.max neg_infinity (values f) in
  let samples = match untraced with r :: _ -> Array.length r.lat_ms | [] -> 0 in
  [
    metric "setup_s" "s" (least (fun r -> r.setup_s)) k;
    metric "txn_per_s" "1/s" (most (fun r -> float_of_int r.txns /. s_of_ns r.wall_ns)) k;
    metric "events_per_s" "1/s"
      (most (fun r -> float_of_int (delta events r) /. s_of_ns r.wall_ns))
      k;
    metric "txn_ms_p50" "ms" (least (fun r -> percentile 0.5 r.lat_ms)) samples;
    metric "txn_ms_p995" "ms" (least (fun r -> percentile 0.995 r.lat_ms)) samples;
    metric "alloc_words_per_txn" "words/txn"
      (med (fun r -> per (r.after.words -. r.before.words) r.txns))
      k;
    metric "heap_mb" "MB"
      (med (fun r -> float_of_int (r.after.gc.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0))
      k;
  ]

(* Tracing overhead from each traced round against the untraced round
   just before it, so host drift across the run cancels out. *)
let rec overheads = function
  | u :: t :: rest when t.traced && not u.traced ->
    ((float_of_int t.wall_ns /. float_of_int u.wall_ns) -. 1.0) :: overheads rest
  | _ :: rest -> overheads rest
  | [] -> []

let per_layer rounds =
  let traced = List.filter (fun r -> r.traced) rounds in
  let k = List.length traced in
  (* [m]: the median over traced rounds of a per-round value; [pooled]: a
     percentile over the samples of all traced rounds. *)
  let m name unit f = metric name unit (median (List.map f traced)) k in
  let pooled name unit p f =
    let xs = Array.concat (List.map f traced) in
    metric name unit (percentile p xs) (Array.length xs)
  in
  let ns (r : round) layer =
    match r.ledger with Some (ns, _) -> float_of_int ns.(layer) | None -> 0.0
  in
  let calls (r : round) layer = match r.ledger with Some (_, c) -> c.(layer) | None -> 0 in
  let frac layer r = ns r layer /. float_of_int r.wall_ns in
  let self_ms layer r = per (ns r layer) (calls r layer) /. 1e6 in
  let d f r = float_of_int (delta f r) in
  let gc f r = f r.after.gc -. f r.before.gc in
  let wal f r =
    match (r.before.wal, r.after.wal) with Some a, Some b -> float_of_int (f b - f a) | _ -> 0.0
  in
  let per_txn f r = per (f r) r.txns in
  let per_ktxn f r = 1000.0 *. per_txn f r in
  let kind_metrics =
    List.concat
      (List.mapi
         (fun i kind ->
           let layer = first_kind + i in
           let name suffix = "site." ^ kind ^ suffix in
           [
             m (name ".ns_per_event") "ns" (fun r -> per (ns r layer) (calls r layer));
             m (name ".frac") "frac" (frac layer);
             m (name ".per_txn") "1/txn" (per_txn (fun r -> float_of_int (calls r layer)));
           ])
         (Array.to_list kinds))
  in
  [
    m "driver.self_frac" "frac" (frac l_driver);
    m "engine.self_frac" "frac" (frac l_engine);
    m "engine.events_per_txn" "1/txn" (per_txn (d events));
    m "engine.messages_per_txn" "1/txn" (per_txn (d (fun s -> s.messages)));
    m "engine.undeliverable_per_ktxn" "1/ktxn" (per_ktxn (d (fun s -> s.undeliverable)));
    m "engine.queue_high_water" "count" (fun r -> float_of_int r.queue_high_water);
    m "cluster.fail_self_ms" "ms" (self_ms l_fail);
    m "cluster.recover_self_ms" "ms" (self_ms l_recover);
    pooled "cluster.recover_ms_p50" "ms" 0.5 (fun r -> r.recover_ms);
    pooled "cluster.recover_ms_p90" "ms" 0.9 (fun r -> r.recover_ms);
    m "cluster.aborts_per_ktxn" "1/ktxn" (per_ktxn (d (fun s -> s.aborted)));
  ]
  @ kind_metrics
  @ [
      m "site.copier_requests_per_ktxn" "1/ktxn" (per_ktxn (d (fun s -> s.copier_requests)));
      m "site.copier_items_per_request" "1/request" (fun r ->
          per (d (fun s -> s.copier_items) r) (delta (fun s -> s.copier_requests) r));
      m "site.faillocks_set_per_ktxn" "1/ktxn" (per_ktxn (d (fun s -> s.faillocks_set)));
      m "site.faillocks_cleared_per_ktxn" "1/ktxn" (per_ktxn (d (fun s -> s.faillocks_cleared)));
      m "wal.checkpoints_per_ktxn" "1/ktxn" (per_ktxn (d (fun s -> s.checkpoints)));
      m "shared_wal.records_per_txn" "1/txn" (per_txn (wal (fun w -> w.Shared_wal.records)));
      m "shared_wal.bytes_per_txn" "B/txn" (per_txn (wal (fun w -> w.Shared_wal.bytes_logged)));
      m "shared_wal.flushes_per_ktxn" "1/ktxn" (per_ktxn (wal (fun w -> w.Shared_wal.flushes)));
      m "shared_wal.pages_per_ktxn" "1/ktxn" (per_ktxn (wal (fun w -> w.Shared_wal.pages)));
      m "multi.self_frac" "frac" (frac l_multi);
      m "soak.self_frac" "frac" (frac l_soak);
      pooled "soak.tick_ms_p50" "ms" 0.5 (fun r -> r.tick_ms);
      pooled "soak.tick_ms_p99" "ms" 0.99 (fun r -> r.tick_ms);
      pooled "http.scrape_ms_p50" "ms" 0.5 (fun r -> r.scrape_ms);
      pooled "http.scrape_ms_p99" "ms" 0.99 (fun r -> r.scrape_ms);
      m "http.bytes_per_scrape" "B" (fun r -> r.scrape_bytes);
      m "prom.render_ms_p50" "ms" (fun r -> percentile 0.5 r.render_ms);
      m "telemetry.series" "count" (fun r -> float_of_int r.series);
      m "gc.minor_collections_per_ktxn" "1/ktxn"
        (per_ktxn (gc (fun s -> float_of_int s.Gc.minor_collections)));
      m "gc.major_collections_per_ktxn" "1/ktxn"
        (per_ktxn (gc (fun s -> float_of_int s.Gc.major_collections)));
      m "gc.promoted_words_per_txn" "words/txn" (per_txn (gc (fun s -> s.Gc.promoted_words)));
      m "gc.retained_bytes_per_txn" "B/txn" (fun r -> r.retained_bytes_per_txn);
      metric "trace.overhead_frac" "frac" (median (overheads rounds)) k;
    ]

(* {1 Command line and reports} *)

type options = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable quick : bool;
  mutable json : string option;
}

let usage () =
  Printf.eprintf
    "usage: %s [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--quick]\n\
    \   [--json FILE]\n\
     workloads: %s\n"
    Sys.argv.(0)
    (String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let parse_args () =
  let o = { names = []; seed = 42; seconds = 10.0; trace = false; quick = false; json = None } in
  let rec go = function
    | [] -> ()
    | "--workload" :: name :: rest when List.exists (fun w -> w.name = name) workloads ->
      o.names <- o.names @ [ name ];
      go rest
    | "--seed" :: v :: rest when int_of_string_opt v <> None ->
      o.seed <- int_of_string v;
      go rest
    | "--seconds" :: v :: rest
      when Option.fold ~none:false ~some:(fun s -> s >= 0.0) (float_of_string_opt v) ->
      o.seconds <- float_of_string v;
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--quick" :: rest ->
      o.quick <- true;
      go rest
    | "--json" :: path :: rest ->
      o.json <- Some path;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if o.names = [] then o.names <- List.map (fun w -> w.name) workloads;
  o

(* Provenance: what was measured, where.  Outside a git checkout the
   revision and dirty flag are unknown. *)
let provenance o =
  let dirty =
    try
      let ic = Unix.open_process_in "git status --porcelain 2>/dev/null" in
      let changed = try ignore (input_line ic); true with End_of_file -> false in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> Json.Bool changed | _ -> Json.Null
    with _ -> Json.Null
  in
  let sha = Raid_obs.Build_info.revision () in
  Json.Obj
    [
      ("sha", if sha = "unknown" then Json.Null else Json.Str sha);
      ("dirty", dirty);
      ("nproc", Json.Int (Pool.recommended_domains ()));
      ("domains", Json.Int (Pool.default_domains ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("seed", Json.Int o.seed);
      ("seconds", Json.Float o.seconds);
      ("quick", Json.Bool o.quick);
      ("trace", Json.Bool o.trace);
    ]

let value_unit m = [ ("value", Json.Float m.value); ("unit", Json.Str m.unit) ]

let metrics_json ms =
  Json.Obj (List.map (fun m -> (m.m_name, Json.Obj (value_unit m @ [ ("n", Json.Int m.n) ]))) ms)

let () =
  let o = parse_args () in
  let size = { quick = o.quick; seed = o.seed } in
  let results =
    List.map
      (fun name ->
        let w = List.find (fun w -> w.name = name) workloads in
        let started = now_ns () in
        let min_rounds = if o.trace then 4 else 3 in
        (* After the minimum, start another round only if one more like
           the last still fits in the time budget. *)
        let rec go i last acc =
          let elapsed = s_of_ns (now_ns () - started) in
          if i >= min_rounds && elapsed +. last > o.seconds then List.rev acc
          else
            let t0 = now_ns () in
            (* Every round replays one stream and must match the first's
               fingerprint, so the invariants are checked on the first
               untraced and the first traced round only. *)
            let r = w.round size ~traced:(o.trace && i mod 2 = 1) ~check:(i < 2) in
            go (i + 1) (s_of_ns (now_ns () - t0)) (r :: acc)
        in
        let rounds = go 0 0.0 [] in
        let fingerprints = List.sort_uniq compare (List.map (fun r -> r.fingerprint) rounds) in
        let errors =
          List.concat_map (fun r -> r.errors) rounds
          @
          if List.length fingerprints > 1 then
            [ Printf.sprintf "rounds disagree: %s" (String.concat " | " fingerprints) ]
          else []
        in
        let e2e = end_to_end rounds in
        let layers = if o.trace then per_layer rounds else [] in
        Printf.printf "%s  (%d rounds: %s)\n" w.name (List.length rounds) w.why;
        List.iter
          (fun m -> Printf.printf "  %-34s %14.6g %-10s n=%d\n" m.m_name m.value m.unit m.n)
          (e2e @ layers);
        List.iter (fun f -> Printf.printf "fingerprint %s %s\n" w.name f) fingerprints;
        List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) (List.sort_uniq compare errors);
        Printf.printf "  checks: %s\n%!" (if errors = [] then "ok" else "FAILED");
        (w, rounds, e2e, layers, errors))
      o.names
  in
  let correct = List.for_all (fun (_, _, _, _, e) -> e = []) results in
  let total f =
    List.fold_left (fun a (_, rs, _, _, _) -> List.fold_left (fun a r -> a + f r) a rs) 0 results
  in
  let attempted = total (fun r -> r.ops) and failed = total (fun r -> r.failed_ops) in
  let single = List.length results = 1 in
  let contract_metrics =
    List.concat_map
      (fun (w, _, e2e, layers, _) ->
        List.map
          (fun m ->
            ((if single then m.m_name else w.name ^ "/" ^ m.m_name), Json.Obj (value_unit m)))
          (if o.trace then layers else e2e))
      results
  in
  Option.iter
    (fun path ->
      let report =
        Json.Obj
          [
            ("provenance", provenance o);
            ( "workloads",
              Json.Arr
                (List.map
                   (fun (w, rounds, e2e, layers, errors) ->
                     Json.Obj
                       [
                         ("name", Json.Str w.name);
                         ("rounds", Json.Int (List.length rounds));
                         ("correct", Json.Bool (errors = []));
                         ("errors", Json.Arr (List.map (fun e -> Json.Str e) errors));
                         ( "fingerprint",
                           Json.Str (match rounds with r :: _ -> r.fingerprint | [] -> "") );
                         ("end_to_end", metrics_json e2e);
                         ("per_layer", metrics_json layers);
                       ])
                   results) );
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string ~indent:true report);
      output_char oc '\n';
      close_out oc)
    o.json;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj contract_metrics);
          ]));
  if not correct then exit 1
