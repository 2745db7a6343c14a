module Engine = Raid_net.Engine
module Database = Raid_storage.Database
module Wal = Raid_storage.Wal
module Vtime = Raid_net.Vtime
module Telemetry = Raid_obs.Telemetry

let log_src = Logs.Src.create "raid.cluster" ~doc:"RAID managing site"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Spec = struct
  type wal_factory = site:int -> initial:Database.t -> Wal.t

  type t = {
    config : Config.t;
    trace : bool;
    obs : Raid_obs.Trace.sink option;
    telemetry : Raid_obs.Telemetry.t option;
    telemetry_labels : (string * string) list;
    wal_factory : wal_factory option;
  }

  let make ?(trace = false) ?obs ?telemetry ?(telemetry_labels = []) ?wal_factory config =
    { config; trace; obs; telemetry; telemetry_labels; wal_factory }
end

type stale_read = { reader : int; item : int; version : int; latest : int }

type t = {
  config : Config.t;
  engine : Message.t Engine.t;
  obs : Raid_obs.Trace.sink option;
  sites : Site.t array;
  metrics : Metrics.t;
  mutable last_outcome : Metrics.outcome option;
  mutable next_id : int;
  committed_versions : int array;
  mutable first_stale_read : stale_read option;
  mutable outcome_hook : (Metrics.outcome -> unit) option;
  mutable telemetry_observe : (Metrics.outcome -> unit) option;
  knowledge_lost : (int * int, unit) Hashtbl.t;
      (* (item, target): staleness facts whose last alive fail-lock
         witness crashed (the DESIGN.md §11 gap), recorded at the crash
         that removed the witness.  Append-only for the cluster's
         lifetime: the set documents that the hazard arose, not that it
         is still open. *)
  mutable knowledge_loss_events : int;
}

(* Wire a telemetry registry into every layer of this cluster: polled
   gauges over site state, counters fed by the engine's probe, polled
   counters over the protocol aggregates, and per-outcome latency
   histograms.  Everything registered here either polls on sample (a
   closure over existing state, zero steady-state cost) or is a single
   float store on the probe path — the run itself is never perturbed. *)
let attach_telemetry t registry ~extra_labels =
  let engine = t.engine in
  (* Prefix every series with the caller's labels (the multi-tenant
     engine passes [("tenant", n)]) so one registry can hold many
     clusters without (name, labels) collisions. *)
  let with_extra labels = extra_labels @ labels in
  (* Engine profile: events, messages and virtual handler time by
     payload kind, in arrays indexed by [Message.kind_index].  Counters
     are pre-registered for every kind in [Message.all_kinds] so all
     series are aligned from the first sample. *)
  let events_total =
    Telemetry.counter registry "raid_engine_events_total" ~labels:(with_extra [])
      ~help:"Engine events processed (deliveries, failure notifications, timer firings)"
  in
  let per_kind name help =
    let counters = Array.make Message.kind_count None in
    fun index ->
      match counters.(index) with
      | Some c -> c
      | None ->
        (* A kind outside [Message.all_kinds] (e.g. the partial-replication
           fail-lock hint): register its series on first use so the
           pre-registered set — and the goldens built on it — is unchanged
           for runs that never send one. *)
        let c =
          Telemetry.counter registry name
            ~labels:(with_extra [ ("kind", Message.kind_of_index index) ])
            ~help
        in
        counters.(index) <- Some c;
        c
  in
  let msg_counter =
    per_kind "raid_engine_messages_total" "Messages delivered, by payload kind"
  in
  let vtime_counter =
    per_kind "raid_engine_vtime_us_total"
      "Virtual handler time accumulated via the cost model, by payload kind (us)"
  in
  for index = 0 to Message.kind_count - 1 do
    if List.mem (Message.kind_of_index index) Message.all_kinds then begin
      ignore (msg_counter index);
      ignore (vtime_counter index)
    end
  done;
  Telemetry.gauge registry "raid_engine_queue_depth" ~labels:(with_extra [])
    ~help:"Pending events in the engine queue" (fun () ->
      float_of_int (Engine.pending_events engine));
  Telemetry.gauge registry "raid_engine_heap_high_water" ~labels:(with_extra [])
    ~help:"Highest event-queue depth observed since creation" (fun () ->
      float_of_int (Engine.heap_high_water engine));
  Telemetry.polled_counter registry "raid_engine_sent_total" ~labels:(with_extra [])
    ~help:"Messages submitted, including managing-site injections" (fun () ->
      float_of_int (Engine.counters engine).Engine.sent);
  Telemetry.polled_counter registry "raid_engine_undeliverable_total" ~labels:(with_extra [])
    ~help:"Arrivals at a dead site or severed link" (fun () ->
      float_of_int (Engine.counters engine).Engine.undeliverable);
  Telemetry.polled_counter registry "raid_knowledge_loss_total" ~labels:(with_extra [])
    ~help:
      "Staleness facts (item, site) whose last alive fail-lock witness crashed (DESIGN.md section 11 gap)"
    (fun () -> float_of_int t.knowledge_loss_events);
  (* Per-site gauges: the quantities the paper's figures track, sampled
     over virtual time instead of per transaction. *)
  Array.iter
    (fun site ->
      let own = Site.id site in
      let labels = with_extra [ ("site", string_of_int own) ] in
      Telemetry.gauge registry "raid_site_faillocks" ~labels
        ~help:"Items fail-locked for this site in its own table (its out-of-date copies)"
        (fun () -> float_of_int (Faillock.count_for (Site.faillocks site) ~site:own));
      Telemetry.gauge registry "raid_site_faillock_bits" ~labels
        ~help:"Set bits in this site's fail-lock table, over all items and sites"
        (fun () -> float_of_int (Faillock.total_locked (Site.faillocks site)));
      Telemetry.gauge registry "raid_site_pending_2pc" ~labels
        ~help:"Pending 2PC acknowledgements across in-flight coordinated transactions"
        (fun () -> float_of_int (Site.pending_2pc site));
      Telemetry.gauge registry "raid_site_buffered_prepares" ~labels
        ~help:"Participant-side phase-1 write sets awaiting the coordinator's decision"
        (fun () -> float_of_int (Site.buffered_prepares site));
      Telemetry.gauge registry "raid_site_session_up" ~labels
        ~help:"Sites this site believes operational (session-vector up-count)"
        (fun () -> float_of_int (Session.up_count (Site.vector site)));
      Telemetry.gauge registry "raid_site_alive" ~labels ~help:"1 while the site is up"
        (fun () -> if Engine.alive engine own then 1.0 else 0.0))
    t.sites;
  (* Protocol aggregates: every Metrics counter, polled through its
     own getter. *)
  List.iter
    (fun (name, get) ->
      Telemetry.polled_counter registry ("raid_" ^ name ^ "_total") ~labels:(with_extra [])
        ~help:"Cumulative protocol count (see Raid_core.Metrics)" (fun () ->
          float_of_int (get t.metrics)))
    Metrics.counters;
  let latency_help = "Virtual transaction latency at the coordinator, by outcome (ms)" in
  let commit_latency =
    Telemetry.histogram registry "raid_txn_latency_ms"
      ~labels:(with_extra [ ("outcome", "commit") ])
      ~help:latency_help
  in
  let abort_latency =
    Telemetry.histogram registry "raid_txn_latency_ms"
      ~labels:(with_extra [ ("outcome", "abort") ])
      ~help:latency_help
  in
  t.telemetry_observe <-
    Some
      (fun outcome ->
        let ms = Vtime.to_ms outcome.Metrics.elapsed in
        Telemetry.observe
          (if outcome.Metrics.committed then commit_latency else abort_latency)
          ms);
  Engine.set_probe engine
    (Some
       {
         Engine.on_event =
           (fun ~at:_ event ~cost ->
             Telemetry.incr events_total;
             let index =
               match event with
               | Engine.Message { payload; _ } ->
                 let index = Message.kind_index payload in
                 Telemetry.incr (msg_counter index);
                 index
               | Engine.Send_failed { payload; _ } | Engine.Timer payload ->
                 Message.kind_index payload
             in
             Telemetry.add (vtime_counter index) (float_of_int cost));
         on_advance = (fun ~at -> Telemetry.maybe_sample registry ~at);
       })

(* Fold one outcome, in completion order, into the committed-version
   history.  A committed read must return the newest version committed
   before it, or the reader's own write; the first that does not is kept
   for [Invariant.no_stale_reads], so no outcome has to be. *)
let record_outcome t outcome =
  if outcome.Metrics.committed then begin
    let reader = outcome.Metrics.txn.Txn.id in
    List.iter
      (fun (item, _value, version) ->
        let latest = t.committed_versions.(item) in
        if t.first_stale_read = None && version <> latest && version <> reader then
          t.first_stale_read <- Some { reader; item; version; latest })
      outcome.Metrics.reads;
    List.iter
      (fun { Database.item; version; _ } ->
        if version > t.committed_versions.(item) then t.committed_versions.(item) <- version)
      outcome.Metrics.writes
  end

let of_spec (spec : Spec.t) =
  let { Spec.config; trace; obs; telemetry; telemetry_labels; wal_factory } = spec in
  let metrics = Metrics.create () in
  let engine =
    Engine.create ~message_latency:config.Config.cost.Cost_model.message_latency ~trace
      ~num_sites:config.Config.num_sites ()
  in
  let cluster_ref = ref None in
  let on_outcome outcome =
    match !cluster_ref with
    | None -> ()
    | Some t ->
      t.last_outcome <- Some outcome;
      record_outcome t outcome;
      (match t.telemetry_observe with None -> () | Some observe -> observe outcome);
      match t.outcome_hook with None -> () | Some hook -> hook outcome
  in
  let sites =
    Array.init config.Config.num_sites (fun id ->
        Site.create ~id ~config ~metrics ~on_outcome ?obs ?wal_factory ())
  in
  Array.iteri (fun id site -> Engine.register engine id (Site.handler site)) sites;
  let t =
    {
      config;
      engine;
      obs;
      sites;
      metrics;
      last_outcome = None;
      next_id = 0;
      committed_versions = Array.make config.Config.num_items 0;
      first_stale_read = None;
      outcome_hook = None;
      telemetry_observe = None;
      knowledge_lost = Hashtbl.create 8;
      knowledge_loss_events = 0;
    }
  in
  cluster_ref := Some t;
  (match telemetry with
  | None -> ()
  | Some registry -> attach_telemetry t registry ~extra_labels:telemetry_labels);
  t

let create config = of_spec (Spec.make config)

let config t = t.config
let metrics t = t.metrics
let engine t = t.engine
let num_sites t = Array.length t.sites

let site t i =
  if i < 0 || i >= Array.length t.sites then invalid_arg "Cluster.site: bad site id";
  t.sites.(i)

let alive t i = Engine.alive t.engine i

let alive_sites t =
  List.filter (alive t) (List.init (num_sites t) Fun.id)

let is_operational t i = alive t i && not (Site.is_waiting (site t i))

let operational t =
  let acc = ref [] in
  for i = Array.length t.sites - 1 downto 0 do
    if is_operational t i then acc := i :: !acc
  done;
  !acc

let run_to_quiescence t = Engine.run t.engine

(* DESIGN.md §11: when a site dies, any (item, target) staleness fact
   recorded only in its fail-lock table vanishes from the union view the
   survivors can reconstruct — a later control-1 can then ship [target] a
   table without the bit and its stale copy will serve reads as current.
   Detect the condition at the instant it arises (the crash that removes
   the last witness), count it, and warn loudly.
   [Invariant.faillocks_track_staleness] tolerates recorded pairs so the
   crash matrix can tell this known paper-level gap apart from a protocol
   regression.  A dead target's staleness is judged against what its
   stable storage would restore, not its wiped volatile database. *)
let detect_knowledge_loss t ~dying =
  let dying_fl = Site.faillocks t.sites.(dying) in
  let survivors = alive_sites t in
  let replayed = Hashtbl.create 4 in
  let restored_version target item =
    let s = t.sites.(target) in
    match Site.wal s with
    | Some wal when not (alive t target) ->
      let db =
        match Hashtbl.find_opt replayed target with
        | Some db -> db
        | None ->
          let db = Database.create ~num_items:t.config.Config.num_items in
          ignore (Wal.replay_into wal db);
          Hashtbl.replace replayed target db;
          db
      in
      Database.version db item
    | _ -> Database.version (Site.database s) item
  in
  (* Only items with a row in the dying table can lose a witness; the
     rest have no locked site to visit. *)
  List.iter
    (fun item ->
      List.iter
        (fun target ->
          let visible_elsewhere =
            List.exists
              (fun s -> Faillock.is_locked (Site.faillocks t.sites.(s)) ~item ~site:target)
              survivors
          in
          if not visible_elsewhere then begin
            let committed = t.committed_versions.(item) in
            let behind =
              match restored_version target item with
              | Some v -> v < committed
              | None -> committed > 0
            in
            if behind && not (Hashtbl.mem t.knowledge_lost (item, target)) then begin
              Hashtbl.replace t.knowledge_lost (item, target) ();
              t.knowledge_loss_events <- t.knowledge_loss_events + 1;
              Log.warn (fun m ->
                  m
                    "knowledge loss: site %d was the last alive witness that site %d's copy of \
                     item %d is stale (behind v%d)"
                    dying target item committed)
            end
          end)
        (Faillock.locked_sites dying_fl ~item))
    (Faillock.locked_items dying_fl)

let crash_site_now t i =
  if alive t i then begin
    Engine.set_alive t.engine i false;
    (* Crashes happen outside any handler, so the site's own tracing
       (which needs an engine context) can't record them; the incident
       timeline's opening marker is emitted here instead. *)
    (match t.obs with
    | None -> ()
    | Some sink -> sink.Raid_obs.Trace.emit ~at:(Engine.now t.engine) ~site:i Raid_obs.Trace.Site_failed);
    Site.on_crash (site t i);
    detect_knowledge_loss t ~dying:i
  end

let fail_site t i =
  if alive t i then begin
    crash_site_now t i;
    match alive_sites t with
    | [] -> ()
    | witness :: _ ->
      Engine.inject t.engine ~dst:witness (Message.Failure_noticed [ i ]);
      run_to_quiescence t
  end

let terminate_site t i =
  if alive t i then begin
    Engine.inject t.engine ~dst:i Message.Terminate_command;
    run_to_quiescence t;
    crash_site_now t i
  end

let knowledge_lost t ~item ~site = Hashtbl.mem t.knowledge_lost (item, site)
let knowledge_loss_events t = t.knowledge_loss_events

(* A live site still waiting for a donor re-runs control 1;
   [set_alive] is then a no-op. *)
let recover_site t i =
  if is_operational t i then
    invalid_arg "Cluster.recover_site: site is already up";
  Engine.set_alive t.engine i true;
  Engine.inject t.engine ~dst:i Message.Recover_command;
  run_to_quiescence t;
  if Site.is_waiting (site t i) then `Blocked else `Recovered

let next_txn_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

(* An operation on an item outside the database, checked before anything
   is injected: the coordinator would apply the writes before it to its
   own copy and leave the copies disagreeing.  A top-level recursion, so
   the check allocates no closure. *)
let rec bad_item num_items = function
  | [] -> None
  | (Txn.Read item | Txn.Write item) :: ops ->
    if item < 0 || item >= num_items then Some item else bad_item num_items ops

let inject_txn t ~coordinator txn =
  (match bad_item t.config.Config.num_items txn.Txn.ops with
  | None -> ()
  | Some item -> invalid_arg (Printf.sprintf "Cluster.submit: item %d out of range" item));
  if not (alive t coordinator) then invalid_arg "Cluster.submit: coordinator is down";
  if Site.is_waiting (site t coordinator) then
    invalid_arg "Cluster.submit: coordinator is still waiting to recover";
  Engine.inject t.engine ~dst:coordinator (Message.Begin_txn txn)

let set_outcome_hook t hook = t.outcome_hook <- hook

let submit t ~coordinator txn =
  t.last_outcome <- None;
  inject_txn t ~coordinator txn;
  run_to_quiescence t;
  match t.last_outcome with
  | Some outcome -> outcome
  | None -> failwith "Cluster.submit: transaction produced no outcome (protocol bug)"

(* A coordinator that durably decided commit and then crashed reports no
   outcome: its Commit messages are in flight and the writes land
   everywhere, but the oracle ([committed_version],
   [Invariant.no_stale_reads]) stays blind to the transaction.  The
   crash matrix records such ghost commits here once it has proved —
   from a survivor's commit record or the coordinator's durable decision
   record — that the decision really was commit.  Must be called before
   any later transaction is injected, so the committed-version history
   keeps submission order. *)
let note_ghost_commit t txn =
  let id = txn.Txn.id in
  List.iter
    (fun item -> if id > t.committed_versions.(item) then t.committed_versions.(item) <- id)
    (Txn.write_items txn)

(* {2 Oracle views} *)

let faillocks_for t target =
  let alive = alive_sites t in
  let items = ref [] in
  for item = t.config.Config.num_items - 1 downto 0 do
    let locked =
      List.exists
        (fun s -> Faillock.is_locked (Site.faillocks t.sites.(s)) ~item ~site:target)
        alive
    in
    if locked then items := item :: !items
  done;
  !items

let faillock_count_for t target = List.length (faillocks_for t target)

(* All targets in one sweep: per item, union the alive sites' lock
   bitmaps and bump a count per set bit.  O(items * alive * sites/8)
   instead of calling [faillock_count_for] once per target
   (O(items * alive * sites) with a list allocation per item). *)
let faillock_counts t =
  let n = num_sites t in
  let counts = Array.make n 0 in
  let tables = List.map (fun s -> Site.faillocks t.sites.(s)) (alive_sites t) in
  let union = Raid_util.Bitset.create n in
  for item = 0 to t.config.Config.num_items - 1 do
    Raid_util.Bitset.clear_all union;
    List.iter (fun fl -> Faillock.union_locked_into ~dst:union fl ~item) tables;
    Raid_util.Bitset.iter (fun target -> counts.(target) <- counts.(target) + 1) union
  done;
  counts

let total_faillocks t = Array.fold_left ( + ) 0 (faillock_counts t)

type site_status = {
  st_id : int;
  st_alive : bool;
  st_waiting : bool;
  st_faillocks : int;
  st_table_bits : int;
  st_pending_2pc : int;
  st_buffered_prepares : int;
  st_session_up : int;
}

let status t =
  let counts = faillock_counts t in
  Array.init (num_sites t) (fun i ->
      let s = t.sites.(i) in
      {
        st_id = i;
        st_alive = alive t i;
        st_waiting = Site.is_waiting s;
        st_faillocks = counts.(i);
        st_table_bits = Faillock.total_locked (Site.faillocks s);
        st_pending_2pc = Site.pending_2pc s;
        st_buffered_prepares = Site.buffered_prepares s;
        st_session_up = Session.up_count (Site.vector s);
      })

let first_stale_read t = t.first_stale_read

let committed_version t item =
  if item < 0 || item >= Array.length t.committed_versions then
    invalid_arg "Cluster.committed_version: bad item";
  t.committed_versions.(item)

let fully_consistent t =
  (* Per item, every alive site storing it agrees — under full
     replication this degenerates to whole-database equality, and under
     partial replication it compares only the copies that exist (sites
     hold disjoint item sets by design, so [Database.equal] would never
     hold there). *)
  let alive = alive_sites t in
  let agree item =
    match
      List.filter_map (fun s -> Database.read (Site.database t.sites.(s)) item) alive
    with
    | [] -> true
    | copy :: rest -> List.for_all (( = ) copy) rest
  in
  let rec items_agree item =
    item >= t.config.Config.num_items || (agree item && items_agree (item + 1))
  in
  items_agree 0 && total_faillocks t = 0
