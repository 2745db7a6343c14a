(* A site's state and the helpers every protocol role uses.  The roles
   build on it in dependency order: [Coordinator], then [Recovery], then
   [Participant]; [Site] is the public face and the event dispatch. *)

module Vtime = Raid_net.Vtime
module Engine = Raid_net.Engine
module Database = Raid_storage.Database
module Update_log = Raid_storage.Update_log
module Wal = Raid_storage.Wal
module Obs = Raid_obs.Trace
module Bitset = Raid_util.Bitset

let log_src = Logs.Src.create "raid.site" ~doc:"RAID site state machine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Coordinator phases for the transaction in progress (Appendix A).
   Pending sets are site bitsets with an explicit remaining count, so
   each ack costs O(1) instead of rebuilding an O(sites) list. *)
type copying = { pending : int array; mutable remaining : int }
(* pending.(s) = outstanding copy requests at source s; a source can
   carry more than one live request when a Copy_unavailable failover
   re-targets items at a site that is already serving others *)

type phase =
  | Copying of copying
  | Preparing of {
      participants : Bitset.t;
      participant_count : int;
      pending_acks : Bitset.t;
      mutable remaining : int;
    }
  | Committing of {
      pending_acks : Bitset.t;
      mutable remaining : int;
      mutable lost : bool;
          (* a participant died before acknowledging the commit: keep the
             durable decision record so it can resolve its in-doubt
             prepare when it recovers *)
    }

(* A recovering site between its recover command and the installation
   of the donor's state (control-1 in flight).  Declared before [coord],
   whose [started_at] unqualified uses mean the coordinator's. *)
type waiting = {
  new_session : int;
  mutable candidates : int list;  (* remaining state-donor candidates *)
  mutable observed_down : int list;
      (* failures this site witnessed while waiting; the donor's vector
         predates them, so control-2 re-applies them after installation *)
  mutable hints : int list list;
      (* buffered fail-lock hints (partial replication): items other
         sites know this site missed, applied after the donor's state is
         installed *)
  started_at : Vtime.t;
  mutable unresolved : int;
      (* in-doubt prepares from the previous incarnation still being
         resolved; the control-1 announcements wait until this hits zero
         so the donor's state reflects the resolutions *)
  mutable announced : bool;
}

type coord = {
  txn : Txn.t;
  started_at : Vtime.t;
  writes : Database.write list;
  mutable phase : phase;
  mutable phase_entered_at : Vtime.t;
      (* when the current phase began; drives the per-phase latency
         samples (Metrics.phase_*_ms) and the trace's nested spans *)
  mutable copier_requests : int;
  mutable copier_items : int;
  mutable cleared_items : int list;
      (* items whose own fail-lock a copier cleared; announced by the
         special transaction once all copy replies are in *)
  remote_reads : (int, int * int) Hashtbl.t;
      (* item -> (value, version): reads satisfied by a copy reply without
         a local copy (partial replication fetch-only reads) *)
  fetch_only : (int, unit) Hashtbl.t;
}

type batch = { round_id : int; pending_sources : Bitset.t; mutable remaining : int }

(* A buffered prepare at a participant: the writes to apply if the
   decision is commit, the coordinator to ask if this site has to
   resolve the transaction after a crash, and — during resolution with a
   dead coordinator — the number of outstanding status probes to other
   sites (0 when not probing).  [pp_started] is when the prepare arrived,
   or -1 for one reloaded from the WAL at recovery (its participant time
   spans a crash and is not sampled). *)
type pending_prepare = {
  pp_writes : Database.write list;
  pp_coord : int;
  pp_started : Vtime.t;
  mutable pp_outstanding : int;
}

type mode = Normal | Waiting_recovery of waiting

type t = {
  id : int;
  config : Config.t;
  cost : Cost_model.t;
  metrics : Metrics.t;
  on_outcome : Metrics.outcome -> unit;
  vector : Session.t;
  db : Database.t;
  faillocks : Faillock.t;
  log : Update_log.t;
  stable : Wal.t option;  (* simulated stable storage (durability extension) *)
  placement : Placement.View.t;  (* this site's view of who holds what *)
  full : bool;
      (* full replication: every site holds every item, so [stores] and
         the commit-time fail-lock rule need not consult [placement] *)
  pending_prepares : (int, pending_prepare) Hashtbl.t;
  mutable mode : mode;
  coords : (int, coord) Hashtbl.t;  (* in-flight coordinated transactions *)
  mutable batch : batch option;
  mutable batch_seq : int;
  obs : Obs.sink option;
  mutable obs_ctx : Message.t Engine.ctx option;
      (* the handler context of the event being processed, so the
         fail-lock and session-vector change hooks can stamp their trace
         events; only maintained when [obs] is set *)
  mutable faillock_txn : int option;
      (* the transaction (or negative copier round) whose commit/install
         is currently mutating the fail-lock table, so the change hook
         can attribute the transition; only maintained when [obs] is set *)
}

(* Current virtual time for hook-driven emissions.  Hooks can only fire
   inside an event handler (where [obs_ctx] is set); the fallback covers
   construction-time mutations before any event runs. *)
let obs_now t = match t.obs_ctx with Some ctx -> Engine.time ctx | None -> Vtime.zero

let create ~id ~config ~metrics ~on_outcome ?obs ?wal_factory () =
  if id < 0 || id >= config.Config.num_sites then invalid_arg "Site.create: id out of range";
  let num_items = config.Config.num_items in
  let num_sites = config.Config.num_sites in
  let stored item = Config.stores config ~site:id ~item in
  let placement = Config.placement config in
  let db =
    match config.Config.replication with
    | Config.Full -> Database.create ~num_items
    | Config.Partial _ -> Database.create_partial ~num_items ~stored
  in
  let t =
  {
    id;
    config;
    cost = config.Config.cost;
    metrics;
    on_outcome;
    vector = Session.create ~num_sites;
    db;
    faillocks = Faillock.create ~num_items ~num_sites;
    log = Update_log.create ();
    stable =
      (match config.Config.durability with
      | Config.In_memory -> None
      | Config.Durable_wal { checkpoint_interval } ->
        Some
          (match wal_factory with
          | Some factory -> factory ~site:id ~initial:db
          | None -> Wal.create ~checkpoint_interval ~initial:db ~num_items ()));
    placement = Placement.View.create placement;
    full = Placement.is_full placement;
    pending_prepares = Hashtbl.create 16;
    mode = Normal;
    coords = Hashtbl.create 4;
    batch = None;
    batch_seq = 0;
    obs;
    obs_ctx = None;
    faillock_txn = None;
  }
  in
  (* Fail-lock and session-vector changes are traced via change hooks on
     the data structures themselves, so every mutation path (commit
     updates, copier clears, control transactions, state installation) is
     covered without instrumenting each caller. *)
  (match obs with
  | None -> ()
  | Some sink ->
    Faillock.set_hook t.faillocks
      (Some
         (fun ~item ~site ~locked ->
           let event =
             if locked then Obs.Faillock_set { item; for_site = site; txn = t.faillock_txn }
             else Obs.Faillock_cleared { item; for_site = site; txn = t.faillock_txn }
           in
           sink.Obs.emit ~at:(obs_now t) ~site:t.id event));
    Session.set_hook t.vector
      (Some
         (fun ~site ~session ~state ->
           sink.Obs.emit ~at:(obs_now t) ~site:t.id
             (Obs.Session_change
                { about = site; session; state = Session.state_name state }))));
  t

let id t = t.id
let database t = t.db
let faillocks t = t.faillocks
let vector t = t.vector
let log t = t.log
let stores t ~item = t.full || Placement.View.holds t.placement ~site:t.id ~item
let believes_stored t ~site ~item = Placement.View.holds t.placement ~site ~item
let partial t = not t.full
let is_waiting t = match t.mode with Waiting_recovery _ -> true | Normal -> false
let session_number t = Session.session t.vector t.id

(* Sum of the in-flight coordinated transactions' pending-set
   cardinalities; [remaining] caches the set bits of each phase's
   bitset, so this is O(in-flight txns), not O(sites). *)
let pending_2pc t =
  Hashtbl.fold
    (fun _ coord acc ->
      acc
      +
      match coord.phase with
      | Copying { remaining; _ } -> remaining
      | Preparing { remaining; _ } -> remaining
      | Committing { remaining; _ } -> remaining)
    t.coords 0

let buffered_prepares t = Hashtbl.length t.pending_prepares

let in_doubt t =
  match t.stable with
  | Some wal -> Wal.prepared_count wal
  | None -> Hashtbl.length t.pending_prepares

let wal t = t.stable
let current_coord t txn_id = Hashtbl.find_opt t.coords txn_id

(* Drop an in-doubt prepare everywhere it is recorded (decided,
   resolved, or presumed aborted). *)
let forget_in_doubt t ~txn =
  Hashtbl.remove t.pending_prepares txn;
  match t.stable with None -> () | Some wal -> Wal.forget_prepare wal ~txn

let ms_of = Vtime.to_ms

(* Operational sites other than this one, visited in increasing id order
   (the same order [Session.operational_except] listed them in); the
   iterator form never allocates the list. *)
let iter_others t f = Session.iter_operational_except t.vector ~self:t.id f
let count_others t = Session.operational_count_except t.vector ~self:t.id

(* Every site but this one and [except], up or not, in increasing id
   order. *)
let other_sites t ~except =
  List.filter (fun s -> s <> t.id && s <> except) (List.init (Session.num_sites t.vector) Fun.id)

let faillocks_on t = t.config.Config.faillocks_enabled

(* Tracing helpers.  [emit] takes the event pre-built, so call sites
   that would allocate to describe the event guard on [tracing] first —
   with tracing off the only cost on any protocol path is a [None]
   match. *)
let tracing t = match t.obs with Some _ -> true | None -> false

let emit t ctx event =
  match t.obs with
  | None -> ()
  | Some sink -> sink.Obs.emit ~at:(Engine.time ctx) ~site:t.id event

(* {2 Fail-lock rows} *)

(* Set [site]'s bit for the given items this site holds (a site only
   tracks the items it holds; under full replication that is all). *)
let set_faillocks t ~site items =
  let fresh = ref 0 in
  List.iter
    (fun item -> if stores t ~item && Faillock.set t.faillocks ~item ~site then incr fresh)
    items;
  t.metrics.Metrics.faillocks_set <- t.metrics.Metrics.faillocks_set + !fresh

let clear_faillocks t ~site items =
  let sites = [ site ] in
  let cleared =
    List.fold_left (fun acc item -> acc + Faillock.clear_sites t.faillocks ~item ~sites) 0 items
  in
  t.metrics.Metrics.faillocks_cleared <- t.metrics.Metrics.faillocks_cleared + cleared

(* The special transaction informing other sites of fail-lock bits cleared
   by copier transactions (or a commit that refreshed a stale copy under
   partial replication). *)
let broadcast_clears t ctx items =
  if items <> [] then begin
    let clears = Message.Faillocks_cleared { site = t.id; items } in
    iter_others t (fun r ->
        Engine.work ctx t.cost.Cost_model.faillock_clear_send;
        Engine.send ctx r clears;
        t.metrics.Metrics.clear_specials_sent <- t.metrics.Metrics.clear_specials_sent + 1);
    if tracing t then
      emit t ctx
        (Obs.Control
           {
             kind = Obs.Clear_special;
             detail = Printf.sprintf "%d items" (List.length items);
           })
  end

(* Commit-time fail-lock maintenance (paper §1.2): for each written item,
   unconditionally clear the bit of every up site and set the bit of every
   down site.  Under partial replication knowledge is group-local: only
   holders of an item maintain its bits, and only holders' bits exist —
   a non-holder cannot miss an update, and a non-holder's table would
   never hear the commit-time clears.  Two partial-mode refinements:

   - [witness]: the coordinator records the bits even for items it does
     not hold.  Without this, a write committed while some holders are
     down leaves the staleness known only to the up holders — and if
     those fail too, the knowledge is gone and a recovering holder would
     serve stale reads.  The coordinator acts as a witness; its bits are
     dropped at its own control-1 install (non-stored rows are cleared)
     and by the clear broadcasts below, so they cannot outlive the
     staleness they record.

   - A participant whose own stale copy is refreshed by this very commit
     (it was fail-locked, and whole-item writes overwrite the copy)
     broadcasts the clear of its own bit: under partial replication the
     commit reaches only the holders of the written items, but witnesses
     and holders of *other* items this site shares a group with are not
     participants and would keep the stale bit forever. *)
let faillock_commit_update ?(witness = false) t ctx ~txn writes =
  if faillocks_on t then begin
    if tracing t then t.faillock_txn <- Some txn;
    let set_count = ref 0 and cleared = ref 0 in
    let self_cleared = ref [] in
    List.iter
      (fun { Database.item; _ } ->
        Engine.work ctx t.cost.Cost_model.faillock_update_per_write;
        if t.full then
          Faillock.commit_update t.faillocks ~item ~down:(Session.non_up t.vector)
            ~set:set_count ~cleared
        else if witness || stores t ~item then begin
          if stores t ~item && Faillock.is_locked t.faillocks ~item ~site:t.id then
            self_cleared := item :: !self_cleared;
          Placement.View.iter_holders t.placement item (fun s ->
              Faillock.update_for t.faillocks ~item ~site:s ~up:(Session.is_up t.vector s)
                ~set:set_count ~cleared)
        end)
      writes;
    t.faillock_txn <- None;
    t.metrics.Metrics.faillocks_set <- t.metrics.Metrics.faillocks_set + !set_count;
    t.metrics.Metrics.faillocks_cleared <- t.metrics.Metrics.faillocks_cleared + !cleared;
    broadcast_clears t ctx (List.rev !self_cleared)
  end

(* {2 Applying writes} *)

(* Log a committed write to stable storage (durability extension). *)
let log_durable t ctx ~txn write =
  match t.stable with
  | None -> ()
  | Some wal ->
    Engine.work ctx t.cost.Cost_model.wal_append;
    Wal.append wal ~txn write;
    ignore (Wal.maybe_checkpoint wal t.db)

(* Apply committed writes to the local copy (those this site stores). *)
let apply_writes t ctx ~txn writes =
  List.iter
    (fun ({ Database.item; _ } as write) ->
      if stores t ~item then begin
        Engine.work ctx t.cost.Cost_model.commit_apply_per_write;
        Database.apply t.db write;
        Update_log.append t.log ~txn write;
        log_durable t ctx ~txn write
      end)
    writes
