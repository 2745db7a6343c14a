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

type mode =
  | Normal
  | Waiting_recovery of {
      new_session : int;
      mutable candidates : int list;  (* remaining state-donor candidates *)
      mutable observed_down : int list;
          (* failures this site witnessed while waiting; the donor's
             vector predates them, so control-2 re-applies them after
             installation *)
      mutable hints : int list list;
          (* buffered fail-lock hints (partial replication): items other
             sites know this site missed, applied after the donor's state
             is installed *)
      started_at : Vtime.t;
      mutable unresolved : int;
          (* in-doubt prepares from the previous incarnation still being
             resolved; the control-1 announcements wait until this hits
             zero so the donor's state reflects the resolutions *)
      mutable announced : bool;
    }

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
    placement = Placement.View.create (Config.placement config);
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
let stores t ~item = Placement.View.holds t.placement ~site:t.id ~item
let believes_stored t ~site ~item = Placement.View.holds t.placement ~site ~item
let partial t = not (Placement.View.is_full t.placement)
let locked_items t = Faillock.locked_items_for t.faillocks ~site:t.id
let is_recovering t = Faillock.any_locked_for t.faillocks ~site:t.id
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

(* Drop an in-doubt prepare everywhere it is recorded (decided,
   resolved, or presumed aborted). *)
let forget_in_doubt t ~txn =
  Hashtbl.remove t.pending_prepares txn;
  match t.stable with None -> () | Some wal -> Wal.forget_prepare wal ~txn

(* Presumed abort on coordinator death: a coordinator that died before
   deciding can never send the commit, so every prepare buffered for it
   is dropped.  This never races a decided commit: per-link delivery is
   FIFO with uniform latency, so a Commit sent before the coordinator
   died always arrives before any announcement of that death. *)
let purge_prepares_from t ~coordinator =
  if Hashtbl.length t.pending_prepares > 0 then begin
    let doomed =
      Hashtbl.fold
        (fun txn pp acc -> if pp.pp_coord = coordinator then txn :: acc else acc)
        t.pending_prepares []
    in
    List.iter (fun txn -> forget_in_doubt t ~txn) doomed
  end

let on_crash ?(now = Vtime.zero) t =
  (* A coordinator past the decide point has durably logged the decision
     and its Commit messages are already in flight: participants will
     apply the writes and clear this site's fail-lock bits for them (they
     believe it up).  Losing the writes here would leave this site behind
     yet unlocked after recovery, so the crash preserves them — the redo
     records were logged with the decision. *)
  Hashtbl.iter
    (fun _ coord ->
      match coord.phase with
      | Committing _ ->
        List.iter
          (fun ({ Database.item; _ } as write) ->
            if stores t ~item then begin
              Database.apply t.db write;
              Update_log.append t.log
                { Update_log.txn = coord.txn.Txn.id; write; applied_at = now };
              match t.stable with
              | None -> ()
              | Some wal -> Wal.append wal { Wal.txn = coord.txn.Txn.id; write }
            end)
          coord.writes
      | Copying _ | Preparing _ -> ())
    t.coords;
  Hashtbl.reset t.coords;
  t.batch <- None;
  t.mode <- Normal;
  Hashtbl.reset t.pending_prepares;
  (* Under the durability extension the crash also loses the volatile
     database; only the write-ahead log survives.  Recovery replays it,
     and the in-doubt prepare and decision records in stable storage
     survive untouched. *)
  match t.stable with None -> () | Some _ -> Database.wipe t.db

let ms_of = Vtime.to_ms

(* {2 Small helpers} *)

(* Operational sites other than this one, visited in increasing id order
   (the same order [Session.operational_except] listed them in); the
   iterator form never allocates the list. *)
let iter_others t f = Session.iter_operational_except t.vector ~self:t.id f
let count_others t = Session.operational_count_except t.vector ~self:t.id
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

(* An operational site (other than this one) holding an up-to-date copy
   of [item], per this site's fail-lock table and placement view.  The
   lowest-id match, as [List.find_opt] over the operational list gave. *)
let find_source t item =
  if Placement.View.is_full t.placement then
    Session.first_operational t.vector (fun s ->
        s <> t.id && not (Faillock.is_locked t.faillocks ~item ~site:s))
  else begin
    (* O(k): scan the item's holders instead of the operational list,
       keeping the lowest-id match (what the full scan returned). *)
    let best = ref (-1) in
    Placement.View.iter_holders t.placement item (fun s ->
        if
          s <> t.id
          && ((!best < 0) || s < !best)
          && Session.is_up t.vector s
          && not (Faillock.is_locked t.faillocks ~item ~site:s)
        then best := s);
    if !best < 0 then None else Some !best
  end

(* Control transaction type 2: mark the given sites down and announce the
   failure to the remaining operational sites. *)
let announce_failures t ctx failed =
  let fresh = List.filter (fun s -> s <> t.id && Session.is_up t.vector s) failed in
  if fresh <> [] then begin
    List.iter (Session.mark_down t.vector) fresh;
    (* While waiting for recovery state the resolution machinery owns the
       buffered prepares; purging here would strand its bookkeeping. *)
    if not (is_waiting t) then
      List.iter (fun s -> purge_prepares_from t ~coordinator:s) fresh;
    iter_others t (fun r -> Engine.send ctx r (Message.Failure_announce { failed = fresh }));
    t.metrics.Metrics.control2_announcements <-
      t.metrics.Metrics.control2_announcements + count_others t;
    if tracing t then
      emit t ctx
        (Obs.Control
           {
             kind = Obs.Failure_announce;
             detail =
               Printf.sprintf "sites [%s] down"
                 (String.concat ";" (List.map string_of_int fresh));
           })
  end

(* The special transaction informing other sites of fail-lock bits cleared
   by copier transactions (or a commit that refreshed a stale copy under
   partial replication). *)
let broadcast_clears t ctx items =
  if items <> [] then begin
    iter_others t (fun r ->
        Engine.work ctx t.cost.Cost_model.faillock_clear_send;
        Engine.send ctx r (Message.Faillocks_cleared { site = t.id; items });
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
        if Placement.View.is_full t.placement then
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

(* Log a committed write to stable storage (durability extension). *)
let log_durable t ctx ~txn write =
  match t.stable with
  | None -> ()
  | Some wal ->
    Engine.work ctx t.cost.Cost_model.wal_append;
    Wal.append wal { Wal.txn; write };
    ignore (Wal.maybe_checkpoint wal t.db)

(* Apply committed writes to the local copy (those this site stores). *)
let apply_writes t ctx ~txn writes =
  List.iter
    (fun ({ Database.item; _ } as write) ->
      if stores t ~item then begin
        Engine.work ctx t.cost.Cost_model.commit_apply_per_write;
        Database.apply t.db write;
        Update_log.append t.log { Update_log.txn; write; applied_at = Engine.time ctx };
        log_durable t ctx ~txn write
      end)
    writes

(* Refresh local copies from a copier reply.  Writes not newer than the
   local copy are skipped (the copy may have been refreshed by a write
   committed after the request was issued).  Clears this site's own
   fail-lock bits; returns the items whose bit was actually cleared. *)
let install_refreshed t ctx ~round writes =
  if tracing t then t.faillock_txn <- Some round;
  let cleared =
  List.filter_map
    (fun ({ Database.item; version; _ } as write) ->
      let stale =
        match Database.version t.db item with None -> true | Some v -> v < version
      in
      if stale then begin
        Engine.work ctx t.cost.Cost_model.copier_install_per_item;
        Database.materialize t.db write;
        Update_log.append t.log { Update_log.txn = round; write; applied_at = Engine.time ctx };
        log_durable t ctx ~txn:round write
      end;
      if Faillock.clear t.faillocks ~item ~site:t.id then begin
        t.metrics.Metrics.faillocks_cleared <- t.metrics.Metrics.faillocks_cleared + 1;
        Some item
      end
      else None)
    writes
  in
  t.faillock_txn <- None;
  cleared

(* {2 Two-step recovery (paper §3.2 extension)} *)

(* Group items by an up-to-date source site; items with no available
   source are dropped.  Groups come back in increasing source order with
   each group's items in request order — a per-site array gives that
   directly, where the old hashtable needed a sort. *)
let group_by_source t items =
  let num_sites = Session.num_sites t.vector in
  let by_source = Array.make num_sites [] in
  List.iter
    (fun item ->
      match find_source t item with
      | None -> ()
      | Some s -> by_source.(s) <- item :: by_source.(s))
    items;
  let groups = ref [] in
  for s = num_sites - 1 downto 0 do
    if by_source.(s) <> [] then groups := (s, List.rev by_source.(s)) :: !groups
  done;
  !groups

let rec start_batch_round t ctx =
  match t.config.Config.recovery with
  | Config.On_demand -> ()
  | Config.Two_step { threshold; batch_size } ->
    if t.batch = None && Hashtbl.length t.coords = 0 && t.mode = Normal then begin
      (* One pass over the fail-lock column: count the locked items and
         keep the first [batch_size] of them (increasing item order). *)
      let num_locked = ref 0 in
      let take_rev = ref [] in
      Faillock.iter_locked_items_for t.faillocks ~site:t.id (fun item ->
          incr num_locked;
          if !num_locked <= batch_size then take_rev := item :: !take_rev);
      let fraction = float_of_int !num_locked /. float_of_int t.config.Config.num_items in
      if !num_locked > 0 && fraction <= threshold then begin
        let take = List.rev !take_rev in
        match group_by_source t take with
        | [] -> ()  (* nothing refreshable right now *)
        | groups ->
          t.batch_seq <- t.batch_seq + 1;
          let round_id = -t.batch_seq in
          let pending_sources = Bitset.create (Session.num_sites t.vector) in
          List.iter
            (fun (source, items) ->
              Bitset.set pending_sources source;
              Engine.work ctx t.cost.Cost_model.copier_request_send;
              Engine.send ctx source (Message.Copy_request { txn = round_id; items });
              t.metrics.Metrics.copier_requests <- t.metrics.Metrics.copier_requests + 1;
              if tracing t then
                emit t ctx
                  (Obs.Copier_request
                     { txn = round_id; source; items = List.length items }))
            groups;
          t.batch <- Some { round_id; pending_sources; remaining = List.length groups };
          t.metrics.Metrics.batch_copier_rounds <- t.metrics.Metrics.batch_copier_rounds + 1
      end
    end

and finish_batch_source t ctx b source =
  if Bitset.mem b.pending_sources source then begin
    Bitset.clear b.pending_sources source;
    b.remaining <- b.remaining - 1;
    if b.remaining = 0 then begin
      t.batch <- None;
      start_batch_round t ctx
    end
  end

(* {2 Control transaction type 3 (paper §3.2 extension)} *)

let maybe_spawn_backups t ctx writes =
  if t.config.Config.spawn_backups then
    List.iter
      (fun ({ Database.item; _ } as write) ->
        let holders =
          Placement.View.count_holders_if t.placement item (Session.is_up t.vector)
        in
        if holders = 1 then begin
          match
            Session.first_operational t.vector (fun s ->
                not (Placement.View.holds t.placement ~site:s ~item))
          with
          | None -> ()
          | Some target ->
            Engine.work ctx t.cost.Cost_model.backup_spawn;
            (* Broadcast so every operational site updates its placement
               view; the target also materialises the copy. *)
            iter_others t (fun r -> Engine.send ctx r (Message.Backup_copy { target; write }));
            Placement.View.add_backup t.placement ~site:target ~item;
            if target = t.id then Database.materialize t.db write;
            t.metrics.Metrics.control3_backups <- t.metrics.Metrics.control3_backups + 1;
            if tracing t then
              emit t ctx
                (Obs.Control
                   {
                     kind = Obs.Backup;
                     detail = Printf.sprintf "item %d to site %d" item target;
                   })
        end)
      writes

(* {2 Coordinator (Appendix A, "actions at the coordinating site")} *)

let finish t ctx coord ~committed ~abort_reason ~reads =
  let elapsed = Vtime.sub (Engine.time ctx) coord.started_at in
  if committed then begin
    t.metrics.Metrics.txns_committed <- t.metrics.Metrics.txns_committed + 1;
    if coord.copier_requests > 0 then
      Metrics.Samples.add t.metrics.Metrics.coordinator_copier_ms (ms_of elapsed)
    else
      Metrics.Samples.add t.metrics.Metrics.coordinator_ms (ms_of elapsed)
  end
  else begin
    t.metrics.Metrics.txns_aborted <- t.metrics.Metrics.txns_aborted + 1;
    Metrics.Samples.add t.metrics.Metrics.abort_ms (ms_of elapsed)
  end;
  if tracing t then
    emit t ctx
      (if committed then Obs.Txn_commit { txn = coord.txn.Txn.id }
       else
         Obs.Txn_abort
           {
             txn = coord.txn.Txn.id;
             reason =
               (match abort_reason with
               | Some r -> Format.asprintf "%a" Metrics.pp_abort_reason r
               | None -> "unknown");
           });
  Hashtbl.remove t.coords coord.txn.Txn.id;
  t.on_outcome
    {
      Metrics.txn = coord.txn;
      coordinator = t.id;
      committed;
      abort_reason;
      copier_requests = coord.copier_requests;
      copier_items = coord.copier_items;
      reads;
      writes = (if committed then coord.writes else []);
      elapsed;
    }

(* Read every distinct read item: local copies, plus fetch-only remote
   reads collected from copy replies under partial replication. *)
let collect_reads t coord =
  List.filter_map
    (fun item ->
      if Hashtbl.mem coord.fetch_only item then
        Option.map
          (fun (value, version) -> (item, value, version))
          (Hashtbl.find_opt coord.remote_reads item)
      else
        match Database.read t.db item with
        | Some (value, version) -> Some (item, value, version)
        | None -> None)
    (Txn.read_items coord.txn)

let local_commit t ctx coord =
  (match coord.phase with
  | Committing c ->
    Metrics.Samples.add t.metrics.Metrics.phase_commit_ms
      (ms_of (Vtime.sub (Engine.time ctx) coord.phase_entered_at));
    (* The decision record can be retired once every participant applied;
       if one died before acknowledging, keep it — that participant will
       ask for the outcome when it recovers. *)
    (match t.stable with
    | Some wal when not c.lost -> Wal.forget_decision wal ~txn:coord.txn.Txn.id
    | Some _ | None -> ())
  | Copying _ | Preparing _ -> ());
  apply_writes t ctx ~txn:coord.txn.Txn.id coord.writes;
  faillock_commit_update ~witness:true t ctx ~txn:coord.txn.Txn.id coord.writes;
  let reads = collect_reads t coord in
  finish t ctx coord ~committed:true ~abort_reason:None ~reads;
  maybe_spawn_backups t ctx coord.writes;
  start_batch_round t ctx

(* Begin phase 1: "issue copy update for written items to every
   operational site". *)
let begin_phase1 t ctx coord =
  (* Close the copier phase: only transactions that actually ran a copier
     round contribute a phase-copy sample (and span). *)
  if coord.copier_requests > 0 then
    Metrics.Samples.add t.metrics.Metrics.phase_copy_ms
      (ms_of (Vtime.sub (Engine.time ctx) coord.phase_entered_at));
  (* Under full replication every operational site participates, even one
     storing none of the written items: fail-locks are fully replicated
     (paper §1.1), so every site must see the commit to maintain its
     table.  Under partial replication fail-lock knowledge is group-local,
     so only the operational holders of the written items participate —
     the 2PC fan-out is O(k · writes) instead of O(sites). *)
  let participants = Bitset.create (Session.num_sites t.vector) in
  let participant_count = ref 0 in
  if Placement.View.is_full t.placement then begin
    participant_count := count_others t;
    iter_others t (fun s -> Bitset.set participants s)
  end
  else
    List.iter
      (fun { Database.item; _ } ->
        Placement.View.iter_holders t.placement item (fun s ->
            if s <> t.id && Session.is_up t.vector s && not (Bitset.mem participants s) then begin
              Bitset.set participants s;
              incr participant_count
            end))
      coord.writes;
  let participant_count = !participant_count in
  if participant_count = 0 then local_commit t ctx coord
  else begin
    coord.phase <-
      Preparing
        {
          participants;
          participant_count;
          pending_acks = Bitset.copy participants;
          remaining = participant_count;
        };
    coord.phase_entered_at <- Engine.time ctx;
    if tracing t then begin
      emit t ctx (Obs.Phase_enter { txn = coord.txn.Txn.id; phase = Obs.Prepare });
      emit t ctx
        (Obs.Prepare_sent { txn = coord.txn.Txn.id; participants = participant_count })
    end;
    let cleared = if t.config.Config.embed_clears then coord.cleared_items else [] in
    Bitset.iter
      (fun p ->
        Engine.work ctx t.cost.Cost_model.prepare_send;
        Engine.send ctx p
          (Message.Prepare { txn = coord.txn.Txn.id; writes = coord.writes; cleared }))
      participants
  end

let begin_txn t ctx txn =
  (* Multiple transactions may be coordinated here concurrently (the
     concurrency-control extension); the same id must not be reused. *)
  if Hashtbl.mem t.coords txn.Txn.id then begin
    Log.err (fun m -> m "site %d: duplicate transaction id %d" t.id txn.Txn.id);
    invalid_arg "Site: duplicate transaction id"
  end;
  let started_at = Engine.time ctx in
  (* Emitted at [started_at], before any modelled setup work, so the root
     span's duration is exactly the latency [finish] measures and the
     txn-latency histograms observe. *)
  if tracing t then
    emit t ctx
      (Obs.Txn_begin
         {
           txn = txn.Txn.id;
           reads = List.length (Txn.read_items txn);
           writes = List.length (Txn.write_items txn);
         });
  Engine.work ctx t.cost.Cost_model.txn_setup;
  Engine.work ctx (Txn.size txn * t.cost.Cost_model.op_process);
  let read_ops =
    List.length (List.filter (function Txn.Read _ -> true | Txn.Write _ -> false) txn.Txn.ops)
  in
  if faillocks_on t then Engine.work ctx (read_ops * t.cost.Cost_model.faillock_read_check);
  let writes =
    List.map
      (fun item -> { Database.item; value = txn.Txn.id; version = txn.Txn.id })
      (Txn.write_items txn)
  in
  let coord =
    {
      txn;
      started_at;
      writes;
      phase = Copying { pending = Array.make (Session.num_sites t.vector) 0; remaining = 0 };
      phase_entered_at = started_at;
      copier_requests = 0;
      copier_items = 0;
      cleared_items = [];
      remote_reads = Hashtbl.create 4;
      fetch_only = Hashtbl.create 4;
    }
  in
  Hashtbl.replace t.coords txn.Txn.id coord;
  (* Under partial replication a written item must have at least one
     operational holder, or the update would be installed nowhere. *)
  let write_unavailable =
    partial t
    && List.exists
         (fun { Database.item; _ } ->
           not (Placement.View.exists_holder t.placement item (Session.is_up t.vector)))
         writes
  in
  if write_unavailable then
    finish t ctx coord ~committed:false ~abort_reason:(Some Metrics.Write_unavailable) ~reads:[]
  else begin
  (* Reads needing a copier: fail-locked local copies (paper §1.2), plus —
     under partial replication — reads of items with no local copy, which
     are fetched without being installed. *)
  let needs_copier item = faillocks_on t && Faillock.is_locked t.faillocks ~item ~site:t.id in
  let needed, fetch_only =
    List.partition (fun item -> stores t ~item)
      (List.filter
         (fun item -> (not (stores t ~item)) || needs_copier item)
         (Txn.read_items txn))
  in
  let needed = List.filter needs_copier needed in
  List.iter (fun item -> Hashtbl.replace coord.fetch_only item ()) fetch_only;
  if tracing t then begin
    List.iter
      (fun item ->
        emit t ctx
          (Obs.Txn_read
             { txn = txn.Txn.id; item; remote = Hashtbl.mem coord.fetch_only item }))
      (Txn.read_items txn);
    List.iter
      (fun { Database.item; _ } -> emit t ctx (Obs.Txn_write { txn = txn.Txn.id; item }))
      writes
  end;
  let to_fetch = needed @ fetch_only in
  if to_fetch = [] then begin_phase1 t ctx coord
  else begin
    let groups = group_by_source t to_fetch in
    let covered = List.concat_map snd groups in
    if List.exists (fun item -> not (List.mem item covered)) to_fetch then begin
      (* Some needed copy has no operational up-to-date source: "the
         inability to get up-to-date copies via copier transactions"
         aborts the transaction (paper §4.2.1). *)
      finish t ctx coord ~committed:false ~abort_reason:(Some Metrics.Copier_unavailable)
        ~reads:[]
    end
    else begin
      if tracing t then
        emit t ctx (Obs.Phase_enter { txn = txn.Txn.id; phase = Obs.Copy });
      let pending = Array.make (Session.num_sites t.vector) 0 in
      List.iter
        (fun (source, items) ->
          pending.(source) <- pending.(source) + 1;
          Engine.work ctx t.cost.Cost_model.copier_request_send;
          Engine.send ctx source (Message.Copy_request { txn = txn.Txn.id; items });
          coord.copier_requests <- coord.copier_requests + 1;
          t.metrics.Metrics.copier_requests <- t.metrics.Metrics.copier_requests + 1;
          if tracing t then
            emit t ctx
              (Obs.Copier_request
                 { txn = txn.Txn.id; source; items = List.length items }))
        groups;
      coord.phase <- Copying { pending; remaining = List.length groups };
      coord.phase_entered_at <- Engine.time ctx
    end
  end
  end

let abort_txn t ctx coord ~reason ~notify =
  (* With embedded clears, an abort message still carries the fail-lock
     bits our copier transactions cleared, so other sites do not keep
     stale bits for this site. *)
  let cleared = if t.config.Config.embed_clears then coord.cleared_items else [] in
  if notify || cleared <> [] then begin
    iter_others t (fun p ->
        Engine.send ctx p (Message.Abort { txn = coord.txn.Txn.id; cleared }));
    if notify && tracing t then
      emit t ctx (Obs.Decide { txn = coord.txn.Txn.id; commit = false })
  end;
  (* Without embedded clears an abort message carries nothing, yet copier
     installs that already ran have cleared local bits other sites track;
     under partial replication announce them explicitly. *)
  if (not t.config.Config.embed_clears) && partial t then
    broadcast_clears t ctx coord.cleared_items;
  finish t ctx coord ~committed:false ~abort_reason:(Some reason) ~reads:[]

(* {2 The event handler} *)

let current_coord t txn_id = Hashtbl.find_opt t.coords txn_id

let handle_copy_reply t ctx ~txn ~writes ~src =
  if tracing t then
    emit t ctx (Obs.Copier_reply { txn; source = src; items = List.length writes });
  if txn < 0 then begin
    (* Batch copier round (two-step recovery). *)
    match t.batch with
    | Some b when b.round_id = txn ->
      let cleared = install_refreshed t ctx ~round:txn writes in
      t.metrics.Metrics.copier_items_refreshed <-
        t.metrics.Metrics.copier_items_refreshed + List.length cleared;
      broadcast_clears t ctx cleared;
      finish_batch_source t ctx b src
    | _ -> ()  (* stale reply from an abandoned round *)
  end
  else
    match current_coord t txn with
    | None -> ()
    | Some coord -> begin
      match coord.phase with
      | Copying c ->
        let installable, fetch_only =
          List.partition
            (fun { Database.item; _ } -> not (Hashtbl.mem coord.fetch_only item))
            writes
        in
        List.iter
          (fun { Database.item; value; version } ->
            Hashtbl.replace coord.remote_reads item (value, version))
          fetch_only;
        let cleared = install_refreshed t ctx ~round:txn installable in
        coord.copier_items <- coord.copier_items + List.length cleared;
        t.metrics.Metrics.copier_items_refreshed <-
          t.metrics.Metrics.copier_items_refreshed + List.length cleared;
        coord.cleared_items <- cleared @ coord.cleared_items;
        if c.pending.(src) > 0 then begin
          c.pending.(src) <- c.pending.(src) - 1;
          c.remaining <- c.remaining - 1;
          if c.remaining = 0 then begin
            (* All copier transactions done: run the special transaction to
               clear fail-locks at other sites (unless the information is
               embedded in the commit protocol), then enter phase 1.  Under
               partial replication the broadcast runs regardless: embedded
               clears only reach the commit's participants, but witnesses
               and fellow holders outside this write set also track the
               cleared bits. *)
            if (not t.config.Config.embed_clears) || partial t then
              broadcast_clears t ctx coord.cleared_items;
            begin_phase1 t ctx coord
          end
        end
      | Preparing _ | Committing _ -> ()
    end

(* Copy_unavailable failover (partial replication).  A non-holder
   coordinator has no fail-lock knowledge for the item, so the holder it
   picked as source may itself turn out to be stale.  The refusal is
   authoritative only about that holder's own copy: retry each refused
   item at its next holder in id order rather than aborting.  Source ids
   increase strictly on every retry, so the loop terminates; only when an
   item has no further candidate does the transaction abort (the paper's
   "inability to get up-to-date copies" case).  The refusing source still
   sends its Copy_reply for the items it could serve, which is what
   decrements its pending slot. *)
let retry_copy_sources t ctx coord c ~failed ~items =
  let next_source item =
    let best = ref (-1) in
    Placement.View.iter_holders t.placement item (fun s ->
        if
          s <> t.id
          && s > failed
          && ((!best < 0) || s < !best)
          && Session.is_up t.vector s
          && not (Faillock.is_locked t.faillocks ~item ~site:s)
        then best := s);
    if !best < 0 then None else Some !best
  in
  let num_sites = Session.num_sites t.vector in
  let by_source = Array.make num_sites [] in
  let stuck = ref false in
  List.iter
    (fun item ->
      match next_source item with
      | None -> stuck := true
      | Some s -> by_source.(s) <- item :: by_source.(s))
    items;
  if !stuck then abort_txn t ctx coord ~reason:Metrics.Copier_unavailable ~notify:false
  else
    for source = 0 to num_sites - 1 do
      if by_source.(source) <> [] then begin
        let items = List.rev by_source.(source) in
        c.pending.(source) <- c.pending.(source) + 1;
        c.remaining <- c.remaining + 1;
        Engine.work ctx t.cost.Cost_model.copier_request_send;
        Engine.send ctx source (Message.Copy_request { txn = coord.txn.Txn.id; items });
        coord.copier_requests <- coord.copier_requests + 1;
        t.metrics.Metrics.copier_requests <- t.metrics.Metrics.copier_requests + 1;
        if tracing t then
          emit t ctx
            (Obs.Copier_request
               { txn = coord.txn.Txn.id; source; items = List.length items })
      end
    done

let apply_embedded_clears t ~coordinator ~txn items =
  if tracing t then t.faillock_txn <- Some txn;
  let cleared =
    List.fold_left
      (fun acc item -> acc + Faillock.clear_sites t.faillocks ~item ~sites:[ coordinator ])
      0 items
  in
  t.faillock_txn <- None;
  t.metrics.Metrics.faillocks_cleared <- t.metrics.Metrics.faillocks_cleared + cleared

let handle_prepare t ctx ~txn ~writes ~cleared ~src =
  apply_embedded_clears t ~coordinator:src ~txn cleared;
  Hashtbl.replace t.pending_prepares txn
    { pp_writes = writes; pp_coord = src; pp_started = Engine.time ctx; pp_outstanding = 0 };
  (* Log the prepare before voting yes: a crash between the vote and the
     decision must leave enough on stable storage to apply (or resolve)
     the transaction on recovery. *)
  (match t.stable with
  | None -> ()
  | Some wal -> Wal.log_prepare wal ~txn ~coordinator:src writes);
  Engine.work ctx t.cost.Cost_model.prepare_process;
  Engine.send ctx src (Message.Prepare_ack { txn });
  if tracing t then emit t ctx (Obs.Vote { txn; participant = t.id })

let handle_prepare_ack t ctx ~txn ~src =
  match current_coord t txn with
  | None -> ()
  | Some coord -> begin
    match coord.phase with
    | Preparing p ->
      Engine.work ctx t.cost.Cost_model.ack_process;
      if Bitset.mem p.pending_acks src then begin
        Bitset.clear p.pending_acks src;
        p.remaining <- p.remaining - 1;
        if p.remaining = 0 then begin
          Metrics.Samples.add t.metrics.Metrics.phase_prepare_ms
            (ms_of (Vtime.sub (Engine.time ctx) coord.phase_entered_at));
          (* The decide point: log the commit decision durably before any
             Commit message leaves.  A crash from here on must preserve
             the decision — participants resolve their in-doubt prepares
             against it. *)
          (match t.stable with None -> () | Some wal -> Wal.log_decision wal ~txn);
          (* Phase 2 goes to exactly the phase-1 participants; the
             participant bitset becomes the commit-ack pending set. *)
          coord.phase <-
            Committing
              { pending_acks = p.participants; remaining = p.participant_count; lost = false };
          coord.phase_entered_at <- Engine.time ctx;
          if tracing t then begin
            emit t ctx (Obs.Decide { txn; commit = true });
            emit t ctx (Obs.Phase_enter { txn; phase = Obs.Commit })
          end;
          Bitset.iter (fun s -> Engine.send ctx s (Message.Commit { txn })) p.participants
        end
      end
    | Copying _ | Committing _ -> ()
  end

let handle_commit_ack t ctx ~txn ~src =
  match current_coord t txn with
  | None -> ()
  | Some coord -> begin
    match coord.phase with
    | Committing c ->
      Engine.work ctx t.cost.Cost_model.ack_process;
      if Bitset.mem c.pending_acks src then begin
        Bitset.clear c.pending_acks src;
        c.remaining <- c.remaining - 1;
        if c.remaining = 0 then local_commit t ctx coord
      end
    | Copying _ | Preparing _ -> ()
  end

(* {2 Control transaction type 1 (recovery)} *)

let send_announcements t ctx ~new_session ~designated ~others =
  let announce want_state dst =
    Engine.work ctx t.cost.Cost_model.recovery_announce_send;
    Engine.send ctx dst
      (Message.Recovery_announce { site = t.id; session = new_session; want_state })
  in
  (* The announcements are formatted one after another (the paper's sites
     run serially, which is why control-1 cost grows with the number of
     sites); the designated donor's goes out last so every announcement is
     on the critical path of the recovery, as in the paper's timing. *)
  List.iter (announce false) others;
  announce true designated;
  (* The resolve phase of the incident timeline ends when the recovery is
     announced (all in-doubt prepares have verdicts by this point). *)
  if tracing t then emit t ctx (Obs.Recovery_step { step = Obs.Announced new_session })

let begin_recovery t ctx =
  on_crash ~now:(Engine.time ctx) t;
  (* The outage phase of the site's incident timeline ends here: the
     operator's recover command has reached the site. *)
  if tracing t then emit t ctx (Obs.Recovery_step { step = Obs.Recover_command });
  (* Durability extension: rebuild the database from stable storage and
     take the next session number from it (session numbers must be
     monotone across crashes even if the vector were lost). *)
  let new_session =
    match t.stable with
    | None ->
      if tracing t then emit t ctx (Obs.Recovery_step { step = Obs.Wal_replayed 0 });
      Session.session t.vector t.id + 1
    | Some wal ->
      let replayed = Wal.replay_into wal t.db in
      Engine.work ctx (replayed * t.cost.Cost_model.wal_replay_per_entry);
      if tracing t then emit t ctx (Obs.Recovery_step { step = Obs.Wal_replayed replayed });
      let session = Wal.session wal + 1 in
      Wal.record_session wal session;
      session
  in
  (* Reload in-doubt prepares: a crash between the vote and the decision
     left them on stable storage, and they must be resolved — not
     silently forgotten — before this site serves transactions again. *)
  (match t.stable with
  | None -> ()
  | Some wal ->
    List.iter
      (fun { Wal.p_txn; coordinator; writes } ->
        Hashtbl.replace t.pending_prepares p_txn
          { pp_writes = writes; pp_coord = coordinator; pp_started = -1; pp_outstanding = 0 })
      (Wal.prepared wal));
  Session.mark_waiting t.vector t.id ~session:new_session;
  (* Candidate state donors: sites this (stale) vector believes up first,
     then the rest — a believed-up site may be dead and a believed-down
     site may have recovered since. *)
  let all_others =
    List.filter (fun s -> s <> t.id) (List.init (Session.num_sites t.vector) Fun.id)
  in
  let believed_up, believed_down = List.partition (Session.is_up t.vector) all_others in
  let candidates = believed_up @ believed_down in
  match candidates with
  | [] ->
    Log.warn (fun m -> m "site %d: no other sites; recovering standalone" t.id);
    (* No peers to resolve against: in-doubt prepares are presumed
       aborted. *)
    let doomed = Hashtbl.fold (fun txn _ acc -> txn :: acc) t.pending_prepares [] in
    List.iter (fun txn -> forget_in_doubt t ~txn) doomed;
    Session.mark_up t.vector t.id ~session:new_session;
    t.mode <- Normal;
    t.metrics.Metrics.control1_completed <- t.metrics.Metrics.control1_completed + 1;
    if tracing t then begin
      emit t ctx (Obs.Recovery_step { step = Obs.Announced new_session });
      emit t ctx (Obs.Recovery_step { step = Obs.State_installed })
    end
  | designated :: _ ->
    let in_doubt =
      List.sort compare
        (Hashtbl.fold (fun txn pp acc -> (txn, pp.pp_coord) :: acc) t.pending_prepares [])
    in
    t.mode <-
      Waiting_recovery
        {
          new_session;
          candidates;
          observed_down = [];
          hints = [];
          started_at = Engine.time ctx;
          unresolved = List.length in_doubt;
          announced = in_doubt = [];
        };
    if in_doubt <> [] then
      (* Resolve the in-doubt prepares first; the control-1 announcements
         go out once the last verdict is in, so the donor's shipped state
         already reflects any resolved commit's clears. *)
      List.iter
        (fun (txn, coordinator) ->
          Engine.send ctx coordinator (Message.Txn_status_request { txn }))
        in_doubt
    else begin
      (* Announce to every other site — the paper sends to each operational
         site, but our vector is stale, and a site we wrongly believe down
         must still learn our new session number (announcements to actually
         dead sites just produce ignorable send failures).  The designated
         candidate also ships its state. *)
      let others = List.filter (fun s -> s <> designated) all_others in
      send_announcements t ctx ~new_session ~designated ~others;
      if tracing t then
        emit t ctx
          (Obs.Control
             {
               kind = Obs.Recovery;
               detail = Printf.sprintf "announce session %d" new_session;
             })
    end

let handle_recovery_announce t ctx ~site ~session ~want_state ~src =
  Session.mark_up t.vector site ~session;
  (* The announcer is back with its stable storage intact: any prepare it
     coordinated before crashing can now be resolved authoritatively
     (durable decision record, or presumed abort). *)
  let stale_in_doubt =
    Hashtbl.fold
      (fun txn pp acc ->
        if pp.pp_coord = site && pp.pp_outstanding = 0 then txn :: acc else acc)
      t.pending_prepares []
  in
  List.iter
    (fun txn -> Engine.send ctx src (Message.Txn_status_request { txn }))
    (List.sort compare stale_in_doubt);
  (* Partial replication: fail-lock knowledge is group-local, and the
     state donor may not hold (hence not track) items the recovering site
     missed.  Every operational site that knows of missed updates sends
     the recovering site a hint; it applies them after installing the
     donor's state. *)
  if
    partial t && faillocks_on t && (not (is_waiting t))
    && Faillock.any_locked_for t.faillocks ~site
  then begin
    Engine.work ctx t.cost.Cost_model.faillock_clear_send;
    Engine.send ctx src
      (Message.Faillock_hint
         { for_site = site; items = Faillock.locked_items_for t.faillocks ~site })
  end;
  if want_state then begin
    if is_waiting t then
      (* We cannot serve authoritative state while waiting ourselves; the
         serial cluster driver never creates this situation. *)
      Log.err (fun m -> m "site %d: asked for recovery state while waiting" t.id)
    else begin
      let num_items = t.config.Config.num_items in
      Engine.work ctx t.cost.Cost_model.recovery_state_build_base;
      Engine.work ctx (num_items * t.cost.Cost_model.recovery_state_build_per_item);
      Engine.send ctx src
        (Message.Recovery_state
           {
             vector = Session.copy t.vector;
             faillocks = Faillock.copy t.faillocks;
             backups = Placement.View.extras t.placement;
           });
      Metrics.Samples.add t.metrics.Metrics.control1_operational_ms
        (ms_of
          (t.cost.Cost_model.recovery_state_build_base
          + (num_items * t.cost.Cost_model.recovery_state_build_per_item)
          + t.cost.Cost_model.message_latency));
      if tracing t then
        emit t ctx
          (Obs.Control
             {
               kind = Obs.Recovery;
               detail = Printf.sprintf "serve state to site %d" src;
             })
    end
  end

(* A fail-lock hint names items this site missed updates on; keep the
   ones it actually holds (group-local knowledge). *)
let apply_faillock_hint t items =
  let fresh = ref 0 in
  List.iter
    (fun item ->
      if stores t ~item && Faillock.set t.faillocks ~item ~site:t.id then incr fresh)
    items;
  t.metrics.Metrics.faillocks_set <- t.metrics.Metrics.faillocks_set + !fresh

let handle_recovery_state t ctx ~vector ~faillocks ~backups =
  match t.mode with
  | Normal -> ()  (* duplicate or stale state shipment *)
  | Waiting_recovery { new_session; started_at; observed_down; hints; _ } ->
    let num_items = t.config.Config.num_items in
    Engine.work ctx t.cost.Cost_model.recovery_install_base;
    Engine.work ctx (num_items * t.cost.Cost_model.recovery_install_per_item);
    Session.install t.vector ~from:vector;
    Placement.View.install_extras t.placement backups;
    (* Under partial replication only rows of locally held items are
       installed: this site will never hear commit-time clears for items
       it does not hold, so foreign rows would go stale. *)
    (if Placement.View.is_full t.placement then Faillock.install t.faillocks ~from:faillocks
     else Faillock.install ~keep:(fun item -> stores t ~item) t.faillocks ~from:faillocks);
    List.iter (apply_faillock_hint t) (List.rev hints);
    Session.mark_up t.vector t.id ~session:new_session;
    t.mode <- Normal;
    t.metrics.Metrics.control1_completed <- t.metrics.Metrics.control1_completed + 1;
    Metrics.Samples.add t.metrics.Metrics.control1_recovering_ms
      (ms_of (Vtime.sub (Engine.time ctx) started_at));
    if tracing t then begin
      emit t ctx (Obs.Recovery_step { step = Obs.State_installed });
      emit t ctx (Obs.Control { kind = Obs.Recovery; detail = "state installed" })
    end;
    (* The donor's vector predates any failures we witnessed while
       waiting (e.g. a dead designated donor): re-apply them through
       control transaction type 2. *)
    announce_failures t ctx observed_down;
    (* Step two of two-step recovery may start immediately. *)
    start_batch_round t ctx

let handle_recovery_candidate_failure t ctx ~dst =
  match t.mode with
  | Normal -> ()
  | Waiting_recovery ({ new_session; _ } as w) ->
    Session.mark_down t.vector dst;
    if not (List.mem dst w.observed_down) then w.observed_down <- dst :: w.observed_down;
    w.candidates <- List.filter (fun s -> s <> dst) w.candidates;
    (match List.find_opt (fun s -> s <> dst) w.candidates with
    | Some next ->
      Engine.work ctx t.cost.Cost_model.recovery_announce_send;
      Engine.send ctx next
        (Message.Recovery_announce { site = t.id; session = new_session; want_state = true })
    | None ->
      (* Every potential donor is down: recovery is blocked, exactly the
         hazard the paper's two-step proposal aims to shrink (§3.2). *)
      Log.warn (fun m -> m "site %d: recovery blocked, no operational donor" t.id))

(* {2 In-doubt resolution (durability extension)}

   A participant that crashed between its yes-vote and the decision
   recovers with the prepare still on stable storage.  Before announcing
   recovery (control-1) it asks the transaction's coordinator for the
   outcome: a durable decision record (or a live commit phase) means
   commit, an up coordinator without one means presumed abort.  If the
   coordinator is down, every other site is probed — any site whose
   update log contains the transaction proves the commit; if all probes
   come back negative the prepare is presumed aborted (the only commits
   invisible to every survivor are the knowledge-loss corner the cluster
   detector counts). *)

let maybe_announce_after_resolution t ctx =
  match t.mode with
  | Normal -> ()
  | Waiting_recovery w ->
    if (not w.announced) && w.unresolved <= 0 then begin
      w.announced <- true;
      match w.candidates with
      | [] -> ()
      | designated :: _ ->
        let all_others =
          List.filter (fun s -> s <> t.id) (List.init (Session.num_sites t.vector) Fun.id)
        in
        let others = List.filter (fun s -> s <> designated) all_others in
        send_announcements t ctx ~new_session:w.new_session ~designated ~others;
        if tracing t then
          emit t ctx
            (Obs.Control
               {
                 kind = Obs.Recovery;
                 detail = Printf.sprintf "announce session %d" w.new_session;
               })
    end

(* One in-doubt prepare reached a verdict (or was superseded); release
   the control-1 announcements once the last one resolves. *)
let resolution_step t ctx =
  match t.mode with
  | Normal -> ()
  | Waiting_recovery w ->
    w.unresolved <- w.unresolved - 1;
    maybe_announce_after_resolution t ctx

let resolve_in_doubt t ctx ~txn ~committed =
  match Hashtbl.find_opt t.pending_prepares txn with
  | None -> ()  (* already resolved (duplicate probe answer) *)
  | Some pp ->
    if committed then begin
      forget_in_doubt t ~txn;
      (* Apply the decided writes from the durable prepare record.  Our
         own fail-lock bits for these items (set by the coordinator as a
         witness when our commit-ack bounced) are left to the normal
         recovery machinery: the copier refresh is version-safe even if
         later transactions overwrote the items, and clears them
         everywhere once our copy is provably current. *)
      apply_writes t ctx ~txn pp.pp_writes;
      if tracing t then
        emit t ctx
          (Obs.Control
             { kind = Obs.Recovery; detail = Printf.sprintf "in-doubt txn %d committed" txn });
      resolution_step t ctx
    end
    else if pp.pp_outstanding > 1 then pp.pp_outstanding <- pp.pp_outstanding - 1
    else begin
      (* Authoritative abort from the coordinator, or the last probe came
         back negative: presumed abort. *)
      forget_in_doubt t ~txn;
      if tracing t then
        emit t ctx
          (Obs.Control
             { kind = Obs.Recovery; detail = Printf.sprintf "in-doubt txn %d aborted" txn });
      resolution_step t ctx
    end

(* The coordinator's decision.  A prepare reloaded from the WAL is one
   of the in-doubt prepares holding back control-1: a site that restarts
   within one message latency of its crash can still receive the Commit
   sent to its previous incarnation, and that Commit is the prepare's
   verdict — the status reply that follows finds nothing to resolve. *)
let handle_commit t ctx ~txn ~src =
  match Hashtbl.find_opt t.pending_prepares txn with
  | None -> ()  (* unknown transaction (e.g. prepared before a crash) *)
  | Some { pp_writes = writes; pp_started = started; _ } ->
    Hashtbl.remove t.pending_prepares txn;
    (match t.stable with None -> () | Some wal -> Wal.forget_prepare wal ~txn);
    (* Acknowledge before applying: the coordinator does not wait on our
       local commit work (see Cost_model calibration notes). *)
    Engine.send ctx src (Message.Commit_ack { txn });
    apply_writes t ctx ~txn writes;
    faillock_commit_update t ctx ~txn writes;
    if started >= 0 then
      Metrics.Samples.add t.metrics.Metrics.participant_ms
        (ms_of (Vtime.sub (Engine.time ctx) started))
    else resolution_step t ctx;
    start_batch_round t ctx

(* A status request bounced off a dead site.  First bounce (the
   coordinator): fan the probe out to every other site.  Later bounces
   (probes): count them as negative answers. *)
let handle_status_request_failed t ctx ~txn ~dst =
  match Hashtbl.find_opt t.pending_prepares txn with
  | None -> ()
  | Some pp ->
    if pp.pp_outstanding > 0 then begin
      if pp.pp_outstanding > 1 then pp.pp_outstanding <- pp.pp_outstanding - 1
      else begin
        forget_in_doubt t ~txn;
        resolution_step t ctx
      end
    end
    else begin
      let targets =
        List.filter
          (fun s -> s <> t.id && s <> dst)
          (List.init (Session.num_sites t.vector) Fun.id)
      in
      match targets with
      | [] ->
        forget_in_doubt t ~txn;
        resolution_step t ctx
      | _ ->
        pp.pp_outstanding <- List.length targets;
        List.iter (fun s -> Engine.send ctx s (Message.Txn_status_request { txn })) targets
    end

let handle_txn_status_request t ctx ~txn ~src =
  Engine.work ctx t.cost.Cost_model.ack_process;
  let committed =
    match current_coord t txn with
    | Some coord -> begin
      match coord.phase with
      | Committing _ -> true
      | Copying _ | Preparing _ ->
        (* The asker crashed before this transaction could gather every
           vote; it can never commit — abort it now. *)
        abort_txn t ctx coord ~reason:Metrics.Participant_failed ~notify:true;
        false
    end
    | None -> (
      match t.stable with
      | Some wal when Wal.decided_commit wal ~txn -> true
      | Some _ | None ->
        (* Not ours (or long retired): our update log proves any commit
           we applied.  Only an entry installing version [txn] counts —
           copier installs are logged under the {e requesting}
           transaction's id but carry the source copy's older version,
           and must not masquerade as a commit of that transaction.  A
           negative answer is only authoritative from the coordinator;
           the asker treats probe negatives as presumed abort once every
           probe agrees. *)
        Update_log.exists t.log (fun e ->
            e.Update_log.txn = txn && e.Update_log.write.Database.version = txn))
  in
  Engine.send ctx src (Message.Txn_status_reply { txn; committed })

(* {2 Send failures (Appendix A "site is now down" branches)} *)

let handle_send_failed t ctx ~dst ~payload =
  match payload with
  | Message.Copy_request { txn; _ } ->
    if txn < 0 then begin
      (match t.batch with
      | Some b when b.round_id = txn ->
        announce_failures t ctx [ dst ];
        finish_batch_source t ctx b dst
      | _ -> announce_failures t ctx [ dst ])
    end
    else begin
      match current_coord t txn with
      | Some coord ->
        announce_failures t ctx [ dst ];
        abort_txn t ctx coord ~reason:Metrics.Copier_source_failed ~notify:false
      | None -> announce_failures t ctx [ dst ]
    end
  | Message.Prepare { txn; _ } -> begin
    match current_coord t txn with
    | Some coord ->
      announce_failures t ctx [ dst ];
      abort_txn t ctx coord ~reason:Metrics.Participant_failed ~notify:true
    | None -> announce_failures t ctx [ dst ]
  end
  | Message.Commit { txn } -> begin
    announce_failures t ctx [ dst ];
    match current_coord t txn with
    | Some coord -> begin
      match coord.phase with
      | Committing c ->
        if Bitset.mem c.pending_acks dst then begin
          c.lost <- true;
          (* The witness bits our local commit is about to set for [dst]
             exist nowhere else: the other participants cleared dst's
             bits believing it up.  If dst later recovers from a state
             donor other than us, that donor would ship it a fail-lock
             table missing its own staleness — broadcast the bits as
             hints so every survivor records them. *)
          (if faillocks_on t then begin
             let items =
               List.filter_map
                 (fun { Database.item; _ } ->
                   if believes_stored t ~site:dst ~item then Some item else None)
                 coord.writes
             in
             if items <> [] then
               iter_others t (fun r ->
                   Engine.send ctx r (Message.Faillock_hint { for_site = dst; items }))
           end);
          Bitset.clear c.pending_acks dst;
          c.remaining <- c.remaining - 1;
          if c.remaining = 0 then local_commit t ctx coord
        end
      | Copying _ | Preparing _ -> ()
    end
    | None -> ()
  end
  | Message.Prepare_ack { txn } ->
    (* The coordinator died before our acknowledgement arrived: it never
       decided this transaction, so the prepare is presumed aborted. *)
    if Hashtbl.mem t.pending_prepares txn then begin
      forget_in_doubt t ~txn;
      resolution_step t ctx
    end;
    announce_failures t ctx [ dst ]
  | Message.Commit_ack _ -> announce_failures t ctx [ dst ]
  | Message.Txn_status_request { txn } ->
    (match t.mode with
    | Waiting_recovery w ->
      Session.mark_down t.vector dst;
      if not (List.mem dst w.observed_down) then w.observed_down <- dst :: w.observed_down
    | Normal -> announce_failures t ctx [ dst ]);
    handle_status_request_failed t ctx ~txn ~dst
  | Message.Txn_status_reply _ ->
    (* The asker died after asking; it will ask again when it recovers. *)
    announce_failures t ctx [ dst ]
  | Message.Recovery_announce { want_state; _ } ->
    if want_state then handle_recovery_candidate_failure t ctx ~dst
    else begin
      match t.mode with
      | Waiting_recovery w ->
        Session.mark_down t.vector dst;
        if not (List.mem dst w.observed_down) then w.observed_down <- dst :: w.observed_down
      | Normal -> announce_failures t ctx [ dst ]
    end
  | Message.Faillocks_cleared _ | Message.Failure_announce _ | Message.Backup_copy _
  | Message.Abort _ | Message.Faillock_hint _ ->
    announce_failures t ctx [ dst ]
  | Message.Copy_reply _ | Message.Copy_unavailable _ | Message.Recovery_state _ ->
    (* A reply to a site that died after asking; nothing of ours is
       pending on it. *)
    announce_failures t ctx [ dst ]
  | Message.Departure_announce _ -> announce_failures t ctx [ dst ]
  | Message.Begin_txn _ | Message.Recover_command | Message.Failure_noticed _
  | Message.Terminate_command ->
    ()  (* managing-site inputs are never sent site-to-site *)

(* {2 Dispatch} *)

let handle_message t ctx ~src payload =
  match payload with
  | Message.Begin_txn txn -> begin_txn t ctx txn
  | Message.Recover_command -> begin_recovery t ctx
  | Message.Failure_noticed failed -> announce_failures t ctx failed
  | Message.Terminate_command ->
    (* Graceful departure: announce before going away, so survivors never
       have to discover the absence through timeouts. *)
    Session.mark_terminating t.vector t.id;
    iter_others t (fun r ->
        Engine.work ctx t.cost.Cost_model.recovery_announce_send;
        Engine.send ctx r (Message.Departure_announce { site = t.id }))
  | Message.Departure_announce { site } -> Session.mark_terminating t.vector site
  | Message.Prepare { txn; writes; cleared } -> handle_prepare t ctx ~txn ~writes ~cleared ~src
  | Message.Prepare_ack { txn } -> handle_prepare_ack t ctx ~txn ~src
  | Message.Commit { txn } -> handle_commit t ctx ~txn ~src
  | Message.Commit_ack { txn } -> handle_commit_ack t ctx ~txn ~src
  | Message.Abort { txn; cleared } ->
    apply_embedded_clears t ~coordinator:src ~txn cleared;
    if Hashtbl.mem t.pending_prepares txn then begin
      forget_in_doubt t ~txn;
      resolution_step t ctx
    end
  | Message.Copy_request { txn; items } ->
    (* Serve up-to-date copies; items our own copy is fail-locked for (or
       that we do not store) cannot be served. *)
    let good, bad =
      List.partition
        (fun item ->
          stores t ~item && not (Faillock.is_locked t.faillocks ~item ~site:t.id))
        items
    in
    Engine.work ctx t.cost.Cost_model.copier_serve_base;
    Engine.work ctx (List.length good * t.cost.Cost_model.copier_serve_per_item);
    let writes =
      List.filter_map
        (fun item ->
          Option.map
            (fun (value, version) -> { Database.item; value; version })
            (Database.read t.db item))
        good
    in
    Metrics.Samples.add t.metrics.Metrics.copy_serve_ms
      (ms_of
        (t.cost.Cost_model.copier_serve_base
        + (List.length good * t.cost.Cost_model.copier_serve_per_item)
        + t.cost.Cost_model.message_latency));
    if bad <> [] then Engine.send ctx src (Message.Copy_unavailable { txn; items = bad });
    Engine.send ctx src (Message.Copy_reply { txn; writes })
  | Message.Copy_reply { txn; writes } -> handle_copy_reply t ctx ~txn ~writes ~src
  | Message.Copy_unavailable { txn; items } -> begin
    if txn < 0 then begin
      match t.batch with
      | Some b when b.round_id = txn -> finish_batch_source t ctx b src
      | _ -> ()
    end
    else
      match current_coord t txn with
      | Some coord -> begin
        match coord.phase with
        | Copying c when partial t -> retry_copy_sources t ctx coord c ~failed:src ~items
        | Copying _ | Preparing _ | Committing _ ->
          abort_txn t ctx coord ~reason:Metrics.Copier_unavailable ~notify:false
      end
      | None -> ()
  end
  | Message.Faillocks_cleared { site; items } ->
    Engine.work ctx t.cost.Cost_model.faillock_clear_process;
    let cleared =
      List.fold_left
        (fun acc item -> acc + Faillock.clear_sites t.faillocks ~item ~sites:[ site ])
        0 items
    in
    t.metrics.Metrics.faillocks_cleared <- t.metrics.Metrics.faillocks_cleared + cleared;
    Metrics.Samples.add t.metrics.Metrics.clear_special_ms
      (ms_of (t.cost.Cost_model.faillock_clear_process + t.cost.Cost_model.message_latency))
  | Message.Recovery_announce { site; session; want_state } ->
    handle_recovery_announce t ctx ~site ~session ~want_state ~src
  | Message.Txn_status_request { txn } -> handle_txn_status_request t ctx ~txn ~src
  | Message.Txn_status_reply { txn; committed } -> resolve_in_doubt t ctx ~txn ~committed
  | Message.Recovery_state { vector; faillocks; backups } ->
    handle_recovery_state t ctx ~vector ~faillocks ~backups
  | Message.Failure_announce { failed } ->
    Engine.work ctx t.cost.Cost_model.failure_announce_process;
    Session.merge_failure t.vector failed;
    (* Presumed abort for prepares whose coordinator just died (see
       [purge_prepares_from] for why this never races a commit). *)
    if not (is_waiting t) then
      List.iter (fun s -> purge_prepares_from t ~coordinator:s) failed;
    Metrics.Samples.add t.metrics.Metrics.control2_ms
      (ms_of (t.cost.Cost_model.failure_announce_process + t.cost.Cost_model.message_latency))
  | Message.Faillock_hint { for_site; items } ->
    if for_site = t.id then begin
      match t.mode with
      | Waiting_recovery w -> w.hints <- items :: w.hints
      | Normal -> apply_faillock_hint t items
    end
    else if faillocks_on t then begin
      (* A coordinator witnessed [for_site] die mid-commit: record the
         missed items so any state donor ships the staleness.  Under
         partial replication only holders of an item track its bits. *)
      let fresh = ref 0 in
      List.iter
        (fun item ->
          if ((not (partial t)) || stores t ~item) && Faillock.set t.faillocks ~item ~site:for_site
          then incr fresh)
        items;
      t.metrics.Metrics.faillocks_set <- t.metrics.Metrics.faillocks_set + !fresh
    end
  | Message.Backup_copy { target; write } ->
    Placement.View.add_backup t.placement ~site:target ~item:write.Database.item;
    if target = t.id then begin
      let stale =
        match Database.version t.db write.Database.item with
        | None -> true
        | Some v -> v < write.Database.version
      in
      if stale then begin
        Database.materialize t.db write;
        log_durable t ctx ~txn:write.Database.version write
      end
    end

let handler t ctx event =
  if tracing t then t.obs_ctx <- Some ctx;
  match event with
  | Engine.Message { src; payload } -> handle_message t ctx ~src payload
  | Engine.Send_failed { dst; payload } -> handle_send_failed t ctx ~dst ~payload
  | Engine.Timer _ -> ()
