(* A site's state and the helpers every protocol role uses.  The roles
   build on it in dependency order: [Coordinator], then [Recovery], then
   [Participant]; [Site] is the public face and the event dispatch. *)

module Vtime = Raid_net.Vtime
module Engine = Raid_net.Engine
module Database = Raid_storage.Database
module Wal = Raid_storage.Wal
module Obs = Raid_obs.Trace
module Bitset = Raid_util.Bitset
module Int_table = Raid_util.Int_table

let log_src = Logs.Src.create "raid.site" ~doc:"RAID site state machine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Coordinator phases for the transaction in progress (Appendix A).
   Pending sets are site bitsets with an explicit remaining count, so
   each ack costs O(1) instead of rebuilding an O(sites) list. *)
type copying = { mutable pending : int array; mutable remaining : int }
(* pending.(s) = outstanding copy requests at source s; a source can
   carry more than one live request when a Copy_unavailable failover
   re-targets items at a site that is already serving others.  Empty
   until the first copy request goes out. *)

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
  mutable fetch_only : int list;
      (* reads of items with no local copy (partial replication), served
         by a copy reply without being installed *)
  mutable remote_reads : Database.write list;
      (* the copy replies' writes for [fetch_only] items, latest first *)
}

(* What a free slot of a site's [coord_at] holds, so it keeps no
   transaction's state reachable; also what [find_coord] returns for a
   transaction not coordinated here. *)
let no_coord =
  {
    txn = { Txn.id = -1; ops = [] };
    started_at = Vtime.zero;
    writes = [];
    phase = Copying { pending = [||]; remaining = 0 };
    phase_entered_at = Vtime.zero;
    copier_requests = 0;
    copier_items = 0;
    cleared_items = [];
    fetch_only = [];
    remote_reads = [];
  }

type batch = { round_id : int; pending_sources : Bitset.t; mutable remaining : int }

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
  mutable applied : Bytes.t;
      (* bit [txn]: this site applied [txn]'s commit to a stored copy *)
  stable : Wal.t option;  (* simulated stable storage (durability extension) *)
  placement : Placement.View.t;  (* this site's view of who holds what *)
  full : bool;
      (* full replication: every site holds every item, so [stores] and
         the commit-time fail-lock rule need not consult [placement] *)
  pending_prepares : Int_table.t;
      (* buffered prepares: txn -> the slot of the [pp_] arrays holding
         the writes to apply if the decision is commit, the coordinator
         to ask if this site has to resolve the transaction after a
         crash, when the prepare arrived (-1 for one reloaded from the
         WAL at recovery: its participant time spans a crash and is not
         sampled), and — during resolution with a dead coordinator — the
         number of outstanding status probes to other sites (0 when not
         probing).  A free slot's writes are [[]]. *)
  mutable pp_writes : Database.write list array;
  mutable pp_coord : int array;
  mutable pp_started : Vtime.t array;
  mutable pp_outstanding : int array;
  mutable mode : mode;
  coords : Int_table.t;  (* in-flight coordinated transactions: txn -> slot *)
  mutable coord_at : coord array;  (* by slot; a free slot holds [no_coord] *)
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
    applied = Bytes.empty;
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
    pending_prepares = Int_table.create ();
    pp_writes = [||];
    pp_coord = [||];
    pp_started = [||];
    pp_outstanding = [||];
    mode = Normal;
    coords = Int_table.create ();
    coord_at = [||];
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

(* The commit evidence the in-doubt status probe reads: one bit per
   transaction id, set once a commit's writes reach a stored copy here
   (every committed write installs version = its transaction's id).
   Copier installs carry the source's older version and record nothing.
   The bytes double when an id falls past their end: one bit per
   transaction, whatever its write set. *)
let note_applied t ~txn =
  if txn >= 0 then begin
    let byte = txn lsr 3 in
    let length = Bytes.length t.applied in
    if byte >= length then begin
      let grown = Bytes.make (max (byte + 1) (max 16 (2 * length))) '\000' in
      Bytes.blit t.applied 0 grown 0 length;
      t.applied <- grown
    end;
    Bytes.unsafe_set t.applied byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.applied byte) lor (1 lsl (txn land 7))))
  end

let applied_commit t ~txn =
  txn >= 0
  && txn lsr 3 < Bytes.length t.applied
  && Char.code (Bytes.unsafe_get t.applied (txn lsr 3)) land (1 lsl (txn land 7)) <> 0

let stores t ~item = t.full || Placement.View.holds t.placement ~site:t.id ~item
let believes_stored t ~site ~item = Placement.View.holds t.placement ~site ~item
let partial t = not t.full
let is_waiting t = match t.mode with Waiting_recovery _ -> true | Normal -> false
let session_number t = Session.session t.vector t.id

(* Sum of the in-flight coordinated transactions' pending-set
   cardinalities; [remaining] caches the set bits of each phase's
   bitset, so this is O(in-flight txns), not O(sites). *)
let pending_2pc t =
  Int_table.fold
    (fun _ slot acc ->
      acc
      +
      match t.coord_at.(slot).phase with
      | Copying { remaining; _ } -> remaining
      | Preparing { remaining; _ } -> remaining
      | Committing { remaining; _ } -> remaining)
    t.coords 0

let buffered_prepares t = Int_table.length t.pending_prepares

let in_doubt t =
  match t.stable with
  | Some wal -> Wal.prepared_count wal
  | None -> Int_table.length t.pending_prepares

let wal t = t.stable

(* {2 In-flight coordinated transactions} *)

(* The coordinator state of [txn], or [no_coord]: a sentinel, not an
   option, so the ack handlers' lookup allocates nothing. *)
let find_coord t txn =
  let slot = Int_table.find t.coords txn in
  if slot = Int_table.absent then no_coord else t.coord_at.(slot)

let add_coord t coord =
  let slot = Int_table.add t.coords coord.txn.Txn.id in
  if slot >= Array.length t.coord_at then t.coord_at <- Int_table.fit t.coords t.coord_at no_coord;
  t.coord_at.(slot) <- coord

let remove_coord t ~txn =
  let slot = Int_table.remove t.coords txn in
  if slot <> Int_table.absent then t.coord_at.(slot) <- no_coord

(* The in-flight transactions, in increasing id order. *)
let coords_in_order t = List.map (find_coord t) (Int_table.keys t.coords)

(* Drop every in-flight transaction (a crash loses them). *)
let drop_coords t =
  Array.fill t.coord_at 0 (Array.length t.coord_at) no_coord;
  Int_table.reset t.coords

(* {2 Buffered prepares} *)

(* The slot of [txn]'s buffered prepare, or [Int_table.absent]. *)
let prepare_slot t ~txn = Int_table.find t.pending_prepares txn

let buffer_prepare t ~txn ~coordinator ~started writes =
  let table = t.pending_prepares in
  let slot = Int_table.add table txn in
  if slot >= Array.length t.pp_writes then begin
    t.pp_writes <- Int_table.fit table t.pp_writes [];
    t.pp_coord <- Int_table.fit table t.pp_coord 0;
    t.pp_started <- Int_table.fit table t.pp_started Vtime.zero;
    t.pp_outstanding <- Int_table.fit table t.pp_outstanding 0
  end;
  t.pp_writes.(slot) <- writes;
  t.pp_coord.(slot) <- coordinator;
  t.pp_started.(slot) <- started;
  t.pp_outstanding.(slot) <- 0

(* The buffered prepares' transactions, in increasing id order. *)
let buffered_txns t = Int_table.keys t.pending_prepares

(* Drop every buffered prepare (a crash loses them; the WAL keeps its
   records). *)
let drop_prepares t =
  Array.fill t.pp_writes 0 (Array.length t.pp_writes) [];
  Int_table.reset t.pending_prepares

(* Drop an in-doubt prepare everywhere it is recorded (decided,
   resolved, or presumed aborted). *)
let forget_in_doubt t ~txn =
  let slot = Int_table.remove t.pending_prepares txn in
  if slot <> Int_table.absent then t.pp_writes.(slot) <- [];
  match t.stable with None -> () | Some wal -> Wal.forget_prepare wal ~txn

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

(* Under full replication every item's row becomes the down set.  This
   and [apply_writes] are top-level recursions rather than [List.iter]s:
   under [-opaque] a local closure is allocated on every call. *)
let rec commit_update_full t ctx down = function
  | [] -> ()
  | { Database.item; _ } :: writes ->
    Engine.work ctx t.cost.Cost_model.faillock_update_per_write;
    Faillock.commit_update t.faillocks ~item ~down;
    commit_update_full t ctx down writes

(* Under partial replication: the holders' bits, for the items this site
   stores or witnesses; returns the stored items whose own bit the
   commit clears, in reverse write order. *)
let rec commit_update_partial t ctx ~witness self_cleared = function
  | [] -> self_cleared
  | { Database.item; _ } :: writes ->
    Engine.work ctx t.cost.Cost_model.faillock_update_per_write;
    let self_cleared =
      if witness || stores t ~item then begin
        let self_cleared =
          if stores t ~item && Faillock.is_locked t.faillocks ~item ~site:t.id then
            item :: self_cleared
          else self_cleared
        in
        Placement.View.iter_holders t.placement item (fun site ->
            if Session.is_up t.vector site then ignore (Faillock.clear t.faillocks ~item ~site)
            else ignore (Faillock.set t.faillocks ~item ~site));
        self_cleared
      end
      else self_cleared
    in
    commit_update_partial t ctx ~witness self_cleared writes

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
    let sets = Faillock.set_transitions t.faillocks
    and clears = Faillock.clear_transitions t.faillocks in
    let self_cleared =
      if t.full then begin
        commit_update_full t ctx (Session.non_up t.vector) writes;
        []
      end
      else commit_update_partial t ctx ~witness [] writes
    in
    t.faillock_txn <- None;
    t.metrics.Metrics.faillocks_set <-
      t.metrics.Metrics.faillocks_set + Faillock.set_transitions t.faillocks - sets;
    t.metrics.Metrics.faillocks_cleared <-
      t.metrics.Metrics.faillocks_cleared + Faillock.clear_transitions t.faillocks - clears;
    broadcast_clears t ctx (List.rev self_cleared)
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
let rec apply_writes t ctx ~txn = function
  | [] -> ()
  | ({ Database.item; _ } as write) :: writes ->
    if stores t ~item then begin
      Engine.work ctx t.cost.Cost_model.commit_apply_per_write;
      Database.apply t.db write;
      note_applied t ~txn;
      log_durable t ctx ~txn write
    end;
    apply_writes t ctx ~txn writes
