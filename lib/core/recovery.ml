(* Control transactions for failure and recovery: the crash itself,
   control-2 failure announcements and graceful departure, control-1
   recovery with donor failover, and the in-doubt resolution of the
   durability extension. *)

open Site_state

(* Presumed abort on coordinator death: a coordinator that died before
   deciding can never send the commit, so every prepare buffered for it
   is dropped.  This never races a decided commit: per-link delivery is
   FIFO with uniform latency, so a Commit sent before the coordinator
   died always arrives before any announcement of that death. *)
let purge_prepares_from t ~coordinator =
  if buffered_prepares t > 0 then
    List.iter
      (fun txn ->
        if t.pp_coord.(prepare_slot t ~txn) = coordinator then forget_in_doubt t ~txn)
      (buffered_txns t)

let on_crash t =
  (* A coordinator past the decide point has durably logged the decision
     and its Commit messages are already in flight: participants will
     apply the writes and clear this site's fail-lock bits for them (they
     believe it up).  Losing the writes here would leave this site behind
     yet unlocked after recovery, so the crash preserves them — the redo
     records were logged with the decision. *)
  List.iter
    (fun coord ->
      match coord.phase with
      | Committing _ ->
        List.iter
          (fun ({ Database.item; _ } as write) ->
            if stores t ~item then begin
              Database.apply t.db write;
              note_applied t ~txn:coord.txn.Txn.id;
              match t.stable with
              | None -> ()
              | Some wal -> Wal.append wal ~txn:coord.txn.Txn.id write
            end)
          coord.writes
      | Copying _ | Preparing _ -> ())
    (coords_in_order t);
  drop_coords t;
  t.batch <- None;
  t.mode <- Normal;
  drop_prepares t;
  (* Under the durability extension the crash also loses the volatile
     database; only the write-ahead log survives.  Recovery replays it,
     and the in-doubt prepare and decision records in stable storage
     survive untouched. *)
  match t.stable with None -> () | Some _ -> Database.wipe t.db

(* {2 Control transaction type 2} *)

(* Mark the given sites down and announce the failure to the remaining
   operational sites. *)
let announce_failures t ctx failed =
  let fresh = List.filter (fun s -> s <> t.id && Session.is_up t.vector s) failed in
  if fresh <> [] then begin
    List.iter (Session.mark_down t.vector) fresh;
    (* While waiting for recovery state the resolution machinery owns the
       buffered prepares; purging here would strand its bookkeeping. *)
    if not (is_waiting t) then
      List.iter (fun s -> purge_prepares_from t ~coordinator:s) fresh;
    let announce = Message.Failure_announce { failed = fresh } in
    iter_others t (fun r -> Engine.send ctx r announce);
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

(* A failure witnessed while waiting for recovery state: the donor's
   vector predates it, so control-2 re-applies it after installation. *)
let observe_down t w dst =
  Session.mark_down t.vector dst;
  if not (List.mem dst w.observed_down) then w.observed_down <- dst :: w.observed_down

(* A message to [dst] was undeliverable. *)
let peer_down t ctx dst =
  match t.mode with
  | Waiting_recovery w -> observe_down t w dst
  | Normal -> announce_failures t ctx [ dst ]

let handle_failure_announce t ctx failed =
  Engine.work ctx t.cost.Cost_model.failure_announce_process;
  Session.merge_failure t.vector failed;
  (* Presumed abort for prepares whose coordinator just died (see
     [purge_prepares_from] for why this never races a commit). *)
  if not (is_waiting t) then List.iter (fun s -> purge_prepares_from t ~coordinator:s) failed;
  Metrics.Samples.add t.metrics.Metrics.control2_ms
    (t.cost.Cost_model.failure_announce_process + t.cost.Cost_model.message_latency)

(* Graceful departure: announce before going away, so survivors never
   have to discover the absence through timeouts. *)
let depart t ctx =
  Session.mark_terminating t.vector t.id;
  let departure = Message.Departure_announce { site = t.id } in
  iter_others t (fun r ->
      Engine.work ctx t.cost.Cost_model.recovery_announce_send;
      Engine.send ctx r departure)

(* {2 Control transaction type 1} *)

(* Announce [new_session] to every other site — the paper sends to each
   operational site, but our vector is stale, and a site we wrongly
   believe down must still learn our new session number (announcements
   to actually dead sites just produce ignorable send failures).  The
   designated candidate also ships its state. *)
let announce_recovery t ctx ~new_session ~designated =
  let announce want_state dst =
    Engine.work ctx t.cost.Cost_model.recovery_announce_send;
    Engine.send ctx dst
      (Message.Recovery_announce { site = t.id; session = new_session; want_state })
  in
  (* The announcements are formatted one after another (the paper's sites
     run serially, which is why control-1 cost grows with the number of
     sites); the designated donor's goes out last so every announcement is
     on the critical path of the recovery, as in the paper's timing. *)
  List.iter (announce false) (other_sites t ~except:designated);
  announce true designated;
  (* The resolve phase of the incident timeline ends when the recovery is
     announced (all in-doubt prepares have verdicts by this point). *)
  if tracing t then begin
    emit t ctx (Obs.Recovery_step { step = Obs.Announced new_session });
    emit t ctx
      (Obs.Control
         { kind = Obs.Recovery; detail = Printf.sprintf "announce session %d" new_session })
  end

let begin_recovery t ctx =
  on_crash t;
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
        buffer_prepare t ~txn:p_txn ~coordinator ~started:(-1) writes)
      (Wal.prepared wal));
  Session.mark_waiting t.vector t.id ~session:new_session;
  (* Candidate state donors: sites this (stale) vector believes up first,
     then the rest — a believed-up site may be dead and a believed-down
     site may have recovered since. *)
  let believed_up, believed_down =
    List.partition (Session.is_up t.vector) (other_sites t ~except:t.id)
  in
  let candidates = believed_up @ believed_down in
  match candidates with
  | [] ->
    Log.warn (fun m -> m "site %d: no other sites; recovering standalone" t.id);
    (* No peers to resolve against: in-doubt prepares are presumed
       aborted. *)
    List.iter (fun txn -> forget_in_doubt t ~txn) (buffered_txns t);
    Session.mark_up t.vector t.id ~session:new_session;
    t.mode <- Normal;
    t.metrics.Metrics.control1_completed <- t.metrics.Metrics.control1_completed + 1;
    if tracing t then begin
      emit t ctx (Obs.Recovery_step { step = Obs.Announced new_session });
      emit t ctx (Obs.Recovery_step { step = Obs.State_installed })
    end
  | designated :: _ ->
    let in_doubt =
      List.map (fun txn -> (txn, t.pp_coord.(prepare_slot t ~txn))) (buffered_txns t)
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
    else announce_recovery t ctx ~new_session ~designated

let handle_recovery_announce t ctx ~site ~session ~want_state ~src =
  Session.mark_up t.vector site ~session;
  (* The announcer is back with its stable storage intact: any prepare it
     coordinated before crashing can now be resolved authoritatively
     (durable decision record, or presumed abort). *)
  List.iter
    (fun txn ->
      let slot = prepare_slot t ~txn in
      if t.pp_coord.(slot) = site && t.pp_outstanding.(slot) = 0 then
        Engine.send ctx src (Message.Txn_status_request { txn }))
    (buffered_txns t);
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
        (t.cost.Cost_model.recovery_state_build_base
        + (num_items * t.cost.Cost_model.recovery_state_build_per_item)
        + t.cost.Cost_model.message_latency);
      if tracing t then
        emit t ctx
          (Obs.Control
             {
               kind = Obs.Recovery;
               detail = Printf.sprintf "serve state to site %d" src;
             })
    end
  end

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
    (if t.full then Faillock.install t.faillocks ~from:faillocks
     else Faillock.install ~keep:(fun item -> stores t ~item) t.faillocks ~from:faillocks);
    (* A fail-lock hint names items this site missed updates on. *)
    List.iter (set_faillocks t ~site:t.id) (List.rev hints);
    Session.mark_up t.vector t.id ~session:new_session;
    t.mode <- Normal;
    t.metrics.Metrics.control1_completed <- t.metrics.Metrics.control1_completed + 1;
    Metrics.Samples.add t.metrics.Metrics.control1_recovering_ms
      (Vtime.sub (Engine.time ctx) started_at);
    if tracing t then begin
      emit t ctx (Obs.Recovery_step { step = Obs.State_installed });
      emit t ctx (Obs.Control { kind = Obs.Recovery; detail = "state installed" })
    end;
    (* The donor's vector predates any failures we witnessed while
       waiting (e.g. a dead designated donor): re-apply them through
       control transaction type 2. *)
    announce_failures t ctx observed_down;
    (* Step two of two-step recovery may start immediately. *)
    Coordinator.start_batch_round t ctx

(* The state request to [dst] bounced: ask the next candidate donor. *)
let donor_failed t ctx ~dst =
  match t.mode with
  | Normal -> ()
  | Waiting_recovery w ->
    observe_down t w dst;
    w.candidates <- List.filter (fun s -> s <> dst) w.candidates;
    (match List.find_opt (fun s -> s <> dst) w.candidates with
    | Some next ->
      Engine.work ctx t.cost.Cost_model.recovery_announce_send;
      Engine.send ctx next
        (Message.Recovery_announce { site = t.id; session = w.new_session; want_state = true })
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
   commit record holds the transaction proves the commit; if all probes
   come back negative the prepare is presumed aborted (the only commits
   invisible to every survivor are the knowledge-loss corner the cluster
   detector counts). *)

(* One in-doubt prepare reached a verdict (or was superseded); release
   the control-1 announcements once the last one resolves. *)
let resolution_step t ctx =
  match t.mode with
  | Normal -> ()
  | Waiting_recovery w ->
    w.unresolved <- w.unresolved - 1;
    if (not w.announced) && w.unresolved <= 0 then begin
      w.announced <- true;
      match w.candidates with
      | [] -> ()
      | designated :: _ -> announce_recovery t ctx ~new_session:w.new_session ~designated
    end

let settle t ctx ~txn =
  forget_in_doubt t ~txn;
  resolution_step t ctx

(* Presumed abort: the coordinator aborted, or died before deciding. *)
let presume_aborted t ctx ~txn =
  if prepare_slot t ~txn <> Int_table.absent then settle t ctx ~txn

let resolve_in_doubt t ctx ~txn ~committed =
  let slot = prepare_slot t ~txn in
  (* An absent prepare was already resolved (duplicate probe answer). *)
  if slot <> Int_table.absent then begin
    if committed then begin
      let writes = t.pp_writes.(slot) in
      forget_in_doubt t ~txn;
      (* Apply the decided writes from the durable prepare record.  Our
         own fail-lock bits for these items (set by the coordinator as a
         witness when our commit-ack bounced) are left to the normal
         recovery machinery: the copier refresh is version-safe even if
         later transactions overwrote the items, and clears them
         everywhere once our copy is provably current. *)
      apply_writes t ctx ~txn writes;
      if tracing t then
        emit t ctx
          (Obs.Control
             { kind = Obs.Recovery; detail = Printf.sprintf "in-doubt txn %d committed" txn });
      resolution_step t ctx
    end
    else if t.pp_outstanding.(slot) > 1 then
      t.pp_outstanding.(slot) <- t.pp_outstanding.(slot) - 1
    else begin
      (* Authoritative abort from the coordinator, or the last probe came
         back negative: presumed abort. *)
      if tracing t then
        emit t ctx
          (Obs.Control
             { kind = Obs.Recovery; detail = Printf.sprintf "in-doubt txn %d aborted" txn });
      settle t ctx ~txn
    end
  end

(* A status request bounced off a dead site.  First bounce (the
   coordinator): fan the probe out to every other site.  Later bounces
   (probes): count them as negative answers. *)
let status_request_failed t ctx ~txn ~dst =
  let slot = prepare_slot t ~txn in
  if slot <> Int_table.absent then begin
    let outstanding = t.pp_outstanding.(slot) in
    if outstanding > 1 then t.pp_outstanding.(slot) <- outstanding - 1
    else if outstanding = 1 then settle t ctx ~txn
    else begin
      match other_sites t ~except:dst with
      | [] -> settle t ctx ~txn
      | targets ->
        t.pp_outstanding.(slot) <- List.length targets;
        List.iter (fun s -> Engine.send ctx s (Message.Txn_status_request { txn })) targets
    end
  end

let handle_txn_status_request t ctx ~txn ~src =
  Engine.work ctx t.cost.Cost_model.ack_process;
  let coord = find_coord t txn in
  let committed =
    if coord != no_coord then begin
      match coord.phase with
      | Committing _ -> true
      | Copying _ | Preparing _ ->
        (* The asker crashed before this transaction could gather every
           vote; it can never commit — abort it now. *)
        Coordinator.abort_txn t ctx coord ~reason:Metrics.Participant_failed ~notify:true;
        false
    end
    else (
      match t.stable with
      | Some wal when Wal.decided_commit wal ~txn -> true
      | Some _ | None ->
        (* Not ours (or long retired): our commit record proves any
           commit we applied.  Copier installs record nothing, so a
           refresh on behalf of the {e requesting} transaction cannot
           masquerade as its commit.  A negative answer is only
           authoritative from the coordinator; the asker treats probe
           negatives as presumed abort once every probe agrees. *)
        applied_commit t ~txn)
  in
  Engine.send ctx src (Message.Txn_status_reply { txn; committed })
