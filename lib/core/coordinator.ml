(* The coordinating site (Appendix A, "actions at the coordinating
   site"): copier rounds, both phases of the two-phase commit, abort,
   and the batch copier rounds and control-3 backups of the paper's §3.2
   extensions. *)

open Site_state

(* {2 Copier requests} *)

(* The lowest-id operational site above [above] (other than this one)
   holding an up-to-date copy of [item], per this site's fail-lock table
   and placement view. *)
let find_source t ~above item =
  if t.full then
    Session.first_operational t.vector (fun s ->
        s <> t.id && s > above && not (Faillock.is_locked t.faillocks ~item ~site:s))
  else begin
    (* O(k): scan the item's holders instead of the operational list. *)
    let best = ref (-1) in
    Placement.View.iter_holders t.placement item (fun s ->
        if
          s <> t.id
          && s > above
          && ((!best < 0) || s < !best)
          && Session.is_up t.vector s
          && not (Faillock.is_locked t.faillocks ~item ~site:s)
        then best := s);
    if !best < 0 then None else Some !best
  end

(* Group items by source ([find_source]); items with no available
   source are dropped.  Groups come back in increasing source order with
   each group's items in request order. *)
let group_by_source t ~above items =
  let num_sites = Session.num_sites t.vector in
  let by_source = Array.make num_sites [] in
  List.iter
    (fun item ->
      match find_source t ~above item with
      | None -> ()
      | Some s -> by_source.(s) <- item :: by_source.(s))
    items;
  let groups = ref [] in
  for s = num_sites - 1 downto 0 do
    if by_source.(s) <> [] then groups := (s, List.rev by_source.(s)) :: !groups
  done;
  !groups

(* Whether [groups] found a source for every one of the (distinct)
   [items]. *)
let covers groups items =
  List.fold_left (fun n (_, group) -> n + List.length group) 0 groups = List.length items

let send_copy_request t ctx ~txn ~source items =
  Engine.work ctx t.cost.Cost_model.copier_request_send;
  Engine.send ctx source (Message.Copy_request { txn; items });
  t.metrics.Metrics.copier_requests <- t.metrics.Metrics.copier_requests + 1;
  if tracing t then
    emit t ctx (Obs.Copier_request { txn; source; items = List.length items })

let request_copies t ctx coord c groups =
  if Array.length c.pending = 0 then c.pending <- Array.make (Session.num_sites t.vector) 0;
  List.iter
    (fun (source, items) ->
      c.pending.(source) <- c.pending.(source) + 1;
      c.remaining <- c.remaining + 1;
      coord.copier_requests <- coord.copier_requests + 1;
      send_copy_request t ctx ~txn:coord.txn.Txn.id ~source items)
    groups

(* Refresh local copies from a copier reply.  Writes not newer than the
   local copy are skipped (the copy may have been refreshed by a write
   committed after the request was issued).  Clears this site's own
   fail-lock bits; returns (and counts as refreshed) the items whose bit
   was actually cleared. *)
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
  t.metrics.Metrics.copier_items_refreshed <-
    t.metrics.Metrics.copier_items_refreshed + List.length cleared;
  cleared

(* {2 Two-step recovery (paper §3.2 extension)} *)

let rec start_batch_round t ctx =
  match t.config.Config.recovery with
  | Config.On_demand -> ()
  | Config.Two_step { threshold; batch_size } ->
    if t.batch = None && Int_table.length t.coords = 0 && t.mode = Normal then begin
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
        match group_by_source t ~above:(-1) take with
        | [] -> ()  (* nothing refreshable right now *)
        | groups ->
          t.batch_seq <- t.batch_seq + 1;
          let round_id = -t.batch_seq in
          let pending_sources = Bitset.create (Session.num_sites t.vector) in
          List.iter
            (fun (source, items) ->
              Bitset.set pending_sources source;
              send_copy_request t ctx ~txn:round_id ~source items)
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

(* A source of batch round [txn] answered or turned out dead; replies
   from an abandoned round are ignored. *)
let batch_source_done t ctx ~txn ~source =
  match t.batch with
  | Some b when b.round_id = txn -> finish_batch_source t ctx b source
  | _ -> ()

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
            let backup = Message.Backup_copy { target; write } in
            iter_others t (fun r -> Engine.send ctx r backup);
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

(* {2 Outcome} *)

let finish t ctx coord ~committed ~abort_reason ~reads =
  let elapsed = Vtime.sub (Engine.time ctx) coord.started_at in
  if committed then begin
    t.metrics.Metrics.txns_committed <- t.metrics.Metrics.txns_committed + 1;
    if coord.copier_requests > 0 then
      Metrics.Samples.add t.metrics.Metrics.coordinator_copier_ms elapsed
    else
      Metrics.Samples.add t.metrics.Metrics.coordinator_ms elapsed
  end
  else begin
    t.metrics.Metrics.txns_aborted <- t.metrics.Metrics.txns_aborted + 1;
    Metrics.Samples.add t.metrics.Metrics.abort_ms elapsed
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
  remove_coord t ~txn:coord.txn.Txn.id;
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
      if List.mem item coord.fetch_only then
        List.find_map
          (fun { Database.item = i; value; version } ->
            if i = item then Some (item, value, version) else None)
          coord.remote_reads
      else
        match Database.read t.db item with
        | Some (value, version) -> Some (item, value, version)
        | None -> None)
    (Txn.read_items coord.txn)

let local_commit t ctx coord =
  (match coord.phase with
  | Committing c ->
    Metrics.Samples.add t.metrics.Metrics.phase_commit_ms
      (Vtime.sub (Engine.time ctx) coord.phase_entered_at);
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

let abort_txn t ctx coord ~reason ~notify =
  (* With embedded clears, an abort message still carries the fail-lock
     bits our copier transactions cleared, so other sites do not keep
     stale bits for this site. *)
  let cleared = if t.config.Config.embed_clears then coord.cleared_items else [] in
  if notify || cleared <> [] then begin
    let abort = Message.Abort { txn = coord.txn.Txn.id; cleared } in
    iter_others t (fun p -> Engine.send ctx p abort);
    if notify && tracing t then
      emit t ctx (Obs.Decide { txn = coord.txn.Txn.id; commit = false })
  end;
  (* Without embedded clears an abort message carries nothing, yet copier
     installs that already ran have cleared local bits other sites track
     (an abort in the copy phase never reached the end-of-phase special
     transaction), so announce them explicitly. *)
  if not t.config.Config.embed_clears then broadcast_clears t ctx coord.cleared_items;
  finish t ctx coord ~committed:false ~abort_reason:(Some reason) ~reads:[]

(* {2 Two-phase commit} *)

(* Begin phase 1: send the copy updates to the participants — every
   operational site under full replication, the operational holders of
   the written items under partial replication. *)
let begin_phase1 t ctx coord =
  (* Close the copier phase: only transactions that actually ran a copier
     round contribute a phase-copy sample (and span). *)
  if coord.copier_requests > 0 then
    Metrics.Samples.add t.metrics.Metrics.phase_copy_ms
      (Vtime.sub (Engine.time ctx) coord.phase_entered_at);
  (* Under full replication every operational site participates, even one
     storing none of the written items: fail-locks are fully replicated
     (paper §1.1), so every site must see the commit to maintain its
     table.  Under partial replication fail-lock knowledge is group-local,
     so only the operational holders of the written items participate —
     the 2PC fan-out is O(k · writes) instead of O(sites). *)
  let participants = Bitset.create (Session.num_sites t.vector) in
  let participant_count = ref 0 in
  if t.full then begin
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
    (* One payload for the whole fan-out: the engine then builds one
       event for it, not one per participant. *)
    let prepare = Message.Prepare { txn = coord.txn.Txn.id; writes = coord.writes; cleared } in
    Bitset.iter
      (fun p ->
        Engine.work ctx t.cost.Cost_model.prepare_send;
        Engine.send ctx p prepare)
      participants
  end

(* The reads needing a copier, in read order: fail-locked local copies
   (paper §1.2), and, under partial replication, items with no local
   copy, which are fetched without being installed.  One pass with no
   closure; the shared [([], [])] when no read needs one. *)
let rec copier_reads t = function
  | [] -> ([], [])
  | item :: items ->
    let ((needed, fetch_only) as rest) = copier_reads t items in
    if not (stores t ~item) then (needed, item :: fetch_only)
    else if faillocks_on t && Faillock.is_locked t.faillocks ~item ~site:t.id then
      (item :: needed, fetch_only)
    else rest

let begin_txn t ctx txn =
  (* Multiple transactions may be coordinated here concurrently (the
     concurrency-control extension); the same id must not be reused. *)
  if Int_table.mem t.coords txn.Txn.id then begin
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
    List.fold_left (fun n op -> match op with Txn.Read _ -> n + 1 | Txn.Write _ -> n) 0 txn.Txn.ops
  in
  if faillocks_on t then Engine.work ctx (read_ops * t.cost.Cost_model.faillock_read_check);
  let writes =
    List.map
      (fun item -> { Database.item; value = txn.Txn.id; version = txn.Txn.id })
      (Txn.write_items txn)
  in
  let copying = { pending = [||]; remaining = 0 } in
  let coord =
    {
      txn;
      started_at;
      writes;
      phase = Copying copying;
      phase_entered_at = started_at;
      copier_requests = 0;
      copier_items = 0;
      cleared_items = [];
      fetch_only = [];
      remote_reads = [];
    }
  in
  add_coord t coord;
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
  let needed, fetch_only = copier_reads t (Txn.read_items txn) in
  coord.fetch_only <- fetch_only;
  if tracing t then begin
    List.iter
      (fun item ->
        emit t ctx
          (Obs.Txn_read
             { txn = txn.Txn.id; item; remote = List.mem item coord.fetch_only }))
      (Txn.read_items txn);
    List.iter
      (fun { Database.item; _ } -> emit t ctx (Obs.Txn_write { txn = txn.Txn.id; item }))
      writes
  end;
  let to_fetch = needed @ fetch_only in
  if to_fetch = [] then begin_phase1 t ctx coord
  else begin
    let groups = group_by_source t ~above:(-1) to_fetch in
    if not (covers groups to_fetch) then begin
      (* Some needed copy has no operational up-to-date source: "the
         inability to get up-to-date copies via copier transactions"
         aborts the transaction (paper §4.2.1). *)
      finish t ctx coord ~committed:false ~abort_reason:(Some Metrics.Copier_unavailable)
        ~reads:[]
    end
    else begin
      if tracing t then
        emit t ctx (Obs.Phase_enter { txn = txn.Txn.id; phase = Obs.Copy });
      request_copies t ctx coord copying groups;
      coord.phase_entered_at <- Engine.time ctx
    end
  end
  end

let handle_copy_reply t ctx ~txn ~writes ~src =
  if tracing t then
    emit t ctx (Obs.Copier_reply { txn; source = src; items = List.length writes });
  if txn < 0 then begin
    (* Batch copier round (two-step recovery). *)
    match t.batch with
    | Some b when b.round_id = txn ->
      broadcast_clears t ctx (install_refreshed t ctx ~round:txn writes);
      finish_batch_source t ctx b src
    | _ -> ()  (* stale reply from an abandoned round *)
  end
  else
    let coord = find_coord t txn in
    if coord != no_coord then begin
      match coord.phase with
      | Copying c ->
        let installable, fetch_only =
          List.partition
            (fun { Database.item; _ } -> not (List.mem item coord.fetch_only))
            writes
        in
        coord.remote_reads <- List.rev_append fetch_only coord.remote_reads;
        let cleared = install_refreshed t ctx ~round:txn installable in
        coord.copier_items <- coord.copier_items + List.length cleared;
        coord.cleared_items <- cleared @ coord.cleared_items;
        if src < Array.length c.pending && c.pending.(src) > 0 then begin
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

(* A source refused [items] (its own copy is stale).  Under partial
   replication a non-holder coordinator has no fail-lock knowledge for
   the item, so the holder it picked may itself be stale: the refusal is
   authoritative only about that holder's copy, so each refused item is
   retried at its next holder in id order.  Source ids increase strictly
   on every retry, so the loop terminates; only when an item has no
   further candidate does the transaction abort (the paper's "inability
   to get up-to-date copies" case).  The refusing source still sends its
   Copy_reply for the items it could serve, which is what decrements its
   pending slot. *)
let handle_copy_unavailable t ctx ~txn ~items ~src =
  if txn < 0 then batch_source_done t ctx ~txn ~source:src
  else
    let coord = find_coord t txn in
    if coord != no_coord then begin
      match coord.phase with
      | Copying c when partial t ->
        let groups = group_by_source t ~above:src items in
        if covers groups items then request_copies t ctx coord c groups
        else abort_txn t ctx coord ~reason:Metrics.Copier_unavailable ~notify:false
      | Copying _ | Preparing _ | Committing _ ->
        abort_txn t ctx coord ~reason:Metrics.Copier_unavailable ~notify:false
    end

(* [no_coord] is in its copy phase, so the two ack handlers need not
   test for it. *)
let handle_prepare_ack t ctx ~txn ~src =
  let coord = find_coord t txn in
  match coord.phase with
  | Preparing p ->
    Engine.work ctx t.cost.Cost_model.ack_process;
    if Bitset.mem p.pending_acks src then begin
      Bitset.clear p.pending_acks src;
      p.remaining <- p.remaining - 1;
      if p.remaining = 0 then begin
        Metrics.Samples.add t.metrics.Metrics.phase_prepare_ms
          (Vtime.sub (Engine.time ctx) coord.phase_entered_at);
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
        let commit = Message.Commit { txn } in
        Bitset.iter (fun s -> Engine.send ctx s commit) p.participants
      end
    end
  | Copying _ | Committing _ -> ()

let handle_commit_ack t ctx ~txn ~src =
  let coord = find_coord t txn in
  match coord.phase with
  | Committing c ->
    Engine.work ctx t.cost.Cost_model.ack_process;
    if Bitset.mem c.pending_acks src then begin
      Bitset.clear c.pending_acks src;
      c.remaining <- c.remaining - 1;
      if c.remaining = 0 then local_commit t ctx coord
    end
  | Copying _ | Preparing _ -> ()

(* {2 Undeliverable requests (Appendix A "site is now down" branches)}

   The caller has already run control-2 for [dst]. *)

let copy_request_failed t ctx ~txn ~dst =
  if txn < 0 then batch_source_done t ctx ~txn ~source:dst
  else
    let coord = find_coord t txn in
    if coord != no_coord then
      abort_txn t ctx coord ~reason:Metrics.Copier_source_failed ~notify:false

let prepare_failed t ctx ~txn =
  let coord = find_coord t txn in
  if coord != no_coord then abort_txn t ctx coord ~reason:Metrics.Participant_failed ~notify:true

let commit_failed t ctx ~txn ~dst =
  let coord = find_coord t txn in
  match coord.phase with
  | Committing c when Bitset.mem c.pending_acks dst ->
    c.lost <- true;
    (* The witness bits our local commit is about to set for [dst] exist
       nowhere else: the other participants cleared dst's bits believing
       it up.  If dst later recovers from a state donor other than us,
       that donor would ship it a fail-lock table missing its own
       staleness — broadcast the bits as hints so every survivor records
       them. *)
    (if faillocks_on t then begin
       let items =
         List.filter_map
           (fun { Database.item; _ } ->
             if believes_stored t ~site:dst ~item then Some item else None)
           coord.writes
       in
       if items <> [] then begin
         let hint = Message.Faillock_hint { for_site = dst; items } in
         iter_others t (fun r -> Engine.send ctx r hint)
       end
     end);
    Bitset.clear c.pending_acks dst;
    c.remaining <- c.remaining - 1;
    if c.remaining = 0 then local_commit t ctx coord
  | Copying _ | Preparing _ | Committing _ -> ()
