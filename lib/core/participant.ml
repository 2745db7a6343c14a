(* The participating site (Appendix A, "actions at a participating
   site"): voting on prepares, applying commits and aborts, serving
   copier requests, and keeping the fail-lock table current from clear
   specials, hints and control-3 backups. *)

open Site_state

(* Fail-lock bits for the coordinator that its copiers cleared, carried
   by a prepare or abort under [Config.embed_clears]. *)
let apply_embedded_clears t ~coordinator ~txn items =
  if items <> [] then begin
    if tracing t then t.faillock_txn <- Some txn;
    clear_faillocks t ~site:coordinator items;
    t.faillock_txn <- None
  end

let handle_prepare t ctx ~txn ~writes ~cleared ~src =
  apply_embedded_clears t ~coordinator:src ~txn cleared;
  buffer_prepare t ~txn ~coordinator:src ~started:(Engine.time ctx) writes;
  (* Log the prepare before voting yes: a crash between the vote and the
     decision must leave enough on stable storage to apply (or resolve)
     the transaction on recovery. *)
  (match t.stable with
  | None -> ()
  | Some wal -> Wal.log_prepare wal ~txn ~coordinator:src writes);
  Engine.work ctx t.cost.Cost_model.prepare_process;
  Engine.send ctx src (Message.Prepare_ack { txn });
  if tracing t then emit t ctx (Obs.Vote { txn; participant = t.id })

(* The coordinator's decision.  A prepare reloaded from the WAL is one
   of the in-doubt prepares holding back control-1: a site that restarts
   within one message latency of its crash can still receive the Commit
   sent to its previous incarnation, and that Commit is the prepare's
   verdict — the status reply that follows finds nothing to resolve. *)
let handle_commit t ctx ~txn ~src =
  let slot = prepare_slot t ~txn in
  (* An unknown transaction (e.g. prepared before a crash) is ignored. *)
  if slot <> Int_table.absent then begin
    let writes = t.pp_writes.(slot) and started = t.pp_started.(slot) in
    forget_in_doubt t ~txn;
    (* Acknowledge before applying: the coordinator does not wait on our
       local commit work (see Cost_model calibration notes). *)
    Engine.send ctx src (Message.Commit_ack { txn });
    apply_writes t ctx ~txn writes;
    faillock_commit_update t ctx ~txn writes;
    if started >= 0 then
      Metrics.Samples.add t.metrics.Metrics.participant_ms
        (Vtime.sub (Engine.time ctx) started)
    else Recovery.resolution_step t ctx;
    Coordinator.start_batch_round t ctx
  end

let handle_abort t ctx ~txn ~cleared ~src =
  apply_embedded_clears t ~coordinator:src ~txn cleared;
  Recovery.presume_aborted t ctx ~txn

(* Serve up-to-date copies; items our own copy is fail-locked for (or
   that we do not store) cannot be served. *)
let serve_copies t ctx ~txn ~items ~src =
  let good, bad =
    List.partition
      (fun item -> stores t ~item && not (Faillock.is_locked t.faillocks ~item ~site:t.id))
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
    (t.cost.Cost_model.copier_serve_base
    + (List.length good * t.cost.Cost_model.copier_serve_per_item)
    + t.cost.Cost_model.message_latency);
  if bad <> [] then Engine.send ctx src (Message.Copy_unavailable { txn; items = bad });
  Engine.send ctx src (Message.Copy_reply { txn; writes })

let handle_faillocks_cleared t ctx ~site ~items =
  Engine.work ctx t.cost.Cost_model.faillock_clear_process;
  clear_faillocks t ~site items;
  Metrics.Samples.add t.metrics.Metrics.clear_special_ms
    (t.cost.Cost_model.faillock_clear_process + t.cost.Cost_model.message_latency)

let handle_faillock_hint t ~for_site ~items =
  if for_site = t.id then begin
    match t.mode with
    | Waiting_recovery w -> w.hints <- items :: w.hints
    | Normal -> set_faillocks t ~site:t.id items
  end
  else if faillocks_on t then
    (* A coordinator witnessed [for_site] die mid-commit: record the
       missed items so any state donor ships the staleness. *)
    set_faillocks t ~site:for_site items

let handle_backup_copy t ctx ~target ~write =
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
