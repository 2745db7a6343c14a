(* The public face of a site: its state and inspection functions come
   from [Site_state]; the handler dispatches each event to the protocol
   role that acts on it ([Coordinator], [Participant], [Recovery]). *)

include Site_state

let on_crash = Recovery.on_crash

let handle_message t ctx ~src payload =
  match payload with
  | Message.Begin_txn txn -> Coordinator.begin_txn t ctx txn
  | Message.Recover_command -> Recovery.begin_recovery t ctx
  | Message.Failure_noticed failed -> Recovery.announce_failures t ctx failed
  | Message.Terminate_command -> Recovery.depart t ctx
  | Message.Departure_announce { site } -> Session.mark_terminating t.vector site
  | Message.Prepare { txn; writes; cleared } ->
    Participant.handle_prepare t ctx ~txn ~writes ~cleared ~src
  | Message.Prepare_ack { txn } -> Coordinator.handle_prepare_ack t ctx ~txn ~src
  | Message.Commit { txn } -> Participant.handle_commit t ctx ~txn ~src
  | Message.Commit_ack { txn } -> Coordinator.handle_commit_ack t ctx ~txn ~src
  | Message.Abort { txn; cleared } -> Participant.handle_abort t ctx ~txn ~cleared ~src
  | Message.Copy_request { txn; items } -> Participant.serve_copies t ctx ~txn ~items ~src
  | Message.Copy_reply { txn; writes } -> Coordinator.handle_copy_reply t ctx ~txn ~writes ~src
  | Message.Copy_unavailable { txn; items } ->
    Coordinator.handle_copy_unavailable t ctx ~txn ~items ~src
  | Message.Faillocks_cleared { site; items } ->
    Participant.handle_faillocks_cleared t ctx ~site ~items
  | Message.Recovery_announce { site; session; want_state } ->
    Recovery.handle_recovery_announce t ctx ~site ~session ~want_state ~src
  | Message.Txn_status_request { txn } -> Recovery.handle_txn_status_request t ctx ~txn ~src
  | Message.Txn_status_reply { txn; committed } -> Recovery.resolve_in_doubt t ctx ~txn ~committed
  | Message.Recovery_state { vector; faillocks; backups } ->
    Recovery.handle_recovery_state t ctx ~vector ~faillocks ~backups
  | Message.Failure_announce { failed } -> Recovery.handle_failure_announce t ctx failed
  | Message.Faillock_hint { for_site; items } -> Participant.handle_faillock_hint t ~for_site ~items
  | Message.Backup_copy { target; write } -> Participant.handle_backup_copy t ctx ~target ~write

(* Appendix A's "site is now down" branches: a message to [dst] could
   not be delivered. *)
let handle_send_failed t ctx ~dst ~payload =
  match payload with
  | Message.Begin_txn _ | Message.Recover_command | Message.Failure_noticed _
  | Message.Terminate_command ->
    ()  (* managing-site inputs are never sent site-to-site *)
  | Message.Prepare_ack { txn } ->
    (* The coordinator died before our acknowledgement arrived: it never
       decided this transaction, so the prepare is presumed aborted. *)
    Recovery.presume_aborted t ctx ~txn;
    Recovery.announce_failures t ctx [ dst ]
  | Message.Txn_status_request { txn } ->
    Recovery.peer_down t ctx dst;
    Recovery.status_request_failed t ctx ~txn ~dst
  | Message.Recovery_announce { want_state; _ } ->
    if want_state then Recovery.donor_failed t ctx ~dst else Recovery.peer_down t ctx dst
  | _ -> (
    (* Control-2 first, then whatever this site had pending on [dst].  A
       reply or announcement to a dead site leaves nothing pending: the
       asker will ask again when it recovers. *)
    Recovery.announce_failures t ctx [ dst ];
    match payload with
    | Message.Copy_request { txn; _ } -> Coordinator.copy_request_failed t ctx ~txn ~dst
    | Message.Prepare { txn; _ } -> Coordinator.prepare_failed t ctx ~txn
    | Message.Commit { txn } -> Coordinator.commit_failed t ctx ~txn ~dst
    | _ -> ())

let handler t ctx event =
  if tracing t then t.obs_ctx <- Some ctx;
  match event with
  | Engine.Message { src; payload } -> handle_message t ctx ~src payload
  | Engine.Send_failed { dst; payload } -> handle_send_failed t ctx ~dst ~payload
  | Engine.Timer _ -> ()
