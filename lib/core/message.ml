type t =
  | Begin_txn of Txn.t
  | Recover_command
  | Failure_noticed of int list
  | Terminate_command
  | Departure_announce of { site : int }
  | Prepare of { txn : int; writes : Raid_storage.Database.write list; cleared : int list }
  | Prepare_ack of { txn : int }
  | Commit of { txn : int }
  | Commit_ack of { txn : int }
  | Abort of { txn : int; cleared : int list }
  | Copy_request of { txn : int; items : int list }
  | Copy_reply of { txn : int; writes : Raid_storage.Database.write list }
  | Copy_unavailable of { txn : int; items : int list }
  | Faillocks_cleared of { site : int; items : int list }
  | Recovery_announce of { site : int; session : int; want_state : bool }
  | Recovery_state of {
      vector : Session.t;
      faillocks : Faillock.t;
      backups : (int * int list) list;
    }
  | Failure_announce of { failed : int list }
  | Backup_copy of { target : int; write : Raid_storage.Database.write }
  | Faillock_hint of { for_site : int; items : int list }
  | Txn_status_request of { txn : int }
  | Txn_status_reply of { txn : int; committed : bool }

let kind_index = function
  | Begin_txn _ -> 0
  | Recover_command -> 1
  | Failure_noticed _ -> 2
  | Terminate_command -> 3
  | Departure_announce _ -> 4
  | Prepare _ -> 5
  | Prepare_ack _ -> 6
  | Commit _ -> 7
  | Commit_ack _ -> 8
  | Abort _ -> 9
  | Copy_request _ -> 10
  | Copy_reply _ -> 11
  | Copy_unavailable _ -> 12
  | Faillocks_cleared _ -> 13
  | Recovery_announce _ -> 14
  | Recovery_state _ -> 15
  | Failure_announce _ -> 16
  | Backup_copy _ -> 17
  | Faillock_hint _ -> 18
  | Txn_status_request _ -> 19
  | Txn_status_reply _ -> 20

(* Indexed by [kind_index]. *)
let kind_names =
  [|
    "begin_txn"; "recover_command"; "failure_noticed"; "terminate_command"; "departure_announce";
    "prepare"; "prepare_ack"; "commit"; "commit_ack"; "abort"; "copy_request"; "copy_reply";
    "copy_unavailable"; "faillocks_cleared"; "recovery_announce"; "recovery_state";
    "failure_announce"; "backup_copy"; "faillock_hint"; "txn_status_request"; "txn_status_reply";
  |]

let kind_count = Array.length kind_names
let kind_of_index i = kind_names.(i)

(* Kinds pre-registered for aligned telemetry series.  [faillock_hint]
   is deliberately absent: it only flows under partial replication, and
   keeping the full-replication metric set unchanged keeps the exp-1
   telemetry golden byte-identical.  The in-doubt resolution kinds
   [txn_status_request]/[txn_status_reply] are absent for the same
   reason: they only flow when a site recovers with a durably buffered
   prepare.  Unlisted kinds are registered on first use by the engine
   probe. *)
let all_kinds =
  [
    "begin_txn"; "recover_command"; "failure_noticed"; "terminate_command"; "departure_announce";
    "prepare"; "prepare_ack"; "commit"; "commit_ack"; "abort"; "copy_request"; "copy_reply";
    "copy_unavailable"; "faillocks_cleared"; "recovery_announce"; "recovery_state";
    "failure_announce"; "backup_copy";
  ]

let describe = function
  | Begin_txn txn -> Printf.sprintf "begin_txn(%d)" txn.Txn.id
  | Recover_command -> "recover_command"
  | Failure_noticed _ -> "failure_noticed"
  | Terminate_command -> "terminate_command"
  | Departure_announce { site } -> Printf.sprintf "departure_announce(site %d)" site
  | Prepare { txn; writes; cleared } ->
    Printf.sprintf "prepare(%d,%d writes,%d cleared)" txn (List.length writes)
      (List.length cleared)
  | Prepare_ack { txn } -> Printf.sprintf "prepare_ack(%d)" txn
  | Commit { txn } -> Printf.sprintf "commit(%d)" txn
  | Commit_ack { txn } -> Printf.sprintf "commit_ack(%d)" txn
  | Abort { txn; cleared } -> Printf.sprintf "abort(%d,%d cleared)" txn (List.length cleared)
  | Copy_request { txn; items } ->
    Printf.sprintf "copy_request(%d,%d items)" txn (List.length items)
  | Copy_reply { txn; writes } ->
    Printf.sprintf "copy_reply(%d,%d items)" txn (List.length writes)
  | Copy_unavailable { txn; items } ->
    Printf.sprintf "copy_unavailable(%d,%d items)" txn (List.length items)
  | Faillocks_cleared { site; items } ->
    Printf.sprintf "faillocks_cleared(site %d,%d items)" site (List.length items)
  | Recovery_announce { site; session; want_state } ->
    Printf.sprintf "recovery_announce(site %d,session %d%s)" site session
      (if want_state then ",want_state" else "")
  | Recovery_state _ -> "recovery_state"
  | Failure_announce { failed } ->
    Printf.sprintf "failure_announce(%s)" (String.concat "," (List.map string_of_int failed))
  | Backup_copy { target; write } ->
    Printf.sprintf "backup_copy(item %d -> site %d)" write.Raid_storage.Database.item target
  | Faillock_hint { for_site; items } ->
    Printf.sprintf "faillock_hint(site %d,%d items)" for_site (List.length items)
  | Txn_status_request { txn } -> Printf.sprintf "txn_status_request(%d)" txn
  | Txn_status_reply { txn; committed } ->
    Printf.sprintf "txn_status_reply(%d,%s)" txn (if committed then "committed" else "aborted")
