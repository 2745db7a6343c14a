module Vtime = Raid_net.Vtime

type phase = Copy | Prepare | Commit

type control_kind = Recovery | Failure_announce | Backup | Clear_special

type recovery_step =
  | Recover_command
  | Wal_replayed of int
  | Announced of int
  | State_installed

type event =
  | Txn_begin of { txn : int; reads : int; writes : int }
  | Txn_read of { txn : int; item : int; remote : bool }
  | Txn_write of { txn : int; item : int }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; reason : string }
  | Phase_enter of { txn : int; phase : phase }
  | Prepare_sent of { txn : int; participants : int }
  | Vote of { txn : int; participant : int }
  | Decide of { txn : int; commit : bool }
  | Faillock_set of { item : int; for_site : int; txn : int option }
  | Faillock_cleared of { item : int; for_site : int; txn : int option }
  | Session_change of { about : int; session : int; state : string }
  | Site_failed
  | Recovery_step of { step : recovery_step }
  | Control of { kind : control_kind; detail : string }
  | Copier_request of { txn : int; source : int; items : int }
  | Copier_reply of { txn : int; source : int; items : int }

type entry = { at : Vtime.t; site : int; event : event }

type sink = { emit : at:Vtime.t -> site:int -> event -> unit }

type t = {
  capacity : int;
  buffer : entry option array;
  mutable emitted : int;  (* total, including overwritten slots *)
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; buffer = Array.make capacity None; emitted = 0 }

let sink t =
  {
    emit =
      (fun ~at ~site event ->
        t.buffer.(t.emitted mod t.capacity) <- Some { at; site; event };
        t.emitted <- t.emitted + 1);
  }

let tee sinks =
  match sinks with
  | [ sink ] -> sink
  | _ ->
    { emit = (fun ~at ~site event -> List.iter (fun s -> s.emit ~at ~site event) sinks) }

let emitted t = t.emitted
let dropped t = max 0 (t.emitted - t.capacity)
let capacity t = t.capacity

let entries t =
  let count = min t.emitted t.capacity in
  let first = if t.emitted <= t.capacity then 0 else t.emitted mod t.capacity in
  List.init count (fun i ->
      match t.buffer.((first + i) mod t.capacity) with
      | Some entry -> entry
      | None -> assert false)

let phase_name = function Copy -> "copy" | Prepare -> "prepare" | Commit -> "commit"

let recovery_step_name = function
  | Recover_command -> "recover_command"
  | Wal_replayed _ -> "wal_replayed"
  | Announced _ -> "announced"
  | State_installed -> "state_installed"

let control_kind_name = function
  | Recovery -> "control1-recovery"
  | Failure_announce -> "control2-failure"
  | Backup -> "control3-backup"
  | Clear_special -> "clear-special"

let kind = function
  | Txn_begin _ -> "txn_begin"
  | Txn_read _ -> "txn_read"
  | Txn_write _ -> "txn_write"
  | Txn_commit _ -> "txn_commit"
  | Txn_abort _ -> "txn_abort"
  | Phase_enter _ -> "phase_enter"
  | Prepare_sent _ -> "prepare_sent"
  | Vote _ -> "vote"
  | Decide _ -> "decide"
  | Faillock_set _ -> "faillock_set"
  | Faillock_cleared _ -> "faillock_cleared"
  | Session_change _ -> "session_change"
  | Site_failed -> "site_failed"
  | Recovery_step _ -> "recovery_step"
  | Control _ -> "control"
  | Copier_request _ -> "copier_request"
  | Copier_reply _ -> "copier_reply"

let counts t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun { event; _ } ->
      let tag = kind event in
      Hashtbl.replace table tag (1 + Option.value ~default:0 (Hashtbl.find_opt table tag)))
    (entries t);
  List.sort compare (Hashtbl.fold (fun tag count acc -> (tag, count) :: acc) table [])
