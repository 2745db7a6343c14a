type abort_reason =
  | Copier_unavailable
  | Copier_source_failed
  | Participant_failed
  | Write_unavailable

type outcome = {
  txn : Txn.t;
  coordinator : int;
  committed : bool;
  abort_reason : abort_reason option;
  copier_requests : int;
  copier_items : int;
  reads : (int * int * int) list;
  writes : Raid_storage.Database.write list;
  elapsed : Raid_net.Vtime.t;
}

module Samples = struct
  (* Virtual times in an [int array] grown by doubling: one word a
     sample, stored without a write barrier or a boxed float, and
     converted with [Vtime.to_ms] only when read.  Spare capacity is
     zero-filled, so structural equality still compares samples. *)
  type t = { mutable data : int array; mutable length : int }

  let create () = { data = [||]; length = 0 }

  let add t x =
    if t.length = Array.length t.data then begin
      let data = Array.make (max 16 (2 * t.length)) 0 in
      Array.blit t.data 0 data 0 t.length;
      t.data <- data
    end;
    t.data.(t.length) <- x;
    t.length <- t.length + 1

  let to_list t =
    let rec from i acc =
      if i = t.length then acc else from (i + 1) (Raid_net.Vtime.to_ms t.data.(i) :: acc)
    in
    from 0 []
end

type t = {
  mutable txns_committed : int;
  mutable txns_aborted : int;
  mutable copier_requests : int;
  mutable copier_items_refreshed : int;
  mutable batch_copier_rounds : int;
  mutable clear_specials_sent : int;
  mutable control1_completed : int;
  mutable control2_announcements : int;
  mutable control3_backups : int;
  mutable faillocks_set : int;
  mutable faillocks_cleared : int;
  coordinator_ms : Samples.t;
  coordinator_copier_ms : Samples.t;
  abort_ms : Samples.t;
  participant_ms : Samples.t;
  phase_copy_ms : Samples.t;
  phase_prepare_ms : Samples.t;
  phase_commit_ms : Samples.t;
  control1_recovering_ms : Samples.t;
  control1_operational_ms : Samples.t;
  control2_ms : Samples.t;
  copy_serve_ms : Samples.t;
  clear_special_ms : Samples.t;
}

let create () =
  {
    txns_committed = 0;
    txns_aborted = 0;
    copier_requests = 0;
    copier_items_refreshed = 0;
    batch_copier_rounds = 0;
    clear_specials_sent = 0;
    control1_completed = 0;
    control2_announcements = 0;
    control3_backups = 0;
    faillocks_set = 0;
    faillocks_cleared = 0;
    coordinator_ms = Samples.create ();
    coordinator_copier_ms = Samples.create ();
    abort_ms = Samples.create ();
    participant_ms = Samples.create ();
    phase_copy_ms = Samples.create ();
    phase_prepare_ms = Samples.create ();
    phase_commit_ms = Samples.create ();
    control1_recovering_ms = Samples.create ();
    control1_operational_ms = Samples.create ();
    control2_ms = Samples.create ();
    copy_serve_ms = Samples.create ();
    clear_special_ms = Samples.create ();
  }

(* Every latency sample list, labelled, for the observability reports:
   first by transaction outcome, then by 2PC phase, then the control and
   service samples the Experiment-1 tables quote. *)
let sample_groups t =
  [
    ("commit (no copier)", t.coordinator_ms);
    ("commit (with copier)", t.coordinator_copier_ms);
    ("abort", t.abort_ms);
    ("participant", t.participant_ms);
    ("phase: copy", t.phase_copy_ms);
    ("phase: prepare", t.phase_prepare_ms);
    ("phase: commit", t.phase_commit_ms);
    ("control1 (recovering)", t.control1_recovering_ms);
    ("control1 (operational)", t.control1_operational_ms);
    ("control2", t.control2_ms);
    ("copy serve", t.copy_serve_ms);
    ("clear special", t.clear_special_ms);
  ]

let counters =
  [
    ("txns_committed", fun t -> t.txns_committed);
    ("txns_aborted", fun t -> t.txns_aborted);
    ("copier_requests", fun t -> t.copier_requests);
    ("copier_items_refreshed", fun t -> t.copier_items_refreshed);
    ("batch_copier_rounds", fun t -> t.batch_copier_rounds);
    ("clear_specials_sent", fun t -> t.clear_specials_sent);
    ("control1_completed", fun t -> t.control1_completed);
    ("control2_announcements", fun t -> t.control2_announcements);
    ("control3_backups", fun t -> t.control3_backups);
    ("faillocks_set", fun t -> t.faillocks_set);
    ("faillocks_cleared", fun t -> t.faillocks_cleared);
  ]

let snapshot_counts t = List.map (fun (name, get) -> (name, get t)) counters

let latency_groups t =
  List.map (fun (label, samples) -> (label, Samples.to_list samples)) (sample_groups t)

let pp_abort_reason ppf = function
  | Copier_unavailable -> Format.pp_print_string ppf "copier-unavailable"
  | Copier_source_failed -> Format.pp_print_string ppf "copier-source-failed"
  | Participant_failed -> Format.pp_print_string ppf "participant-failed"
  | Write_unavailable -> Format.pp_print_string ppf "write-unavailable"
