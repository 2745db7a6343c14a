module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Lock_manager = Raid_core.Lock_manager
module Txn = Raid_core.Txn
module Rng = Raid_util.Rng
module Stats = Raid_util.Stats
module Table = Raid_util.Table

type result = {
  committed : int;
  aborted : int;
  lost : int;
  makespan_ms : float;
  mean_txn_ms : float;
  max_in_flight : int;
  cluster : Cluster.t;
}

type state = {
  cluster : Cluster.t;
  locks : Lock_manager.t;
  mutable waiting : (Txn.t * (int * Lock_manager.mode) list) list;  (* id order *)
  assigned : (int, int) Hashtbl.t;  (* in-flight txn -> its coordinator *)
  mutable in_flight : int;
  mutable max_in_flight : int;
  mutable lost : int;
  mutable next_coordinator : int;
  concurrency : int;
}

let pick_coordinator state =
  let operational = Cluster.operational state.cluster in
  let n = List.length operational in
  let pick = List.nth operational (state.next_coordinator mod n) in
  state.next_coordinator <- state.next_coordinator + 1;
  pick

(* Admit every waiting transaction whose locks are free, skipping any that
   conflicts with an earlier waiting transaction (per-item version order
   must follow transaction ids). *)
let rec admit state =
  if state.in_flight < state.concurrency then begin
    let rec scan earlier = function
      | [] -> None
      | ((txn, lockset) as entry) :: rest ->
        let blocked_by_earlier =
          List.exists (fun (_, other) -> Lock_manager.conflicts lockset other) earlier
        in
        if (not blocked_by_earlier) && Lock_manager.try_acquire state.locks ~txn:txn.Txn.id lockset
        then Some (txn, List.rev_append earlier rest)
        else scan (entry :: earlier) rest
    in
    match scan [] state.waiting with
    | None -> ()
    | Some (txn, remaining) ->
      state.waiting <- remaining;
      state.in_flight <- state.in_flight + 1;
      state.max_in_flight <- max state.max_in_flight state.in_flight;
      let coordinator = pick_coordinator state in
      Hashtbl.replace state.assigned txn.Txn.id coordinator;
      Cluster.inject_txn state.cluster ~coordinator txn;
      admit state
  end

(* Chaos support: a crashed coordinator takes its in-flight transactions
   with it (no outcome will ever arrive); release their locks and account
   them as lost. *)
let reap_lost state site =
  let victims =
    Hashtbl.fold (fun txn c acc -> if c = site then txn :: acc else acc) state.assigned []
  in
  List.iter
    (fun txn ->
      Hashtbl.remove state.assigned txn;
      Lock_manager.release_all state.locks ~txn;
      state.in_flight <- state.in_flight - 1;
      state.lost <- state.lost + 1)
    victims

let run ?(seed = 17) ?(concurrency = 4) ?(txns = 200) ?(churn = []) ?telemetry ~config
    ~workload () =
  if concurrency <= 0 then invalid_arg "Concurrent.run: concurrency must be positive";
  if txns <= 0 then invalid_arg "Concurrent.run: txns must be positive";
  let cluster = Cluster.of_spec (Cluster.Spec.make ?telemetry config) in
  let generator =
    Workload.create workload ~num_items:config.Config.num_items ~rng:(Rng.create seed)
  in
  let state =
    {
      cluster;
      locks = Lock_manager.create ~num_items:config.Config.num_items;
      waiting = [];
      assigned = Hashtbl.create 16;
      in_flight = 0;
      max_in_flight = 0;
      lost = 0;
      next_coordinator = 0;
      concurrency;
    }
  in
  state.waiting <-
    List.init txns (fun _ ->
        let id = Cluster.next_txn_id cluster in
        let txn = Workload.next generator ~id in
        (txn, Lock_manager.of_txn txn));
  (match telemetry with
  | None -> ()
  | Some registry ->
    let module Telemetry = Raid_obs.Telemetry in
    Telemetry.gauge registry "raid_lock_table_locked"
      ~help:"Items locked in the strict-2PL table" (fun () ->
        float_of_int (Lock_manager.locked_count state.locks));
    Telemetry.gauge registry "raid_lock_queue_depth"
      ~help:"Transactions waiting for admission (lock-manager queue depth)" (fun () ->
        float_of_int (List.length state.waiting));
    Telemetry.gauge registry "raid_lock_in_flight"
      ~help:"Transactions currently in flight under the concurrent driver" (fun () ->
        float_of_int state.in_flight));
  let committed = ref 0 and aborted = ref 0 in
  Cluster.set_outcome_hook cluster
    (Some
       (fun outcome ->
         if outcome.Metrics.committed then incr committed else incr aborted;
         Hashtbl.remove state.assigned outcome.Metrics.txn.Txn.id;
         Lock_manager.release_all state.locks ~txn:outcome.Metrics.txn.Txn.id;
         state.in_flight <- state.in_flight - 1;
         admit state));
  admit state;
  (* Drive to quiescence, applying churn events once their completion
     thresholds are reached. *)
  let pending_churn = ref (List.sort compare churn) in
  let finished () = !committed + !aborted + state.lost in
  let apply_due_churn () =
    match !pending_churn with
    | (threshold, action) :: rest when finished () >= threshold ->
      pending_churn := rest;
      (match action with
      | `Fail site ->
        Cluster.fail_site cluster site;
        reap_lost state site
      | `Recover site -> if not (Cluster.alive cluster site) then ignore (Cluster.recover_site cluster site));
      admit state
    | _ -> ()
  in
  let engine = Cluster.engine cluster in
  let rec drive () =
    apply_due_churn ();
    if Raid_net.Engine.step engine then drive ()
    else if !pending_churn <> [] && finished () >= fst (List.hd !pending_churn) then drive ()
    else ()
  in
  drive ();
  Cluster.set_outcome_hook cluster None;
  if state.waiting <> [] then
    failwith
      (Printf.sprintf "Concurrent.run: %d transactions were never admitted"
         (List.length state.waiting));
  let metrics = Cluster.metrics cluster in
  let mean_txn_ms =
    match
      Metrics.Samples.to_list metrics.Metrics.coordinator_ms
      @ Metrics.Samples.to_list metrics.Metrics.coordinator_copier_ms
    with
    | [] -> 0.0
    | samples -> Stats.mean samples
  in
  {
    committed = !committed;
    aborted = !aborted;
    lost = state.lost;
    makespan_ms = Raid_net.Vtime.to_ms (Raid_net.Engine.now (Cluster.engine cluster));
    mean_txn_ms;
    max_in_flight = state.max_in_flight;
    cluster;
  }

type sweep_row = {
  level : int;
  sweep_makespan_ms : float;
  sweep_mean_txn_ms : float;
  speedup : float;
}

let sweep ?domains ?(seed = 17) ?(levels = [ 1; 2; 4; 8; 16 ]) ?(txns = 200) ?(num_sites = 4) () =
  let workload = Workload.Uniform { max_ops = 5; write_prob = 0.5 } in
  let results =
    Raid_par.Pool.map ?domains
      (fun level ->
        let config = Config.make ~num_sites ~num_items:50 () in
        (level, run ~seed ~concurrency:level ~txns ~config ~workload ()))
      levels
  in
  let serial_makespan =
    match results with (_, first) :: _ -> first.makespan_ms | [] -> 0.0
  in
  List.map
    (fun (level, r) ->
      {
        level;
        sweep_makespan_ms = r.makespan_ms;
        sweep_mean_txn_ms = r.mean_txn_ms;
        speedup = serial_makespan /. r.makespan_ms;
      })
    results

let sweep_table rows =
  let table =
    Table.create
      ~title:
        "Ablation A7: concurrent transaction processing (conservative strict 2PL; paper \
         processed transactions serially)"
      [
        ("concurrency level", Table.Right);
        ("makespan (ms)", Table.Right);
        ("mean txn (ms)", Table.Right);
        ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.level;
          Printf.sprintf "%.0f" r.sweep_makespan_ms;
          Printf.sprintf "%.1f" r.sweep_mean_txn_ms;
          Printf.sprintf "%.2fx" r.speedup;
        ])
    rows;
  table
