module Cluster = Raid_core.Cluster
module Driver = Raid_core.Driver
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Invariant = Raid_core.Invariant
module Rng = Raid_util.Rng

type txn_record = {
  index : int;
  outcome : Metrics.outcome;
  faillocks_per_site : int array;
}

type result = {
  cluster : Cluster.t;
  records : txn_record list;
  committed : int;
  aborted : int;
}

type state = {
  driver : Driver.t;  (* its rng only chooses coordinators, apart from the workload stream *)
  mutable policy : Scenario.coordinator_policy;
  mutable round_robin_cursor : int;
  mutable records_rev : txn_record list;
}

let choose_coordinator state =
  let rng = Driver.rng state.driver in
  let operational = Cluster.operational (Driver.cluster state.driver) in
  if operational = [] then invalid_arg "Runner: no operational site to coordinate";
  match state.policy with
  | Scenario.Fixed site ->
    if List.mem site operational then site
    else invalid_arg (Printf.sprintf "Runner: fixed coordinator %d is not operational" site)
  | Scenario.Uniform_random -> Rng.choose rng operational
  | Scenario.Weighted weights ->
    let available = List.filter (fun (s, w) -> w > 0.0 && List.mem s operational) weights in
    if available = [] then Rng.choose rng operational
    else Rng.choose_weighted rng available
  | Scenario.Round_robin ->
    let n = List.length operational in
    let pick = List.nth operational (state.round_robin_cursor mod n) in
    state.round_robin_cursor <- state.round_robin_cursor + 1;
    pick

let run_one_txn state =
  let cluster = Driver.cluster state.driver in
  let outcome = Driver.step ~coordinator:(choose_coordinator state) state.driver in
  let index = outcome.Metrics.txn.Raid_core.Txn.id in
  state.records_rev <-
    { index; outcome; faillocks_per_site = Cluster.faillock_counts cluster } :: state.records_rev

let check cluster =
  match Invariant.all cluster with
  | Ok () -> ()
  | Error message -> failwith (Printf.sprintf "Runner: invariant violated: %s" message)

let run_action state action =
  let cluster = Driver.cluster state.driver in
  (match action with
  | Scenario.Run_txns n ->
    for _ = 1 to n do
      run_one_txn state
    done
  | Scenario.Fail site -> Cluster.fail_site cluster site
  | Scenario.Recover site -> ignore (Cluster.recover_site cluster site)
  | Scenario.Set_policy policy -> state.policy <- policy
  | Scenario.Run_until_recovered { site; max_txns } ->
    let rec loop remaining =
      if remaining > 0 && Cluster.faillock_count_for cluster site > 0 then begin
        run_one_txn state;
        loop (remaining - 1)
      end
    in
    loop max_txns
  | Scenario.Run_until_consistent { max_txns } ->
    let rec loop remaining =
      if remaining > 0 && not (Cluster.fully_consistent cluster) then begin
        run_one_txn state;
        loop (remaining - 1)
      end
    in
    loop max_txns);
  check cluster

let run ?obs ?telemetry (scenario : Scenario.t) =
  let cluster =
    Cluster.of_spec
      (Cluster.Spec.make ?messages:obs ?obs ?telemetry scenario.Scenario.config)
  in
  let rng = Rng.create scenario.Scenario.seed in
  let workload_rng = Rng.split rng in
  let workload =
    Workload.create scenario.Scenario.workload
      ~num_items:scenario.Scenario.config.Raid_core.Config.num_items ~rng:workload_rng
  in
  let state =
    {
      driver = Driver.create cluster ~workload ~rng;
      policy = scenario.Scenario.policy;
      round_robin_cursor = 0;
      records_rev = [];
    }
  in
  List.iter (run_action state) scenario.Scenario.actions;
  {
    cluster;
    records = List.rev state.records_rev;
    committed = Driver.committed state.driver;
    aborted = Driver.aborted state.driver;
  }

let series (result : result) ~site =
  List.map
    (fun r -> (float_of_int r.index, float_of_int r.faillocks_per_site.(site)))
    result.records

let final_faillocks (result : result) ~site = Cluster.faillock_count_for result.cluster site
