module Rng = Raid_util.Rng

type trigger = After_txns of int | At_ms of float
type action = Fail of int | Recover of int
type plan = (trigger * action) list

exception No_operational_site

type t = {
  cluster : Cluster.t;
  rng : Rng.t;
  mutable workload : Workload.t;
  mutable pending : plan;
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable recovered : int;
}

let create ?(plan = []) cluster ~workload ~rng =
  {
    cluster;
    rng;
    workload;
    pending = plan;
    submitted = 0;
    committed = 0;
    aborted = 0;
    recovered = 0;
  }

let due d = function
  | After_txns n -> d.submitted >= n
  | At_ms ms -> Raid_net.Vtime.to_ms (Raid_net.Engine.now (Cluster.engine d.cluster)) >= ms

let apply d = function
  | Fail site -> Cluster.fail_site d.cluster site
  | Recover site ->
    if not (Cluster.alive d.cluster site) then
      match Cluster.recover_site d.cluster site with
      | `Recovered -> d.recovered <- d.recovered + 1
      | `Blocked -> ()

(* A fired entry can move the clock ([Cluster.fail_site] runs
   control-2 to quiescence), so the next entry is judged afterwards. *)
let rec fire_due d =
  match d.pending with
  | (trigger, action) :: rest when due d trigger ->
    d.pending <- rest;
    apply d action;
    fire_due d
  | _ -> ()

let step ?coordinator d =
  fire_due d;
  let coordinator =
    match coordinator with
    | Some c -> c
    | None -> (
      match Cluster.operational d.cluster with
      | [] -> raise No_operational_site
      | sites -> Rng.choose d.rng sites)
  in
  let id = Cluster.next_txn_id d.cluster in
  let outcome = Cluster.submit d.cluster ~coordinator (Workload.next d.workload ~id) in
  d.submitted <- d.submitted + 1;
  if outcome.Metrics.committed then d.committed <- d.committed + 1
  else d.aborted <- d.aborted + 1;
  outcome

let set_workload d workload = d.workload <- workload
let cluster d = d.cluster
let rng d = d.rng
let submitted d = d.submitted
let committed d = d.committed
let aborted d = d.aborted
let recovered d = d.recovered
