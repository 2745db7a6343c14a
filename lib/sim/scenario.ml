type coordinator_policy =
  | Fixed of int
  | Uniform_random
  | Weighted of (int * float) list
  | Round_robin

type action =
  | Run_txns of int
  | Fail of int
  | Recover of int
  | Set_policy of coordinator_policy
  | Run_until_recovered of { site : int; max_txns : int }
  | Run_until_consistent of { max_txns : int }

type t = {
  config : Raid_core.Config.t;
  workload : Raid_core.Workload.spec;
  policy : coordinator_policy;
  seed : int;
  actions : action list;
}

let make ?(policy = Uniform_random) ?(seed = 42) ~config ~workload actions =
  { config; workload; policy; seed; actions }

let outage ?route ~site ~down_txns ~max_recovery_txns () =
  [ Fail site; Run_txns down_txns; Recover site ]
  @ (match route with Some policy -> [ Set_policy policy ] | None -> [])
  @ [ Run_until_recovered { site; max_txns = max_recovery_txns } ]

let cycles ?(before = 0) ~cycles ~site ~down_txns ~max_txns () =
  List.concat
    (List.init cycles (fun _ ->
         (if before > 0 then [ Run_txns before ] else [])
         @ outage ~site ~down_txns ~max_recovery_txns:max_txns ()))
