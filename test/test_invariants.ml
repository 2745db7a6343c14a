(* Property-based testing of the full protocol: random schedules of
   transactions, site failures and recoveries, after which every DESIGN.md
   invariant must hold, and after healing plus a full write pass the
   cluster must converge to identical, lock-free copies. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Site = Raid_core.Site
module Invariant = Raid_core.Invariant
module Rng = Raid_util.Rng

type step = Run_txn | Fail_one | Recover_one

(* The first write-durability failure, checked as each commit completes:
   later, a newer write to the item would mask a missing one. *)
let check_durable cluster durability outcome =
  if !durability = Ok () then
    durability :=
      Invariant.write_durability cluster outcome ~operational:(Cluster.alive_sites cluster)

(* [announced] chooses how a [Fail_one] step fails its site:
   [Cluster.fail_site] tells a survivor, [Cluster.crash_site_now] tells
   nobody, so survivors find out through failed sends ("timeout
   detection"). *)
let interpret_step ~announced cluster rng workload durability = function
  | Run_txn -> begin
    let operational =
      List.filter
        (fun s -> not (Site.is_waiting (Cluster.site cluster s)))
        (Cluster.alive_sites cluster)
    in
    match operational with
    | [] -> ()
    | sites ->
      let coordinator = Rng.choose rng sites in
      let id = Cluster.next_txn_id cluster in
      check_durable cluster durability
        (Cluster.submit cluster ~coordinator (Workload.next workload ~id))
  end
  | Fail_one -> begin
    (* Never induce total failure: the protocol cannot restart from zero
       operational sites (no donor), which the paper does not cover. *)
    match Cluster.alive_sites cluster with
    | _ :: _ :: _ as alive ->
      let fail = if announced then Cluster.fail_site else Cluster.crash_site_now in
      fail cluster (Rng.choose rng alive)
    | _ -> ()
  end
  | Recover_one -> begin
    let down =
      List.filter
        (fun s -> not (Cluster.alive cluster s))
        (List.init (Cluster.num_sites cluster) Fun.id)
    in
    match down with
    | [] -> ()
    | down -> ignore (Cluster.recover_site cluster (Rng.choose rng down))
  end

let run_schedule ~num_sites ~num_items ~announced ~recovery ~seed steps =
  let config = Config.make ~cost:Cost_model.free ~recovery ~num_sites ~num_items () in
  let cluster = Cluster.create config in
  let rng = Rng.create seed in
  let workload =
    Workload.create (Workload.Uniform { max_ops = 4; write_prob = 0.5 }) ~num_items
      ~rng:(Rng.split rng)
  in
  let durability = ref (Ok ()) in
  List.iter (interpret_step ~announced cluster rng workload durability) steps;
  (cluster, rng, workload, durability)

let heal cluster =
  let down () =
    List.filter
      (fun s -> not (Cluster.alive cluster s))
      (List.init (Cluster.num_sites cluster) Fun.id)
  in
  let rec loop budget =
    if budget > 0 then begin
      match down () with
      | [] -> ()
      | sites ->
        List.iter (fun s -> ignore (Cluster.recover_site cluster s)) sites;
        loop (budget - 1)
    end
  in
  loop 4

let wash cluster durability =
  (* One write per item from an operational coordinator clears every
     fail-lock and refreshes every copy. *)
  let num_items = (Cluster.config cluster).Config.num_items in
  for item = 0 to num_items - 1 do
    let id = Cluster.next_txn_id cluster in
    let coordinator = List.hd (Cluster.alive_sites cluster) in
    check_durable cluster durability
      (Cluster.submit cluster ~coordinator (Txn.make ~id [ Txn.Write item ]))
  done

let gen_steps =
  QCheck.Gen.(
    list_size (int_range 5 40)
      (frequency [ (6, return Run_txn); (2, return Fail_one); (2, return Recover_one) ]))

let arbitrary_schedule =
  QCheck.make
    ~print:(fun steps ->
      String.concat ";"
        (List.map
           (function Run_txn -> "txn" | Fail_one -> "fail" | Recover_one -> "recover")
           steps))
    gen_steps

let check_config ~num_sites ~announced ~recovery name =
  QCheck.Test.make ~name ~count:40
    QCheck.(pair arbitrary_schedule small_int)
    (fun (steps, seed) ->
      let cluster, _rng, _workload, durability =
        run_schedule ~num_sites ~num_items:12 ~announced ~recovery ~seed steps
      in
      let durable () =
        match !durability with
        | Ok () -> true
        | Error message -> QCheck.Test.fail_reportf "durability: %s" message
      in
      let durable_mid = durable () in
      let ok_mid =
        match Invariant.all cluster with
        | Ok () -> true
        | Error message -> QCheck.Test.fail_reportf "mid-schedule: %s" message
      in
      heal cluster;
      wash cluster durability;
      let durable_after = durable () in
      let converged =
        match Invariant.convergence cluster with
        | Ok () -> true
        | Error message -> QCheck.Test.fail_reportf "after heal+wash: %s" message
      in
      durable_mid && ok_mid && durable_after && converged)

let prop_immediate =
  check_config ~num_sites:3 ~announced:true ~recovery:Config.On_demand
    "random schedules, 3 sites, immediate detection"

let prop_timeout =
  check_config ~num_sites:3 ~announced:false ~recovery:Config.On_demand
    "random schedules, 3 sites, timeout detection"

let prop_four_sites =
  check_config ~num_sites:4 ~announced:true ~recovery:Config.On_demand
    "random schedules, 4 sites"

let prop_two_step =
  check_config ~num_sites:3 ~announced:true
    ~recovery:(Config.Two_step { threshold = 0.5; batch_size = 3 })
    "random schedules with two-step recovery"

let prop_two_sites =
  check_config ~num_sites:2 ~announced:true ~recovery:Config.On_demand
    "random schedules, 2 sites (paper's Figure 1/2 setting)"

(* A schedule the timeout property once shrank to: a copier transaction
   installs item 1 at site 0 from site 2, clearing site 0's bit there, then
   aborts with [Copier_source_failed] because another of its copy requests
   went to the failed site 1.  The abort must still announce the clear, or
   site 2 keeps site 0's bit for a copy that is current. *)
let test_copy_phase_abort_announces_clears () =
  let steps =
    List.map
      (function
        | "txn" -> Run_txn
        | "fail" -> Fail_one
        | "recover" -> Recover_one
        | step -> invalid_arg step)
      (String.split_on_char ';'
         "txn;recover;txn;recover;recover;txn;txn;txn;txn;txn;txn;txn;recover;txn;fail;fail;\
          txn;fail;fail;txn;fail;txn;txn;txn;recover;txn;txn;txn;txn;recover;fail;txn")
  in
  let cluster, _rng, _workload, _durability =
    run_schedule ~num_sites:3 ~num_items:12 ~announced:false ~recovery:Config.On_demand
      ~seed:9 steps
  in
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Invariant.all cluster)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_immediate; prop_timeout; prop_four_sites; prop_two_step; prop_two_sites ]
  @ [
      Alcotest.test_case "copy-phase abort announces copier clears" `Quick
        test_copy_phase_abort_announces_clears;
    ]
