(* Placement unit tests: the O(1)/O(k) replica-set layer introduced for
   partial replication, plus its interaction with the protocol
   invariants under churn. *)

module Placement = Raid_core.Placement
module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Workload = Raid_core.Workload
module Scenario = Raid_sim.Scenario
module Runner = Raid_sim.Runner

let all_shardings =
  [
    ("hash", Placement.Hash);
    ("range", Placement.Range);
    ("modular", Placement.Modular);
  ]

let test_factor_clamps_to_full () =
  (* factor >= num_sites degenerates to full replication: every site holds
     every item and the fast-path predicate reports it. *)
  let num_sites = 4 and num_items = 20 in
  let p = Placement.make ~num_sites ~num_items (Placement.spec ~factor:8 ()) in
  let full = Placement.full ~num_sites ~num_items in
  Alcotest.(check bool) "is_full" true (Placement.is_full p);
  Alcotest.(check int) "factor clamped" num_sites (Placement.factor p);
  for item = 0 to num_items - 1 do
    for site = 0 to num_sites - 1 do
      Alcotest.(check bool) "holds matches full"
        (Placement.holds full ~site ~item)
        (Placement.holds p ~site ~item)
    done;
    Alcotest.(check (list int)) "replicas match full"
      (Placement.replicas full item) (Placement.replicas p item)
  done

let test_replicas_consistent_per_sharding () =
  let num_sites = 5 and num_items = 40 and factor = 3 in
  List.iter
    (fun (name, sharding) ->
      let p = Placement.make ~num_sites ~num_items (Placement.spec ~sharding ~factor ()) in
      for item = 0 to num_items - 1 do
        let replicas = Placement.replicas p item in
        Alcotest.(check int) (name ^ ": k replicas") factor (List.length replicas);
        Alcotest.(check int)
          (name ^ ": primary leads the set")
          (Placement.primary p item) (List.hd replicas);
        (* replicas are consecutive on the ring from the primary *)
        Alcotest.(check (list int))
          (name ^ ": consecutive ring")
          (List.init factor (fun i -> (Placement.primary p item + i) mod num_sites))
          replicas;
        (* holds agrees with membership, in both directions *)
        for site = 0 to num_sites - 1 do
          Alcotest.(check bool)
            (name ^ ": holds = membership")
            (List.mem site replicas)
            (Placement.holds p ~site ~item)
        done;
        (* iter and fold agree with the list *)
        let via_iter = ref [] in
        Placement.iter_replicas p item (fun s -> via_iter := s :: !via_iter);
        Alcotest.(check (list int)) (name ^ ": iter order") replicas (List.rev !via_iter);
        Alcotest.(check int)
          (name ^ ": fold count") factor
          (Placement.fold_replicas p item (fun _ acc -> acc + 1) 0)
      done)
    all_shardings

let test_sharding_primaries () =
  let num_sites = 4 and num_items = 16 in
  let modular =
    Placement.make ~num_sites ~num_items (Placement.spec ~sharding:Placement.Modular ~factor:2 ())
  in
  let range =
    Placement.make ~num_sites ~num_items (Placement.spec ~sharding:Placement.Range ~factor:2 ())
  in
  for item = 0 to num_items - 1 do
    Alcotest.(check int) "modular primary" (item mod num_sites) (Placement.primary modular item);
    Alcotest.(check int) "range primary" (item * num_sites / num_items)
      (Placement.primary range item)
  done

let test_hash_primary_in_range () =
  (* Rng.mix spans all 63-bit integers including negatives; the primary
     must still land in [0, num_sites) for every item id. *)
  let num_sites = 256 and num_items = 100_000 in
  let p = Placement.make ~num_sites ~num_items (Placement.spec ~factor:3 ()) in
  for item = 0 to num_items - 1 do
    let pr = Placement.primary p item in
    if pr < 0 || pr >= num_sites then
      Alcotest.failf "item %d: primary %d out of range" item pr
  done

let test_sharding_string_round_trip () =
  List.iter
    (fun name ->
      match Placement.sharding_of_string name with
      | Ok s -> Alcotest.(check string) "round trip" name (Placement.sharding_to_string s)
      | Error e -> Alcotest.fail e)
    [ "hash"; "range"; "modular" ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Placement.sharding_of_string "ring"))

let test_view_extras_round_trip () =
  let num_sites = 5 and num_items = 10 in
  let base =
    Placement.make ~num_sites ~num_items
      (Placement.spec ~sharding:Placement.Modular ~factor:2 ())
  in
  let v = Placement.View.create base in
  (* item 0's static holders are sites 0 and 1 *)
  Alcotest.(check bool) "no backup yet" false (Placement.View.holds v ~site:3 ~item:0);
  Placement.View.add_backup v ~site:3 ~item:0;
  Placement.View.add_backup v ~site:4 ~item:0;
  Placement.View.add_backup v ~site:0 ~item:0;  (* base holder: no-op *)
  Placement.View.add_backup v ~site:4 ~item:7;
  Alcotest.(check bool) "backup visible" true (Placement.View.holds v ~site:3 ~item:0);
  let holders = ref [] in
  Placement.View.iter_holders v 0 (fun s -> holders := s :: !holders);
  Alcotest.(check (list int)) "static then extras" [ 0; 1; 3; 4 ] (List.rev !holders);
  Alcotest.(check int) "count up holders" 3
    (Placement.View.count_holders_if v 0 (fun s -> s <> 1));
  let wire = Placement.View.extras v in
  Alcotest.(check bool) "wire form" true (wire = [ (0, [ 3; 4 ]); (7, [ 4 ]) ]);
  (* install the wire form into a fresh view: same holders everywhere *)
  let w = Placement.View.create base in
  Placement.View.install_extras w wire;
  for item = 0 to num_items - 1 do
    for site = 0 to num_sites - 1 do
      Alcotest.(check bool) "install matches"
        (Placement.View.holds v ~site ~item)
        (Placement.View.holds w ~site ~item)
    done
  done

let test_survives_any_two_failures () =
  (* k = 3 on 6 sites: whatever pair of sites fails, every item keeps at
     least one operational holder — the availability floor the partial
     soak relies on. *)
  let num_sites = 6 and num_items = 90 in
  List.iter
    (fun (name, sharding) ->
      let p = Placement.make ~num_sites ~num_items (Placement.spec ~sharding ~factor:3 ()) in
      for a = 0 to num_sites - 1 do
        for b = 0 to num_sites - 1 do
          for item = 0 to num_items - 1 do
            let up = Placement.fold_replicas p item (fun s acc ->
                if s <> a && s <> b then acc + 1 else acc) 0
            in
            if up < 1 then
              Alcotest.failf "%s: item %d has no holder with sites %d,%d down" name item a b
          done
        done
      done)
    all_shardings

let test_partial_churn_invariants () =
  (* A quick churn schedule on a k=2 cluster with the runner checking all
     protocol invariants after every action: exercises that staleness
     tracking is judged only against the sites that actually store each
     item (plus coordinator witnesses). *)
  let num_sites = 4 and num_items = 40 in
  let config =
    Config.make ~cost:Cost_model.free
      ~replication:(Config.Partial (Placement.spec ~sharding:Placement.Modular ~factor:2 ()))
      ~num_sites ~num_items ()
  in
  let scenario =
    Scenario.make ~seed:17 ~config
      ~workload:(Workload.Uniform { max_ops = 4; write_prob = 0.5 })
      [
        Scenario.Run_txns 20;
        Scenario.Fail 1;
        Scenario.Run_txns 20;
        Scenario.Recover 1;
        Scenario.Run_txns 10;
        Scenario.Fail 3;
        Scenario.Run_txns 20;
        Scenario.Recover 3;
        Scenario.Run_txns 60;
      ]
  in
  let result = Runner.run scenario in
  (* Sites store different subsets, so whole-database equality does not
     apply here; the runner's per-action invariant checks carry the test.
     Residual fail-locks are legitimate under on-demand recovery (they
     clear when the item is next touched), but traffic must flow. *)
  Alcotest.(check int) "no aborts" 0 result.Runner.aborted;
  Alcotest.(check bool) "substantial traffic" true (result.Runner.committed > 80)

let test_validation_errors () =
  Alcotest.check_raises "bad factor" (Invalid_argument "Placement.make: factor must be positive")
    (fun () ->
      ignore (Placement.make ~num_sites:3 ~num_items:2 (Placement.spec ~factor:0 ())))

let suite =
  [
    Alcotest.test_case "factor clamps to full" `Quick test_factor_clamps_to_full;
    Alcotest.test_case "replicas consistent per sharding" `Quick
      test_replicas_consistent_per_sharding;
    Alcotest.test_case "modular and range primaries" `Quick test_sharding_primaries;
    Alcotest.test_case "hash primary stays in range" `Quick test_hash_primary_in_range;
    Alcotest.test_case "sharding string round trip" `Quick test_sharding_string_round_trip;
    Alcotest.test_case "view extras round trip" `Quick test_view_extras_round_trip;
    Alcotest.test_case "k=3 survives any two failures" `Quick test_survives_any_two_failures;
    Alcotest.test_case "partial churn under invariants" `Quick test_partial_churn_invariants;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
  ]
