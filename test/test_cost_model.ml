module Cost_model = Raid_core.Cost_model
module Vtime = Raid_net.Vtime

let test_calibrated_message_latency () =
  (* The paper's one hard number: 9 ms per intersite communication. *)
  Alcotest.(check int) "9 ms" (Vtime.of_ms 9) Cost_model.calibrated.Cost_model.message_latency

let test_free_zeroes_processing () =
  Alcotest.(check int) "setup free" 0 Cost_model.free.Cost_model.txn_setup;
  Alcotest.(check int) "latency kept" (Vtime.of_ms 9) Cost_model.free.Cost_model.message_latency

let test_zero_is_all_zero () =
  Alcotest.(check int) "latency zero" 0 Cost_model.zero.Cost_model.message_latency;
  Alcotest.(check int) "op zero" 0 Cost_model.zero.Cost_model.op_process

let test_config_validation () =
  let module Config = Raid_core.Config in
  Alcotest.check_raises "too many sites" (Invalid_argument "Config: at most 1024 sites supported")
    (fun () -> ignore (Config.make ~num_sites:1025 ~num_items:1 ()));
  Alcotest.check_raises "bad threshold" (Invalid_argument "Config: two-step threshold outside [0,1]")
    (fun () ->
      ignore
        (Config.make ~recovery:(Config.Two_step { threshold = 1.5; batch_size = 1 }) ~num_sites:2
           ~num_items:1 ()));
  Alcotest.check_raises "bad replication factor"
    (Invalid_argument "Placement.make: factor must be positive") (fun () ->
      ignore
        (Config.make
           ~replication:(Config.Partial (Raid_core.Placement.spec ~factor:0 ()))
           ~num_sites:2 ~num_items:1 ()))

let suite =
  [
    Alcotest.test_case "calibrated latency is the paper's 9 ms" `Quick
      test_calibrated_message_latency;
    Alcotest.test_case "free model" `Quick test_free_zeroes_processing;
    Alcotest.test_case "zero model" `Quick test_zero_is_all_zero;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
