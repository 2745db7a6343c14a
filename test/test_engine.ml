(* Tests for the discrete-event message-passing engine: delivery order,
   latency accounting, failure notifications, links, timers, counters. *)

module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime

type msg = Ping of int | Pong of int | Tick

let collector () =
  let events = ref [] in
  let record site event = events := (site, event) :: !events in
  (events, record)

let test_delivery_and_latency () =
  let engine = Engine.create ~message_latency:(Vtime.of_ms 9) ~num_sites:2 () in
  let delivered_at = ref (-1) in
  Engine.register engine 0 (fun ctx event ->
      match event with
      | Engine.Message { payload = Ping n; _ } -> Engine.send ctx 1 (Pong n)
      | _ -> ());
  Engine.register engine 1 (fun ctx event ->
      match event with
      | Engine.Message { payload = Pong _; _ } -> delivered_at := Vtime.to_us (Engine.time ctx)
      | _ -> ());
  Engine.inject engine ~dst:0 (Ping 1);
  Engine.run engine;
  (* Injection arrives at 9 ms; the pong arrives at 18 ms. *)
  Alcotest.(check int) "pong at 18ms" 18_000 !delivered_at;
  let counters = Engine.counters engine in
  Alcotest.(check int) "sent" 2 counters.Engine.sent;
  Alcotest.(check int) "delivered" 2 counters.Engine.delivered

let test_work_delays_sends () =
  let engine = Engine.create ~message_latency:(Vtime.of_ms 10) ~num_sites:2 () in
  let arrival = ref (-1) in
  Engine.register engine 0 (fun ctx event ->
      match event with
      | Engine.Message _ ->
        Engine.work ctx (Vtime.of_ms 25);
        Engine.send ctx 1 Tick
      | _ -> ());
  Engine.register engine 1 (fun ctx event ->
      match event with
      | Engine.Message _ -> arrival := Vtime.to_us (Engine.time ctx)
      | _ -> ());
  Engine.inject engine ~dst:0 Tick;
  Engine.run engine;
  (* 10 (injection) + 25 (work) + 10 (latency) = 45 ms. *)
  Alcotest.(check int) "work delays send" 45_000 !arrival

let test_fifo_order () =
  let engine = Engine.create ~num_sites:2 () in
  let received = ref [] in
  Engine.register engine 0 (fun ctx event ->
      match event with
      | Engine.Message _ ->
        for n = 1 to 5 do
          Engine.send ctx 1 (Ping n)
        done
      | _ -> ());
  Engine.register engine 1 (fun _ctx event ->
      match event with
      | Engine.Message { payload = Ping n; _ } -> received := n :: !received
      | _ -> ());
  Engine.inject engine ~dst:0 Tick;
  Engine.run engine;
  Alcotest.(check (list int)) "in send order" [ 1; 2; 3; 4; 5 ] (List.rev !received)

let test_send_failed_notification () =
  (* The sender times out three latencies after the send, at every
     latency (the send is at the injection's arrival, one latency in). *)
  List.iter
    (fun latency_ms ->
      let engine = Engine.create ~message_latency:(Vtime.of_ms latency_ms) ~num_sites:2 () in
      let failure_at = ref (-1) in
      Engine.register engine 0 (fun ctx event ->
          match event with
          | Engine.Message _ -> Engine.send ctx 1 Tick
          | Engine.Send_failed { dst; _ } ->
            Alcotest.(check int) "failed dst" 1 dst;
            failure_at := Vtime.to_us (Engine.time ctx)
          | Engine.Timer _ -> ());
      Engine.register engine 1 (fun _ _ -> Alcotest.fail "dead site must not receive");
      Engine.set_alive engine 1 false;
      Engine.inject engine ~dst:0 Tick;
      Engine.run engine;
      Alcotest.(check int)
        (Printf.sprintf "timeout at send + 3 x %d ms" latency_ms)
        (Vtime.to_us (Vtime.of_ms (4 * latency_ms)))
        !failure_at;
      Alcotest.(check int) "undeliverable counted" 1 (Engine.counters engine).Engine.undeliverable)
    [ 0; 9; 50 ]

let test_run_zero_budget_when_quiescent () =
  (* Regression: run ~max_events:0 on an engine with an empty queue must
     return cleanly (the budget check used to precede the emptiness
     check). *)
  let engine = Engine.create ~num_sites:1 () in
  Engine.run ~max_events:0 engine;
  Engine.register engine 0 (fun _ _ -> ());
  Engine.inject engine ~dst:0 Tick;
  Engine.run engine;
  Engine.run ~max_events:0 engine;
  Alcotest.(check int) "still quiescent" 0 (Engine.pending_events engine);
  (* A non-empty queue with a zero budget still trips the guard. *)
  Engine.inject engine ~dst:0 Tick;
  match Engine.run ~max_events:0 engine with
  | () -> Alcotest.fail "guard did not trip on pending work"
  | exception Failure _ -> ()

let test_injection_to_dead_site_is_silent () =
  let engine = Engine.create ~num_sites:1 () in
  Engine.register engine 0 (fun _ _ -> Alcotest.fail "must not fire");
  Engine.set_alive engine 0 false;
  Engine.inject engine ~dst:0 Tick;
  Engine.run engine;
  Alcotest.(check int) "undeliverable" 1 (Engine.counters engine).Engine.undeliverable

let test_severed_link () =
  let engine = Engine.create ~num_sites:3 () in
  let (events, record) = collector () in
  for site = 0 to 2 do
    Engine.register engine site (fun ctx event ->
        match event with
        | Engine.Message { payload = Tick; _ } ->
          Engine.send ctx ((site + 1) mod 3) (Ping site)
        | Engine.Message { payload = Ping n; _ } -> record site (`Ping n)
        | Engine.Send_failed _ -> record site `Fail
        | _ -> ())
  done;
  Engine.set_link engine 0 1 false;
  Alcotest.(check bool) "link severed" false (Engine.link_ok engine 0 1);
  Alcotest.(check bool) "symmetric" false (Engine.link_ok engine 1 0);
  Engine.inject engine ~dst:0 Tick;
  Engine.run engine;
  (* 0 -> 1 is severed: site 0 gets a Send_failed; no Ping reaches 1. *)
  Alcotest.(check bool) "failure recorded" true (List.mem (0, `Fail) !events);
  Alcotest.(check bool) "no delivery on severed link" false (List.mem (1, `Ping 0) !events)

let test_timer_fires_and_respects_death () =
  let engine = Engine.create ~num_sites:2 () in
  let fired = ref [] in
  for site = 0 to 1 do
    Engine.register engine site (fun ctx event ->
        match event with
        | Engine.Message _ -> Engine.set_timer ctx (Vtime.of_ms 50) Tick
        | Engine.Timer Tick -> fired := site :: !fired
        | _ -> ())
  done;
  Engine.inject engine ~dst:0 Tick;
  Engine.inject engine ~dst:1 Tick;
  (* Kill site 1 before its timer fires. *)
  let rec step_until_timers () =
    if Engine.pending_events engine > 0 && Engine.now engine < Vtime.of_ms 20 then
      if Engine.step engine then step_until_timers ()
  in
  step_until_timers ();
  Engine.set_alive engine 1 false;
  Engine.run engine;
  Alcotest.(check (list int)) "only live site fires" [ 0 ] !fired;
  Alcotest.(check int) "one discarded" 1 (Engine.counters engine).Engine.timer_discarded

(* The probe's arrival hook sees every message, delivered or not,
   before any handler runs; [on_event] sees only the handled ones. *)
let test_probe_arrivals () =
  let engine = Engine.create ~num_sites:2 () in
  let arrivals = ref [] and handled = ref 0 in
  Engine.set_probe engine
    (Some
       {
         Engine.on_arrival =
           (fun ~at ~src ~dst ~delivered payload ->
             arrivals := (Vtime.to_ms at, src, dst, delivered, payload) :: !arrivals);
         on_event = (fun ~at:_ _ ~cost:_ -> incr handled);
         on_advance = (fun ~at:_ -> ());
       });
  Engine.register engine 0 (fun ctx event ->
      match event with
      | Engine.Message { payload = Ping n; _ } -> Engine.send ctx 1 (Pong n)
      | _ -> ());
  Engine.register engine 1 (fun _ _ -> Alcotest.fail "site 1 is down");
  Engine.set_alive engine 1 false;
  Engine.inject engine ~dst:0 (Ping 7);
  Engine.run engine;
  Alcotest.(check (list (pair bool int)))
    "the injection is delivered, the pong is not"
    [ (true, Engine.external_source); (false, 0) ]
    (List.rev_map (fun (_, src, _, delivered, _) -> (delivered, src)) !arrivals);
  (match !arrivals with
  | [ (at, _, dst, _, payload); (first_at, _, first_dst, _, _) ] ->
    Alcotest.(check int) "injection dst" 0 first_dst;
    Alcotest.(check (float 0.)) "injection at one latency" 9. first_at;
    Alcotest.(check int) "undeliverable dst" 1 dst;
    Alcotest.(check (float 0.)) "pong at two latencies" 18. at;
    Alcotest.(check bool) "undeliverable payload" true (payload = Pong 7)
  | _ -> Alcotest.fail "unexpected arrival count");
  (* Site 0 handled the ping and then the pong's Send_failed; the
     undeliverable arrival ran no handler. *)
  Alcotest.(check int) "on_event skips the undeliverable arrival" 2 !handled

let test_message_counters () =
  let engine = Engine.create ~num_sites:2 () in
  Engine.register engine 0 (fun ctx _ ->
      Engine.send ctx 1 Tick;
      Engine.send ctx 1 Tick);
  Engine.register engine 1 (fun _ _ -> ());
  Engine.inject engine ~dst:0 Tick;
  Engine.run engine;
  let counters = Engine.counters engine in
  Alcotest.(check int) "sent (injection included)" 3 counters.Engine.sent;
  Alcotest.(check int) "delivered" 3 counters.Engine.delivered;
  Alcotest.(check int) "undeliverable" 0 counters.Engine.undeliverable

let test_validation () =
  Alcotest.check_raises "zero sites" (Invalid_argument "Engine.create: num_sites must be positive")
    (fun () -> ignore (Engine.create ~num_sites:0 ()))

let test_run_guard () =
  let engine = Engine.create ~num_sites:2 () in
  (* Two sites ping-pong forever. *)
  Engine.register engine 0 (fun ctx _ -> Engine.send ctx 1 Tick);
  Engine.register engine 1 (fun ctx _ -> Engine.send ctx 0 Tick);
  Engine.inject engine ~dst:0 Tick;
  (* The guard message must identify where the run got stuck: the bound,
     the stuck virtual time and the pending-event count. *)
  match Engine.run ~max_events:100 engine with
  | () -> Alcotest.fail "livelock guard did not trip"
  | exception Failure msg ->
    let contains needle =
      Alcotest.(check bool)
        (Printf.sprintf "message mentions %S" needle)
        true
        (let nl = String.length needle and ml = String.length msg in
         let rec scan i = i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1)) in
         scan 0)
    in
    contains "max_events (100) exceeded";
    contains "stuck at virtual time";
    contains "pending events"

let suite =
  [
    Alcotest.test_case "delivery and latency" `Quick test_delivery_and_latency;
    Alcotest.test_case "work delays sends" `Quick test_work_delays_sends;
    Alcotest.test_case "FIFO order" `Quick test_fifo_order;
    Alcotest.test_case "send-failed notification" `Quick test_send_failed_notification;
    Alcotest.test_case "zero budget when quiescent" `Quick test_run_zero_budget_when_quiescent;
    Alcotest.test_case "silent failed injection" `Quick test_injection_to_dead_site_is_silent;
    Alcotest.test_case "severed link" `Quick test_severed_link;
    Alcotest.test_case "timers and site death" `Quick test_timer_fires_and_respects_death;
    Alcotest.test_case "probe sees every arrival" `Quick test_probe_arrivals;
    Alcotest.test_case "message counters" `Quick test_message_counters;
    Alcotest.test_case "constructor validation" `Quick test_validation;
    Alcotest.test_case "livelock guard" `Quick test_run_guard;
  ]
