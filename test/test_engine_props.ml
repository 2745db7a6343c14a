(* Property tests for the engine's delivery semantics: exactly-once
   delivery and per-link FIFO under random message schedules. *)

module Engine = Raid_net.Engine

type msg = Trigger | Payload of int  (* uid *)

(* Site 0 dispatches the whole schedule on its trigger; every site
   records the uids it receives, in arrival order. *)
let run_dispatch ~num_sites sends =
  let received = Array.make num_sites [] in
  let engine = Engine.create ~num_sites () in
  for site = 1 to num_sites - 1 do
    Engine.register engine site (fun ctx event ->
        match event with
        | Engine.Message { payload = Payload uid; _ } ->
          received.(Engine.self ctx) <- uid :: received.(Engine.self ctx)
        | _ -> ())
  done;
  Engine.register engine 0 (fun ctx event ->
      match event with
      | Engine.Message { payload = Trigger; _ } ->
        List.iteri (fun uid dst -> Engine.send ctx dst (Payload uid)) sends
      | Engine.Message { payload = Payload uid; _ } -> received.(0) <- uid :: received.(0)
      | _ -> ());
  Engine.inject engine ~dst:0 Trigger;
  Engine.run engine;
  Array.map List.rev received

let gen_schedule num_sites = QCheck.Gen.(list_size (int_range 0 60) (int_range 0 (num_sites - 1)))

let arbitrary_schedule =
  QCheck.make
    ~print:(fun sends -> String.concat "," (List.map string_of_int sends))
    (gen_schedule 4)

let prop_exactly_once =
  QCheck.Test.make ~name:"every message delivered exactly once" ~count:200 arbitrary_schedule
    (fun sends ->
      let received = run_dispatch ~num_sites:4 sends in
      let got = List.sort compare (List.concat (Array.to_list received)) in
      got = List.init (List.length sends) Fun.id)

let prop_fifo_per_link =
  QCheck.Test.make ~name:"per-link FIFO order" ~count:200 arbitrary_schedule (fun sends ->
      let received = run_dispatch ~num_sites:4 sends in
      (* All messages share the link 0 -> dst, so each destination must see
         uids in increasing order. *)
      Array.for_all (fun uids -> uids = List.sort compare uids) received)

let prop_routing =
  QCheck.Test.make ~name:"messages reach their destination" ~count:200 arbitrary_schedule
    (fun sends ->
      let received = run_dispatch ~num_sites:4 sends in
      List.for_all
        (fun (uid, dst) -> List.mem uid received.(dst))
        (List.mapi (fun uid dst -> (uid, dst)) sends))

(* The event pool keeps no delivered event reachable.  Site 0 sends each
   fan-out's payload (a fresh block, watched through a weak pointer) to
   its destinations and sets a timer with it; site 3 is down, so sends
   there come back as [Send_failed] events.  After [Engine.run] and a
   full major collection, with the engine itself still reachable, no
   watched payload is left alive: not in a freed slot, and not through
   a fan-out's shared event, which the engine finds through its slot
   rather than keeping a pointer to it.  The one event the pool keeps
   for good, its filler, is the first one scheduled: here the injected
   trigger. *)
let prop_pool_retains_nothing =
  let arbitrary =
    QCheck.make
      ~print:(fun fanouts ->
        String.concat " | "
          (List.map (fun dsts -> String.concat "," (List.map string_of_int dsts)) fanouts))
      QCheck.Gen.(list_size (int_range 0 20) (list_size (int_range 0 5) (int_range 0 3)))
  in
  QCheck.Test.make ~name:"no pool slot retains a delivered event" ~count:100 arbitrary
    (fun fanouts ->
      let watched = Weak.create (max 1 (List.length fanouts)) in
      let engine = Engine.create ~num_sites:4 () in
      for site = 1 to 3 do
        Engine.register engine site (fun _ _ -> ())
      done;
      Engine.register engine 0 (fun ctx event ->
          match event with
          | Engine.Message { payload = Trigger; _ } ->
            List.iteri
              (fun uid dsts ->
                let payload = Payload uid in
                Weak.set watched uid (Some payload);
                List.iter (fun dst -> Engine.send ctx dst payload) dsts;
                Engine.set_timer ctx (Raid_net.Vtime.of_ms 1) payload)
              fanouts
          | _ -> ());
      Engine.set_alive engine 3 false;
      Engine.inject engine ~dst:0 Trigger;
      Engine.run engine;
      Gc.full_major ();
      let alive = List.filter (Weak.check watched) (List.init (List.length fanouts) Fun.id) in
      Engine.pending_events engine = 0 && alive = [])

(* Dispatch allocates nothing: 10^4 pre-scheduled messages delivered to
   a handler that allocates nothing cost under one minor word each (the
   slack covers [Engine.run]'s loop closure and boxing the counter). *)
let test_dispatch_allocates_nothing () =
  let events = 10_000 and num_sites = 8 in
  let engine = Engine.create ~num_sites () in
  for site = 0 to num_sites - 1 do
    Engine.register engine site (fun _ _ -> ())
  done;
  for i = 1 to events do
    Engine.inject engine ~dst:(i mod num_sites) (Payload i)
  done;
  let before = Gc.minor_words () in
  Engine.run engine;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all delivered" events (Engine.counters engine).Engine.delivered;
  if words >= float_of_int events then
    Alcotest.failf "dispatching %d events allocated %.0f minor words" events words

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exactly_once;
    QCheck_alcotest.to_alcotest prop_fifo_per_link;
    QCheck_alcotest.to_alcotest prop_routing;
    QCheck_alcotest.to_alcotest prop_pool_retains_nothing;
    Alcotest.test_case "dispatch allocates nothing" `Quick test_dispatch_allocates_nothing;
  ]
