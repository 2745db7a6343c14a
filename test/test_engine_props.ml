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
    Engine.register engine site (fun _ctx event ->
        match event with
        | Engine.Message { payload = Payload uid; _ } ->
          received.(site) <- uid :: received.(site)
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

(* Minor words charged to each message kind a cluster's sites handle:
   every site's handler is wrapped, as raidbench's ledger wraps it, and
   [words.(k)]/[events.(k)] sum over the [Message] events of
   [Message.kind_index] [k].  The run is [steps] driver steps of small
   uniform transactions over 5,000 items, coordinated by [coordinator]
   when given; [plan] fails and recovers sites between them. *)
let words_per_kind ?coordinator ?plan ~num_sites ~steps () =
  let module Cluster = Raid_core.Cluster in
  let module Driver = Raid_core.Driver in
  let module Message = Raid_core.Message in
  let config = Raid_core.Config.make ~num_sites ~num_items:5_000 () in
  let cluster = Cluster.create config in
  let engine = Cluster.engine cluster in
  let words = Float.Array.make Message.kind_count 0.0 in
  let events = Array.make Message.kind_count 0 in
  for id = 0 to num_sites - 1 do
    let handler = Raid_core.Site.handler (Cluster.site cluster id) in
    Engine.register engine id (fun ctx event ->
        match event with
        | Engine.Message { payload; _ } ->
          let kind = Message.kind_index payload in
          let before = Gc.minor_words () in
          handler ctx event;
          Float.Array.set words kind
            (Float.Array.get words kind +. (Gc.minor_words () -. before));
          events.(kind) <- events.(kind) + 1
        | _ -> handler ctx event)
  done;
  let rng = Raid_util.Rng.create 42 in
  let workload =
    Raid_core.Workload.create
      (Raid_core.Workload.Uniform { max_ops = 5; write_prob = 0.5 })
      ~num_items:5_000 ~rng:(Raid_util.Rng.split rng)
  in
  let driver = Driver.create ?plan cluster ~workload ~rng in
  for _ = 1 to steps do
    ignore (Driver.step ?coordinator driver)
  done;
  Alcotest.(check int) "every message delivered" 0 (Engine.pending_events engine);
  (words, events)

(* The 2PC round trip on a 64-site fully replicated cluster with site 5
   down for part of the run, so commits also create, keep and clear
   fail-lock rows.  Shared by the guards below. *)
let round_trip =
  lazy
    (words_per_kind ~num_sites:64 ~steps:2_000
       ~plan:Raid_core.Driver.[ (After_txns 200, Fail 5); (After_txns 1_400, Recover 5) ]
       ())

(* The [Message.kind_index] of the kind named [name]. *)
let kind_named name =
  let module Message = Raid_core.Message in
  List.find (fun i -> Message.kind_of_index i = name) (List.init Message.kind_count Fun.id)

(* Average words per handled message of kind [name] in [round_trip],
   failing when fewer than [min_events] were handled or the average
   passes [bound]. *)
let check_round_trip name ~min_events ~bound =
  let words, events = Lazy.force round_trip in
  let index = kind_named name in
  let n = events.(index) in
  let per_event = Float.Array.get words index /. float_of_int (max 1 n) in
  if n < min_events || per_event > bound then
    Alcotest.failf "%d %s events allocated %.2f minor words each (bound %.1f)" n name per_event
      bound

(* The participant's commit allocates only its ack: a 5-word
   [Commit_ack] payload and its event.  The bound leaves 3 words a
   commit for the amortised growth of the commit record, the latency
   samples and the fail-lock slab. *)
let test_commit_allocates_only_its_ack () =
  check_round_trip "commit" ~min_events:100_000 ~bound:8.0

(* The participant's prepare allocates only its ack and the ack's
   event (5 words): the buffered prepare lives in reused slots of the
   site's prepare table, not in a record and a hash bucket of its own
   (14 words a prepare when it did). *)
let test_prepare_allocates_only_its_ack () =
  check_round_trip "prepare" ~min_events:100_000 ~bound:5.5

(* The coordinator's ack handlers find the transaction without boxing
   the lookup's result: a [Prepare_ack] allocates nothing, and a
   [Commit_ack] only what the last one's local commit does, averaged
   over the 63 acks a transaction gets. *)
let test_acks_allocate_nothing () =
  check_round_trip "prepare_ack" ~min_events:100_000 ~bound:0.5;
  check_round_trip "commit_ack" ~min_events:100_000 ~bound:2.0

(* The coordinator's setup classifies its reads in one pass: no closure,
   no partition tuple and no filtered copy when no read needs a copier
   (about 107 words a [Begin_txn] when it built them). *)
let test_begin_txn_classifies_reads_in_one_pass () =
  check_round_trip "begin_txn" ~min_events:2_000 ~bound:90.0

(* Setting up a transaction costs the same on 16 sites as on 128: the
   same transaction stream, coordinated by site 0 on two fully
   replicated clusters with every site up, allocates under 8 words more
   per [Begin_txn] on the larger one.  A copier array of one slot per
   site alone differs by 112 words. *)
let test_begin_txn_independent_of_sites () =
  let per_begin num_sites =
    let words, events = words_per_kind ~coordinator:0 ~num_sites ~steps:500 () in
    let index = kind_named "begin_txn" in
    Float.Array.get words index /. float_of_int events.(index)
  in
  let small = per_begin 16 and large = per_begin 128 in
  if Float.abs (large -. small) >= 8.0 then
    Alcotest.failf "a Begin_txn allocated %.1f words on 16 sites and %.1f on 128" small large

(* Drawing a coordinator builds no list and boxes nothing: the same run
   on two identical clusters, one drawing its coordinators and one handed
   each draw's result, allocates the same minor words.  The list of 63
   operational sites alone was 189 words a draw, and [Rng.int]'s boxed
   state and rejection closure a further 14. *)
let test_driver_draw_builds_no_list () =
  let module Cluster = Raid_core.Cluster in
  let module Driver = Raid_core.Driver in
  let driver () =
    let cluster = Cluster.create (Raid_core.Config.make ~num_sites:64 ~num_items:500 ()) in
    let rng = Raid_util.Rng.create 7 in
    let workload =
      Raid_core.Workload.create
        (Raid_core.Workload.Uniform { max_ops = 3; write_prob = 0.5 })
        ~num_items:500 ~rng:(Raid_util.Rng.split rng)
    in
    Driver.create ~plan:[ (Driver.After_txns 20, Driver.Fail 9) ] cluster ~workload ~rng
  in
  let drawing = driver () and handed = driver () in
  let steps = 200 in
  let drawn = ref 0.0 and given = ref 0.0 in
  for _ = 1 to steps do
    let before = Gc.minor_words () in
    let outcome = Driver.step drawing in
    drawn := !drawn +. (Gc.minor_words () -. before);
    let coordinator = Some outcome.Raid_core.Metrics.coordinator in
    let before = Gc.minor_words () in
    ignore (Driver.step ?coordinator handed);
    given := !given +. (Gc.minor_words () -. before)
  done;
  let per_draw = (!drawn -. !given) /. float_of_int steps in
  if per_draw > 0.0 then Alcotest.failf "a coordinator draw allocated %.1f minor words" per_draw

(* A long run keeps little per transaction.  On a 64-site fully
   replicated cluster, the live heap (read after a full major collection)
   grows between transaction 1,000 and 2,000 by under 200 words per
   committed transaction; it grows by about 70, mostly latency samples
   and one bit a site of commit record.  Three words per applied write
   at every site, as a per-write log keeps, read about 460. *)
let test_retention_per_txn () =
  let module Cluster = Raid_core.Cluster in
  let module Driver = Raid_core.Driver in
  let cluster = Cluster.create (Raid_core.Config.make ~num_sites:64 ~num_items:5_000 ()) in
  let rng = Raid_util.Rng.create 42 in
  let workload =
    Raid_core.Workload.create
      (Raid_core.Workload.Uniform { max_ops = 5; write_prob = 0.5 })
      ~num_items:5_000 ~rng:(Raid_util.Rng.split rng)
  in
  let driver = Driver.create cluster ~workload ~rng in
  let committed = ref 0 in
  let run txns =
    for _ = 1 to txns do
      if (Driver.step driver).Raid_core.Metrics.committed then incr committed
    done
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  run 1_000;
  let words = live_words () and commits = !committed in
  run 1_000;
  let per_txn = float_of_int (live_words () - words) /. float_of_int (!committed - commits) in
  ignore (Sys.opaque_identity driver);
  if per_txn > 200.0 then Alcotest.failf "each committed txn kept %.0f live words" per_txn

(* A long run stops growing its latency samples: past 65,536
   transactions on a 4-site cluster, the fullest group holds exactly
   its first 65,536 samples. *)
let test_latency_samples_bounded () =
  let module Cluster = Raid_core.Cluster in
  let cluster = Cluster.create (Raid_core.Config.make ~num_sites:4 ~num_items:100 ()) in
  let rng = Raid_util.Rng.create 42 in
  let workload =
    Raid_core.Workload.create
      (Raid_core.Workload.Uniform { max_ops = 3; write_prob = 0.5 })
      ~num_items:100 ~rng:(Raid_util.Rng.split rng)
  in
  let driver = Raid_core.Driver.create cluster ~workload ~rng in
  for _ = 1 to 66_000 do
    ignore (Raid_core.Driver.step driver)
  done;
  let largest =
    List.fold_left
      (fun n (_, samples) -> max n (List.length samples))
      0
      (Raid_core.Metrics.latency_groups (Cluster.metrics cluster))
  in
  Alcotest.(check int) "fullest group" 65_536 largest

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exactly_once;
    QCheck_alcotest.to_alcotest prop_fifo_per_link;
    QCheck_alcotest.to_alcotest prop_routing;
    QCheck_alcotest.to_alcotest prop_pool_retains_nothing;
    Alcotest.test_case "dispatch allocates nothing" `Quick test_dispatch_allocates_nothing;
    Alcotest.test_case "commit allocates only its ack" `Quick test_commit_allocates_only_its_ack;
    Alcotest.test_case "prepare allocates only its ack" `Quick test_prepare_allocates_only_its_ack;
    Alcotest.test_case "acks allocate nothing" `Quick test_acks_allocate_nothing;
    Alcotest.test_case "begin_txn classifies reads in one pass" `Quick
      test_begin_txn_classifies_reads_in_one_pass;
    Alcotest.test_case "coordinator setup does not grow with sites" `Quick
      test_begin_txn_independent_of_sites;
    Alcotest.test_case "driver draw builds no list" `Quick test_driver_draw_builds_no_list;
    Alcotest.test_case "retention per transaction" `Quick test_retention_per_txn;
    Alcotest.test_case "latency samples are bounded" `Quick test_latency_samples_bounded;
  ]
