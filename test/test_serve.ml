(* Loopback round-trip of the live soak harness: a real socket client
   against [Soak] on an ephemeral port, pumped from this same thread —
   write the request, {!Soak.tick} until the response arrives, read to
   EOF.  Covers the raid-serve acceptance path end to end: health,
   metrics, operator fail/recover with visible fail-lock movement, load
   adjustment and graceful shutdown. *)

module Soak = Raid_sim.Soak
module Cluster = Raid_core.Cluster
module Json = Raid_obs.Json

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* Issue one request and pump the soak until the server closes the
   connection (every response is Connection: close). *)
let request soak ~meth ?(body = "") path =
  let fd = connect (Soak.port soak) in
  let payload =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s" meth path
      (String.length body) body
  in
  let _ = Unix.write_substring fd payload 0 (String.length payload) in
  let buffer = Buffer.create 512 and chunk = Bytes.create 4096 in
  let deadline = 200 in
  let rec read_all tries =
    if tries = 0 then Alcotest.fail "no response within the pump budget";
    Soak.tick ~timeout:0.01 soak;
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buffer chunk 0 n;
      read_all (tries - 1)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      read_all (tries - 1)
  in
  Unix.set_nonblock fd;
  read_all deadline;
  Unix.close fd;
  let raw = Buffer.contents buffer in
  match String.index_opt raw ' ' with
  | None -> Alcotest.failf "malformed response: %S" raw
  | Some i ->
    let status = int_of_string (String.sub raw (i + 1) 3) in
    let body =
      let rec find j =
        if j + 4 > String.length raw then None
        else if String.sub raw j 4 = "\r\n\r\n" then Some j
        else find (j + 1)
      in
      match find 0 with
      | Some j -> String.sub raw (j + 4) (String.length raw - j - 4)
      | None -> ""
    in
    (status, body)

let get soak path = request soak ~meth:"GET" path
let post soak ?body path = request soak ~meth:"POST" ?body path

let json_exn body =
  match Json.parse body with Ok v -> v | Error m -> Alcotest.failf "bad JSON: %s (%s)" m body

let int_member key json =
  match Json.member key json with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "missing int field %S" key

let with_soak ?(sites = 6) f =
  let soak =
    Soak.create
      (Soak.make_config ~sites ~items:60 ~accel:0.0 ~seed:7 ~port:0 ())
  in
  Fun.protect ~finally:(fun () -> ignore (Soak.shutdown soak)) (fun () -> f soak)

let test_round_trip () =
  with_soak (fun soak ->
      (* Let the unthrottled stream build some history first. *)
      for _ = 1 to 5 do
        Soak.tick ~timeout:0.0 soak
      done;
      let status, body = get soak "/health" in
      Alcotest.(check int) "health 200" 200 status;
      Alcotest.(check bool) "health reports ok" true
        (Json.member "status" (json_exn body) = Some (Json.Str "ok"));
      let status, body = get soak "/metrics" in
      Alcotest.(check int) "metrics 200" 200 status;
      let contains needle =
        let rec go i =
          i + String.length needle <= String.length body
          && (String.sub body i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "exposition has engine counters" true
        (contains "raid_engine_events_total");
      Alcotest.(check bool) "exposition has build info" true (contains "raid_build_info{");
      Alcotest.(check bool) "exposition has process gauges" true
        (contains "raid_process_uptime_seconds");
      let status, body = get soak "/txns" in
      Alcotest.(check int) "txns 200" 200 status;
      Alcotest.(check bool) "txns committed > 0" true
        (int_member "committed" (json_exn body) > 0))

let test_fail_and_recover () =
  with_soak (fun soak ->
      for _ = 1 to 3 do
        Soak.tick ~timeout:0.0 soak
      done;
      let site_field body field =
        match Json.member "sites" (json_exn body) with
        | Some (Json.Arr sites) -> int_member field (List.nth sites 1)
        | _ -> Alcotest.fail "missing sites array"
      in
      let status, _ = post soak "/sites/1/fail" in
      Alcotest.(check int) "fail 200" 200 status;
      Alcotest.(check bool) "cluster sees site 1 down" false
        (Cluster.alive (Soak.cluster soak) 1);
      let status, _ = post soak "/sites/1/fail" in
      Alcotest.(check int) "double fail 409" 409 status;
      (* Fail-locks for the down site accumulate as the stream writes. *)
      for _ = 1 to 5 do
        Soak.tick ~timeout:0.0 soak
      done;
      let _, body = get soak "/sites" in
      let locked = site_field body "faillocks" in
      Alcotest.(check bool) "fail-locks accumulated for the down site" true (locked > 0);
      let status, _ = post soak "/sites/1/recover" in
      Alcotest.(check int) "recover 200" 200 status;
      Alcotest.(check bool) "site 1 back up" true (Cluster.alive (Soak.cluster soak) 1);
      (* On-demand recovery refreshes copies lazily: the continuing
         write stream drains the remaining fail-locks. *)
      let drained = ref (-1) in
      (try
         for _ = 1 to 60 do
           Soak.tick ~timeout:0.0 soak;
           let _, body = get soak "/sites" in
           let left = site_field body "faillocks" in
           if left = 0 then begin
             drained := 0;
             raise Exit
           end
         done
       with Exit -> ());
      Alcotest.(check int) "stream drains the fail-locks after recovery" 0 !drained;
      let status, _ = post soak "/sites/1/recover" in
      Alcotest.(check int) "recover while up is 409" 409 status;
      let status, _ = post soak "/sites/99/fail" in
      Alcotest.(check int) "unknown site is 404" 404 status)

(* The observatory endpoints: /incidents reports tenant-0 recovery
   timelines assembled live, /txns/:id serves one transaction's span
   tree — both bodies must parse and carry the documented fields. *)
let test_observatory_endpoints () =
  with_soak (fun soak ->
      for _ = 1 to 3 do
        Soak.tick ~timeout:0.0 soak
      done;
      (* No failures yet: an empty but well-formed incident report. *)
      let status, body = get soak "/incidents" in
      Alcotest.(check int) "incidents 200" 200 status;
      let json = json_exn body in
      Alcotest.(check int) "no incidents before a failure" 0 (int_member "count" json);
      Alcotest.(check bool) "dropped counter present" true
        (Json.member "dropped_trace_entries" json <> None);
      (* Unknown and malformed span lookups. *)
      let status, _ = get soak "/txns/999999" in
      Alcotest.(check int) "unknown txn 404" 404 status;
      let status, _ = get soak "/txns/not-a-number" in
      Alcotest.(check int) "malformed txn id 404" 404 status;
      (* A transaction's span tree is served by id: ids are dense from
         1, so probe for the first one still in the ring. *)
      let found_id, body =
        let rec probe id =
          if id > 50 then Alcotest.fail "no span tree for any txn id in 1..50"
          else
            match get soak (Printf.sprintf "/txns/%d" id) with
            | 200, body -> (id, body)
            | _ -> probe (id + 1)
        in
        probe 1
      in
      let span = json_exn body in
      Alcotest.(check int) "span is for the requested txn" found_id (int_member "txn" span);
      Alcotest.(check bool) "span has a critical path" true
        (Json.member "critical_path" span <> None);
      (* Fail and recover a site; the incident shows up with tiling
         phases once the stream drains the fail-locks. *)
      let status, _ = post soak "/sites/1/fail" in
      Alcotest.(check int) "fail 200" 200 status;
      for _ = 1 to 5 do
        Soak.tick ~timeout:0.0 soak
      done;
      let status, _ = post soak "/sites/1/recover" in
      Alcotest.(check int) "recover 200" 200 status;
      for _ = 1 to 30 do
        Soak.tick ~timeout:0.0 soak
      done;
      let _, body = get soak "/incidents" in
      let json = json_exn body in
      Alcotest.(check bool) "an incident is reported" true (int_member "count" json >= 1);
      match Json.member "incidents" json with
      | Some (Json.Arr (incident :: _)) ->
        Alcotest.(check int) "incident names the failed site" 1 (int_member "site" incident);
        Alcotest.(check bool) "incident carries phases" true
          (Json.member "phases" incident <> None)
      | _ -> Alcotest.fail "missing incidents array")

let test_last_site_guard () =
  with_soak ~sites:2 (fun soak ->
      Soak.tick ~timeout:0.0 soak;
      let status, _ = post soak "/sites/0/fail" in
      Alcotest.(check int) "first fail ok" 200 status;
      let status, body = post soak "/sites/1/fail" in
      Alcotest.(check int) "last operational site refuses" 409 status;
      Alcotest.(check bool) "explains why" true
        (Json.member "error" (json_exn body) <> None);
      (* The stream idles rather than crashing with no coordinator. *)
      Soak.tick ~timeout:0.0 soak;
      let status, _ = get soak "/health" in
      Alcotest.(check int) "still serving" 200 status)

let test_load_adjustment () =
  with_soak (fun soak ->
      Soak.tick ~timeout:0.0 soak;
      let status, body = post soak ~body:{|{"write_prob":0.9,"max_ops":3,"rate":50}|} "/load" in
      Alcotest.(check int) "load 200" 200 status;
      let json = json_exn body in
      Alcotest.(check int) "max_ops echoed" 3 (int_member "max_ops" json);
      let status, _ = post soak ~body:{|{"write_prob":7}|} "/load" in
      Alcotest.(check int) "out-of-range write_prob is 400" 400 status;
      let status, _ = post soak ~body:"not json" "/load" in
      Alcotest.(check int) "unparsable body is 400" 400 status;
      (* max_ops is a JSON integer: a fraction, or a float past the int
         range, is refused rather than truncated. *)
      let status, _ = post soak ~body:{|{"max_ops":2.5}|} "/load" in
      Alcotest.(check int) "fractional max_ops is 400" 400 status;
      (* A refused request changes nothing, even its valid fields. *)
      let status, _ = post soak ~body:{|{"write_prob":0.2,"max_ops":1e19}|} "/load" in
      Alcotest.(check int) "huge max_ops is 400" 400 status;
      let status, body = post soak ~body:{|{"rate":null}|} "/load" in
      Alcotest.(check int) "later load 200" 200 status;
      let json = json_exn body in
      Alcotest.(check int) "max_ops kept" 3 (int_member "max_ops" json);
      Alcotest.(check bool) "write_prob kept" true
        (Json.member "write_prob" json = Some (Json.Float 0.9));
      Soak.tick ~timeout:0.0 soak;
      let status, _ = get soak "/health" in
      Alcotest.(check int) "still serving" 200 status)

let test_shutdown_summary () =
  let soak = Soak.create (Soak.make_config ~sites:4 ~items:40 ~accel:0.0 ~port:0 ()) in
  for _ = 1 to 4 do
    Soak.tick ~timeout:0.0 soak
  done;
  let port = Soak.port soak in
  let s = Soak.shutdown soak in
  Alcotest.(check bool) "work happened" true (s.Soak.submitted > 0 && s.Soak.events > 0);
  Alcotest.(check bool) "summary consistent" true
    (s.Soak.committed + s.Soak.aborted = s.Soak.submitted);
  let s2 = Soak.shutdown soak in
  Alcotest.(check bool) "shutdown idempotent" true (s2.Soak.submitted = s.Soak.submitted);
  (* The listener is really gone. *)
  Alcotest.check_raises "port closed"
    (Unix.Unix_error (Unix.ECONNREFUSED, "connect", "")) (fun () ->
      let fd = connect port in
      Unix.close fd)

(* Every metric family a single-tenant soak serves on /metrics. *)
let served_families =
  [
    "raid_batch_copier_rounds_total"; "raid_build_info"; "raid_clear_specials_sent_total";
    "raid_control1_completed_total"; "raid_control2_announcements_total";
    "raid_control3_backups_total"; "raid_copier_items_refreshed_total";
    "raid_copier_requests_total"; "raid_engine_events_total"; "raid_engine_heap_high_water";
    "raid_engine_messages_total"; "raid_engine_queue_depth"; "raid_engine_sent_total";
    "raid_engine_undeliverable_total"; "raid_engine_vtime_us_total";
    "raid_faillocks_cleared_total"; "raid_faillocks_set_total"; "raid_knowledge_loss_total";
    "raid_process_events_per_sec"; "raid_process_requests_total"; "raid_process_uptime_seconds";
    "raid_recovery_phase_seconds"; "raid_site_alive"; "raid_site_buffered_prepares";
    "raid_site_faillock_bits"; "raid_site_faillocks"; "raid_site_pending_2pc";
    "raid_site_session_up"; "raid_trace_dropped_total"; "raid_txn_latency_ms";
    "raid_txns_aborted_total"; "raid_txns_committed_total";
  ]

(* The soak's readers want current values only, so its registry keeps
   no history however long it runs — through failure and recovery too —
   while /metrics still serves every family. *)
let test_retains_no_series () =
  with_soak (fun soak ->
      for i = 1 to 30 do
        if i = 10 then Alcotest.(check int) "fail" 200 (fst (post soak "/sites/2/fail"));
        if i = 20 then Alcotest.(check int) "recover" 200 (fst (post soak "/sites/2/recover"));
        Soak.tick ~timeout:0.0 soak
      done;
      let registry = Soak.registry soak in
      List.iter
        (fun (v : Raid_obs.Telemetry.view) ->
          Raid_obs.Series.iter v.Raid_obs.Telemetry.v_series (fun ~at:_ _ ->
              Alcotest.failf "%s series not empty" v.Raid_obs.Telemetry.v_name))
        (Raid_obs.Telemetry.views registry);
      let status, body = get soak "/metrics" in
      Alcotest.(check int) "metrics 200" 200 status;
      let families =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "#"; "TYPE"; name; _ ] -> Some name
            | _ -> None)
          (String.split_on_char '\n' body)
      in
      Alcotest.(check (list string)) "every family served" served_families families;
      Alcotest.(check bool) "still counting" true
        (Soak.((summary soak).committed) > 0))

let suite =
  [
    Alcotest.test_case "loopback round trip" `Quick test_round_trip;
    Alcotest.test_case "fail and recover via POST" `Quick test_fail_and_recover;
    Alcotest.test_case "observatory endpoints" `Quick test_observatory_endpoints;
    Alcotest.test_case "last operational site guard" `Quick test_last_site_guard;
    Alcotest.test_case "live load adjustment" `Quick test_load_adjustment;
    Alcotest.test_case "shutdown summary" `Quick test_shutdown_summary;
    Alcotest.test_case "retains no series" `Quick test_retains_no_series;
  ]
