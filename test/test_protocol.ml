(* Integration tests for the ROWAA protocol: two-phase commit, fail-lock
   maintenance, copier and control transactions, driven through Cluster. *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Metrics = Raid_core.Metrics
module Faillock = Raid_core.Faillock
module Site = Raid_core.Site
module Session = Raid_core.Session
module Invariant = Raid_core.Invariant
module Database = Raid_storage.Database

let config ?(num_sites = 3) ?(num_items = 10) ?(cost = Cost_model.free) () =
  Config.make ~cost ~num_sites ~num_items ()

let txn cluster ops = Txn.make ~id:(Cluster.next_txn_id cluster) ops

let check_invariants cluster =
  match Invariant.all cluster with
  | Ok () -> ()
  | Error message -> Alcotest.failf "invariant violated: %s" message

let test_commit_replicates () =
  let cluster = Cluster.create (config ()) in
  let outcome =
    Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 3; Txn.Read 3; Txn.Write 7 ])
  in
  Alcotest.(check bool) "committed" true outcome.Metrics.committed;
  List.iter
    (fun s ->
      let db = Site.database (Cluster.site cluster s) in
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "site %d item 3" s)
        (Some (1, 1)) (Database.read db 3);
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "site %d item 7" s)
        (Some (1, 1)) (Database.read db 7))
    [ 0; 1; 2 ];
  Alcotest.(check int) "no fail-locks" 0 (Cluster.total_faillocks cluster);
  check_invariants cluster

let test_read_own_writes () =
  let cluster = Cluster.create (config ()) in
  let outcome = Cluster.submit cluster ~coordinator:1 (txn cluster [ Txn.Write 2; Txn.Read 2 ]) in
  Alcotest.(check (list (triple int int int))) "reads own write" [ (2, 1, 1) ] outcome.Metrics.reads

let test_read_only_txn () =
  let cluster = Cluster.create (config ()) in
  let outcome = Cluster.submit cluster ~coordinator:2 (txn cluster [ Txn.Read 0; Txn.Read 9 ]) in
  Alcotest.(check bool) "committed" true outcome.Metrics.committed;
  Alcotest.(check (list (triple int int int)))
    "initial values read" [ (0, 0, 0); (9, 0, 0) ] outcome.Metrics.reads

let test_serial_ids_monotone () =
  let cluster = Cluster.create (config ()) in
  Alcotest.(check int) "first id" 1 (Cluster.next_txn_id cluster);
  Alcotest.(check int) "second id" 2 (Cluster.next_txn_id cluster)

let test_faillocks_set_on_down_site () =
  let cluster = Cluster.create (config ()) in
  Cluster.fail_site cluster 2;
  let outcome = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 5 ]) in
  Alcotest.(check bool) "committed despite failure" true outcome.Metrics.committed;
  Alcotest.(check (list int)) "item 5 locked for site 2" [ 5 ] (Cluster.faillocks_for cluster 2);
  (* Both survivors hold the bit (fail-locks are fully replicated). *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "bit at site %d" s)
        true
        (Faillock.is_locked (Site.faillocks (Cluster.site cluster s)) ~item:5 ~site:2))
    [ 0; 1 ];
  check_invariants cluster

let test_update_skips_down_site () =
  let cluster = Cluster.create (config ()) in
  Cluster.fail_site cluster 1;
  let _outcome = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 4 ]) in
  let db1 = Site.database (Cluster.site cluster 1) in
  Alcotest.(check (option (pair int int))) "site 1 stale" (Some (0, 0)) (Database.read db1 4)

let test_write_refreshes_and_clears () =
  let cluster = Cluster.create (config ()) in
  Cluster.fail_site cluster 2;
  let _ = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 5 ]) in
  Alcotest.(check int) "one lock" 1 (Cluster.faillock_count_for cluster 2);
  (match Cluster.recover_site cluster 2 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "recovery blocked");
  (* A write to the same item by a transaction clears the fail-lock. *)
  let _ = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 5 ]) in
  Alcotest.(check int) "cleared by write" 0 (Cluster.faillock_count_for cluster 2);
  Alcotest.(check bool) "fully consistent" true (Cluster.fully_consistent cluster);
  check_invariants cluster

let test_copier_on_read_of_faillocked () =
  let cluster = Cluster.create (config ()) in
  Cluster.fail_site cluster 2;
  let _ = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 5 ]) in
  (match Cluster.recover_site cluster 2 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "recovery blocked");
  (* Site 2 coordinates a transaction reading its out-of-date item: a
     copier transaction must refresh it first. *)
  let outcome = Cluster.submit cluster ~coordinator:2 (txn cluster [ Txn.Read 5 ]) in
  Alcotest.(check bool) "committed" true outcome.Metrics.committed;
  Alcotest.(check int) "one copier request" 1 outcome.Metrics.copier_requests;
  Alcotest.(check int) "one item refreshed" 1 outcome.Metrics.copier_items;
  (* The read saw the up-to-date value (version 1 from txn 1). *)
  Alcotest.(check (list (triple int int int))) "fresh read" [ (5, 1, 1) ] outcome.Metrics.reads;
  Alcotest.(check int) "no locks left" 0 (Cluster.faillock_count_for cluster 2);
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster);
  check_invariants cluster

let test_copier_clears_at_other_sites () =
  let cluster = Cluster.create (config ~num_sites:4 ()) in
  Cluster.fail_site cluster 3;
  let _ = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 8 ]) in
  ignore (Cluster.recover_site cluster 3);
  let _ = Cluster.submit cluster ~coordinator:3 (txn cluster [ Txn.Read 8 ]) in
  (* The special transaction must have cleared the bit at every site. *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "bit cleared at site %d" s)
        false
        (Faillock.is_locked (Site.faillocks (Cluster.site cluster s)) ~item:8 ~site:3))
    [ 0; 1; 2; 3 ];
  check_invariants cluster

let test_abort_when_no_source () =
  (* Figure 2's scenario: the only up-to-date copy is on a down site. *)
  let cluster = Cluster.create (config ~num_sites:2 ()) in
  Cluster.fail_site cluster 0;
  let _ = Cluster.submit cluster ~coordinator:1 (txn cluster [ Txn.Write 5 ]) in
  ignore (Cluster.recover_site cluster 0);
  Cluster.fail_site cluster 1;
  let outcome = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Read 5 ]) in
  Alcotest.(check bool) "aborted" false outcome.Metrics.committed;
  (match outcome.Metrics.abort_reason with
  | Some Metrics.Copier_unavailable -> ()
  | other ->
    Alcotest.failf "expected Copier_unavailable, got %s"
      (match other with
      | None -> "commit"
      | Some r -> Format.asprintf "%a" Metrics.pp_abort_reason r))

let test_blind_write_succeeds_without_source () =
  (* Writes refresh a copy even when no up-to-date source exists. *)
  let cluster = Cluster.create (config ~num_sites:2 ()) in
  Cluster.fail_site cluster 0;
  let _ = Cluster.submit cluster ~coordinator:1 (txn cluster [ Txn.Write 5 ]) in
  ignore (Cluster.recover_site cluster 0);
  Cluster.fail_site cluster 1;
  let outcome = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 5 ]) in
  Alcotest.(check bool) "committed" true outcome.Metrics.committed;
  Alcotest.(check int) "lock for site 0 gone" 0 (Cluster.faillock_count_for cluster 0);
  Alcotest.(check (list int)) "site 1 now behind on item 5" [ 5 ] (Cluster.faillocks_for cluster 1)

let test_recovery_installs_session_and_faillocks () =
  let cluster = Cluster.create (config ~num_sites:3 ()) in
  Cluster.fail_site cluster 1;
  let _ = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 1; Txn.Write 2 ]) in
  ignore (Cluster.recover_site cluster 1);
  let site1 = Cluster.site cluster 1 in
  Alcotest.(check int) "session incremented" 2 (Site.session_number site1);
  Alcotest.(check (list int)) "knows its stale items" [ 1; 2 ]
    (Raid_core.Faillock.locked_items_for (Site.faillocks site1) ~site:1);
  (* Other sites perceive the new session number. *)
  List.iter
    (fun s ->
      let vector = Site.vector (Cluster.site cluster s) in
      Alcotest.(check int) (Printf.sprintf "site %d sees session 2" s) 2 (Session.session vector 1);
      Alcotest.(check bool) (Printf.sprintf "site %d sees up" s) true (Session.is_up vector 1))
    [ 0; 2 ];
  check_invariants cluster

let test_recovery_blocked_without_donor () =
  let cluster = Cluster.create (config ~num_sites:2 ()) in
  Cluster.fail_site cluster 0;
  Cluster.fail_site cluster 1;
  (match Cluster.recover_site cluster 0 with
  | `Blocked -> ()
  | `Recovered -> Alcotest.fail "expected blocked recovery");
  (* Once the other site is back... it also has no donor. *)
  Alcotest.(check bool) "site 0 waiting" true (Site.is_waiting (Cluster.site cluster 0))

let test_session_numbers_increment_per_recovery () =
  let cluster = Cluster.create (config ~num_sites:3 ()) in
  Cluster.fail_site cluster 2;
  ignore (Cluster.recover_site cluster 2);
  Cluster.fail_site cluster 2;
  ignore (Cluster.recover_site cluster 2);
  Alcotest.(check int) "two recoveries" 3 (Site.session_number (Cluster.site cluster 2))

let test_consistency_restored_by_traffic () =
  (* Drive enough uniform writes for every stale copy to refresh. *)
  let cluster = Cluster.create (config ~num_sites:2 ~num_items:5 ()) in
  Cluster.fail_site cluster 0;
  for _ = 1 to 10 do
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:1 (Txn.make ~id [ Txn.Write (id mod 5) ]))
  done;
  ignore (Cluster.recover_site cluster 0);
  for _ = 1 to 5 do
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:1 (Txn.make ~id [ Txn.Write (id mod 5) ]))
  done;
  Alcotest.(check bool) "consistent" true (Cluster.fully_consistent cluster);
  check_invariants cluster

let test_unannounced_crash_aborts_then_recovers () =
  let cluster = Cluster.create (config ~num_sites:3 ()) in
  Cluster.crash_site_now cluster 2;
  (* Survivors do not know yet; the first transaction discovers the
     failure through a phase-1 send failure and aborts. *)
  let first = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 1 ]) in
  Alcotest.(check bool) "first aborted" false first.Metrics.committed;
  (match first.Metrics.abort_reason with
  | Some Metrics.Participant_failed -> ()
  | _ -> Alcotest.fail "expected Participant_failed");
  (* Control-2 ran: the next transaction proceeds without site 2. *)
  let second = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 1 ]) in
  Alcotest.(check bool) "second committed" true second.Metrics.committed;
  Alcotest.(check (list int)) "lock set for site 2" [ 1 ] (Cluster.faillocks_for cluster 2);
  check_invariants cluster

let test_commit_survives_failure_after_prepare () =
  (* Appendix A: "if commit ack not received from all participating sites
     then run control type 2" — but the commit still completes.  Stage a
     participant death between its phase-1 ack and the commit message by
     stepping the engine manually. *)
  let module Engine = Raid_net.Engine in
  let module Message = Raid_core.Message in
  let cluster =
    Cluster.of_spec (Cluster.Spec.make ~trace:true (config ~num_sites:3 ()))
  in
  let engine = Cluster.engine cluster in
  let outcomes = ref [] in
  Cluster.set_outcome_hook cluster (Some (fun o -> outcomes := o :: !outcomes));
  let id = Cluster.next_txn_id cluster in
  Engine.inject engine ~dst:0 (Message.Begin_txn (Txn.make ~id [ Txn.Write 1 ]));
  (* Step until both phase-1 acks have been delivered to the coordinator,
     then crash participant 1 before it can receive the commit. *)
  let acks_delivered () =
    List.length
      (List.filter
         (fun e ->
           e.Engine.trace_outcome = Engine.Delivered
           &&
           match e.Engine.trace_payload with
           | Message.Prepare_ack _ -> e.Engine.trace_dst = 0
           | _ -> false)
         (Engine.trace engine))
  in
  while acks_delivered () < 2 do
    if not (Engine.step engine) then Alcotest.fail "quiescent before phase 1 completed"
  done;
  Cluster.crash_site_now cluster 1;
  Engine.run engine;
  (match !outcomes with
  | [ outcome ] ->
    Alcotest.(check bool) "committed" true outcome.Metrics.committed;
    (* Site 2 applied the write; dead site 1 did not and is fail-locked. *)
    let db2 = Site.database (Cluster.site cluster 2) in
    Alcotest.(check (option (pair int int))) "site 2 applied" (Some (id, id)) (Database.read db2 1);
    Alcotest.(check (list int)) "site 1 fail-locked" [ 1 ] (Cluster.faillocks_for cluster 1);
    (* Control-2 ran: the survivor knows site 1 is down. *)
    Alcotest.(check bool) "site 2 sees 1 down" false
      (Session.is_up (Site.vector (Cluster.site cluster 2)) 1)
  | outcomes -> Alcotest.failf "expected one outcome, got %d" (List.length outcomes));
  check_invariants cluster

let test_vector_agreement_after_churn () =
  let cluster = Cluster.create (config ~num_sites:4 ()) in
  Cluster.fail_site cluster 1;
  let _ = Cluster.submit cluster ~coordinator:0 (txn cluster [ Txn.Write 3 ]) in
  Cluster.fail_site cluster 2;
  ignore (Cluster.recover_site cluster 1);
  let _ = Cluster.submit cluster ~coordinator:3 (txn cluster [ Txn.Write 4 ]) in
  ignore (Cluster.recover_site cluster 2);
  (match Raid_core.Invariant.session_vectors_sane cluster with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_invariants cluster

let test_recovery_donor_failover () =
  (* The designated state donor is dead but the recovering site's stale
     vector still believes it up: the send failure must fail over to the
     next candidate rather than leave the site waiting forever. *)
  let cluster = Cluster.create (config ~num_sites:3 ()) in
  Cluster.crash_site_now cluster 2;  (* will be the recoverer *)
  Cluster.crash_site_now cluster 0;  (* will be the (dead) designated donor *)
  (match Cluster.recover_site cluster 2 with
  | `Recovered -> ()
  | `Blocked -> Alcotest.fail "failover to the live donor did not happen");
  let vector = Site.vector (Cluster.site cluster 2) in
  Alcotest.(check bool) "learned donor's death" false (Session.is_up vector 0);
  Alcotest.(check bool) "live donor still up" true (Session.is_up vector 1);
  (* And the recovered site can immediately coordinate. *)
  let outcome = Cluster.submit cluster ~coordinator:2 (txn cluster [ Txn.Write 1 ]) in
  Alcotest.(check bool) "working" true outcome.Metrics.committed

(* The commit record: one bit per transaction id at each site, set where
   a commit's writes reach a stored copy.  Ids far apart grow it; a site
   that was down, and a copier refresh on behalf of a read, record
   nothing. *)
let test_commit_record () =
  let cluster = Cluster.create (config ()) in
  let applied s id = Site.applied_commit (Cluster.site cluster s) ~txn:id in
  let commit ~coordinator id ops =
    let outcome = Cluster.submit cluster ~coordinator (Txn.make ~id ops) in
    Alcotest.(check bool) (Printf.sprintf "txn %d committed" id) true outcome.Metrics.committed
  in
  List.iter (fun id -> commit ~coordinator:(id mod 3) id [ Txn.Write (id mod 10) ]) [ 3; 500; 70_000 ];
  List.iter
    (fun s ->
      List.iter
        (fun id -> Alcotest.(check bool) (Printf.sprintf "site %d txn %d" s id) true (applied s id))
        [ 3; 500; 70_000 ];
      List.iter
        (fun id -> Alcotest.(check bool) (Printf.sprintf "site %d txn %d" s id) false (applied s id))
        [ -1; 0; 4; 499; 69_999; 70_001; 1_000_000 ])
    [ 0; 1; 2 ];
  Cluster.fail_site cluster 2;
  commit ~coordinator:0 70_001 [ Txn.Write 1 ];
  ignore (Cluster.recover_site cluster 2);
  commit ~coordinator:2 70_002 [ Txn.Read 1 ];
  Alcotest.(check (option (pair int int))) "copier refreshed site 2" (Some (70_001, 70_001))
    (Database.read (Site.database (Cluster.site cluster 2)) 1);
  Alcotest.(check (list bool)) "txn 70001 applied at the up sites" [ true; true; false ]
    (List.map (fun s -> applied s 70_001) [ 0; 1; 2 ]);
  Alcotest.(check bool) "the copier recorded nothing" false (applied 2 70_002)

let suite =
  [
    Alcotest.test_case "recovery donor failover" `Quick test_recovery_donor_failover;
    Alcotest.test_case "commit replicates to all sites" `Quick test_commit_replicates;
    Alcotest.test_case "transaction reads its own write" `Quick test_read_own_writes;
    Alcotest.test_case "read-only transaction commits" `Quick test_read_only_txn;
    Alcotest.test_case "serial ids are monotone" `Quick test_serial_ids_monotone;
    Alcotest.test_case "fail-locks set for down site" `Quick test_faillocks_set_on_down_site;
    Alcotest.test_case "updates skip the down site" `Quick test_update_skips_down_site;
    Alcotest.test_case "write refreshes and clears lock" `Quick test_write_refreshes_and_clears;
    Alcotest.test_case "copier refreshes fail-locked read" `Quick test_copier_on_read_of_faillocked;
    Alcotest.test_case "special txn clears locks everywhere" `Quick test_copier_clears_at_other_sites;
    Alcotest.test_case "abort when no up-to-date source" `Quick test_abort_when_no_source;
    Alcotest.test_case "blind write succeeds without source" `Quick
      test_blind_write_succeeds_without_source;
    Alcotest.test_case "recovery installs state" `Quick test_recovery_installs_session_and_faillocks;
    Alcotest.test_case "recovery blocked without donor" `Quick test_recovery_blocked_without_donor;
    Alcotest.test_case "session numbers increment" `Quick test_session_numbers_increment_per_recovery;
    Alcotest.test_case "traffic restores consistency" `Quick test_consistency_restored_by_traffic;
    Alcotest.test_case "timeout detection aborts then recovers" `Quick
      test_unannounced_crash_aborts_then_recovers;
    Alcotest.test_case "commit survives late participant failure" `Quick
      test_commit_survives_failure_after_prepare;
    Alcotest.test_case "vectors agree after churn" `Quick test_vector_agreement_after_churn;
    Alcotest.test_case "commit record" `Quick test_commit_record;
  ]
