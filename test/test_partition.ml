(* Network partitions.

   The paper defines fail-locks for copies "unavailable due to site
   failure or network partitioning" (§1) but its protocol — like any
   ROWA-available scheme — cannot prevent divergence when the network
   splits: each side concludes the other has failed (control-2) and keeps
   accepting writes.  These tests pin down exactly that behaviour: the
   engine's severed links make both halves diverge, and the invariant
   checker catches the resulting stale read.  (The quorum baseline exists
   precisely because majorities make one side stop.) *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Txn = Raid_core.Txn
module Metrics = Raid_core.Metrics
module Invariant = Raid_core.Invariant
module Engine = Raid_net.Engine

let sever_between engine side_a side_b =
  List.iter (fun a -> List.iter (fun b -> Engine.set_link engine a b false) side_b) side_a

let partitioned_cluster () =
  let config = Config.make ~cost:Cost_model.free ~num_sites:4 ~num_items:10 () in
  let cluster = Cluster.create config in
  sever_between (Cluster.engine cluster) [ 0; 1 ] [ 2; 3 ];
  cluster

(* Each side's first transaction discovers the "failure" of the other
   side and aborts; retry until the side has adapted. *)
let submit_until_commit cluster ~coordinator ops =
  let rec loop budget =
    if budget = 0 then Alcotest.fail "side never adapted to the partition";
    let id = Cluster.next_txn_id cluster in
    let outcome = Cluster.submit cluster ~coordinator (Txn.make ~id ops) in
    if outcome.Metrics.committed then outcome else loop (budget - 1)
  in
  loop 5

let test_both_sides_keep_writing () =
  let cluster = partitioned_cluster () in
  let a = submit_until_commit cluster ~coordinator:0 [ Txn.Write 5 ] in
  let b = submit_until_commit cluster ~coordinator:2 [ Txn.Write 5 ] in
  Alcotest.(check bool) "both committed" true (a.Metrics.committed && b.Metrics.committed);
  (* The two halves now hold different copies of item 5. *)
  let read side =
    Raid_storage.Database.read (Raid_core.Site.database (Cluster.site cluster side)) 5
  in
  Alcotest.(check bool) "divergence" true (read 0 <> read 2)

let test_stale_read_detected () =
  let cluster = partitioned_cluster () in
  let _ = submit_until_commit cluster ~coordinator:0 [ Txn.Write 5 ] in
  let newer = submit_until_commit cluster ~coordinator:2 [ Txn.Write 5 ] in
  (* Side A now reads its own stale copy of item 5 — a correctness
     violation no fail-lock can flag, because side A believes side B is
     simply down. *)
  let stale = submit_until_commit cluster ~coordinator:0 [ Txn.Read 5 ] in
  (match stale.Metrics.reads with
  | [ (5, _, version) ] ->
    Alcotest.(check bool) "read an old version" true
      (version < newer.Metrics.txn.Raid_core.Txn.id)
  | _ -> Alcotest.fail "unexpected read set");
  match Invariant.no_stale_reads cluster with
  | Error _ -> ()  (* the checker catches the split-brain read *)
  | Ok () -> Alcotest.fail "stale read went undetected"

let test_each_side_marks_other_down () =
  let cluster = partitioned_cluster () in
  let _ = submit_until_commit cluster ~coordinator:0 [ Txn.Write 1 ] in
  let vector0 = Raid_core.Site.vector (Cluster.site cluster 0) in
  Alcotest.(check bool) "side A thinks 2 down" false (Raid_core.Session.is_up vector0 2);
  Alcotest.(check bool) "side A thinks 3 down" false (Raid_core.Session.is_up vector0 3);
  Alcotest.(check bool) "side A keeps 1 up" true (Raid_core.Session.is_up vector0 1)

let test_healing_via_recovery_protocol () =
  (* After the partition heals, running the recovery protocol on one side
     reconciles it: we treat side A's sites as "recovering" so they fetch
     authoritative state from side B (the side chosen to survive).  This
     mirrors how a real deployment resolves ROWAA split-brain: one side
     is designated primary, the other re-joins through control-1. *)
  let cluster = partitioned_cluster () in
  let _ = submit_until_commit cluster ~coordinator:0 [ Txn.Write 5 ] in
  let b = submit_until_commit cluster ~coordinator:2 [ Txn.Write 5 ] in
  (* Heal the network. *)
  List.iter
    (fun a -> List.iter (fun s -> Engine.set_link (Cluster.engine cluster) a s true) [ 2; 3 ])
    [ 0; 1 ];
  (* Re-join side A through fail + recover (state comes from side B). *)
  Cluster.crash_site_now cluster 0;
  Cluster.crash_site_now cluster 1;
  (match Cluster.recover_site cluster 0 with `Recovered -> () | `Blocked -> Alcotest.fail "blocked");
  (match Cluster.recover_site cluster 1 with `Recovered -> () | `Blocked -> Alcotest.fail "blocked");
  (* Side A's divergent write of item 5 is overwritten once traffic (or a
     copier) touches it; force it with one write. *)
  let id = Cluster.next_txn_id cluster in
  let _ = Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Write 5 ]) in
  Alcotest.(check bool) "consistent after re-join" true (Cluster.fully_consistent cluster);
  ignore b

let suite =
  [
    Alcotest.test_case "both sides keep writing" `Quick test_both_sides_keep_writing;
    Alcotest.test_case "stale read detected by checker" `Quick test_stale_read_detected;
    Alcotest.test_case "each side marks other down" `Quick test_each_side_marks_other_down;
    Alcotest.test_case "healing via recovery protocol" `Quick test_healing_via_recovery_protocol;
  ]
