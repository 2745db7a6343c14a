(* Tests for the crash-injection matrix (lib/sim/crashmatrix.ml) and the
   DESIGN.md section 11 knowledge-loss detector it leans on.  The matrix
   cells double as minimized regressions for the bugs the matrix shook
   out: copier installs masquerading as commit evidence
   (coord-mid-copy), phantom version-0 copies replayed from a
   full-database initial checkpoint image under partial replication
   (part-after-prepare, partial), and ghost commits after a post-decide
   coordinator death (coord-after-decide, correlated). *)

module Crashmatrix = Raid_sim.Crashmatrix
module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Placement = Raid_core.Placement
module Txn = Raid_core.Txn
module Invariant = Raid_core.Invariant

(* {2 Taxonomy} *)

let test_taxonomy () =
  Alcotest.(check int) "thirteen crash points" 13 (List.length Crashmatrix.all_points);
  let names = List.map Crashmatrix.point_name Crashmatrix.all_points in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun p ->
      (match Crashmatrix.point_of_name (Crashmatrix.point_name p) with
      | Some p' when p' = p -> ()
      | _ -> Alcotest.fail ("name round-trip failed for " ^ Crashmatrix.point_name p));
      Alcotest.(check bool)
        ("description for " ^ Crashmatrix.point_name p)
        true
        (String.length (Crashmatrix.point_description p) > 0))
    Crashmatrix.all_points;
  Alcotest.(check bool) "unknown name rejected" true
    (Crashmatrix.point_of_name "no-such-point" = None)

let test_validation () =
  Alcotest.check_raises "empty seeds" (Invalid_argument "Crashmatrix.run: empty seed list")
    (fun () -> ignore (Crashmatrix.run ~seeds:[] ()));
  Alcotest.check_raises "tiny cluster"
    (Invalid_argument "Crashmatrix.run: cluster sizes below 3 cannot host a 2PC crash cell")
    (fun () -> ignore (Crashmatrix.run ~sizes:[ 2 ] ()))

(* {2 Minimized regression cells}

   Each runs one (point, seed=1, sites=4) cell in both placements and
   pins down how the victim transaction must resolve.  These are the
   smallest reproducers of the bugs the full matrix caught. *)

let cells point =
  let summary = Crashmatrix.run ~domains:1 ~seeds:[ 1 ] ~sizes:[ 4 ] ~points:[ point ] () in
  Alcotest.(check int) "one full and one partial cell" 2 (List.length summary.Crashmatrix.rows);
  Alcotest.(check int) "no failed cells" 0 summary.Crashmatrix.failed_cells;
  List.iter
    (fun r ->
      Alcotest.(check (list string)) "no violations" [] r.Crashmatrix.r_violations;
      Alcotest.(check int) "no surviving in-doubt prepare" 0 r.Crashmatrix.r_in_doubt)
    summary.Crashmatrix.rows;
  match summary.Crashmatrix.rows with
  | [ full; partial ] when (not full.Crashmatrix.r_partial) && partial.Crashmatrix.r_partial ->
    (full, partial)
  | _ -> Alcotest.fail "expected a full row then a partial row"

let test_copier_commit_evidence_regression () =
  (* The coordinator dies mid copier transaction.  The in-doubt probe
     answer must come back "aborted": the copier installed the source
     copy's OLD version on behalf of the victim transaction, and only an
     applied commit proves one.  Before the fix the probe read the
     copier's update-log entry as commit evidence and answered
     "committed" for an aborted transaction. *)
  let full, partial = cells Crashmatrix.Coord_mid_copy in
  Alcotest.(check string) "full: aborted" "aborted" full.Crashmatrix.r_resolved;
  Alcotest.(check string) "partial: aborted" "aborted" partial.Crashmatrix.r_resolved

let test_partial_phantom_copy_regression () =
  (* A k=3 participant crashes after its durable prepare and replays its
     WAL.  Before Wal.create took the owner's initial database as the
     checkpoint image, replay materialized version-0 copies of items the
     site never stored — untracked by any fail-lock, so the cluster
     could never converge. *)
  let full, partial = cells Crashmatrix.Part_after_prepare in
  Alcotest.(check string) "full: committed" "committed" full.Crashmatrix.r_resolved;
  Alcotest.(check string) "partial: committed" "committed" partial.Crashmatrix.r_resolved

let test_ghost_commit_cell () =
  (* Coordinator death after the durable decide: nobody reports an
     outcome, but the commit is proved from a survivor's commit record or
     the coordinator's durable decision record and the writes must land
     everywhere. *)
  let full, partial = cells Crashmatrix.Coord_after_decide in
  Alcotest.(check string) "full: ghost-commit" "ghost-commit" full.Crashmatrix.r_resolved;
  Alcotest.(check string) "partial: ghost-commit" "ghost-commit" partial.Crashmatrix.r_resolved

let test_mid_checkpoint_cell () =
  (* A checkpoint races a buffered prepare (checkpoint_interval = 2 with
     two overlapping transactions): the prepare must survive the log
     truncation and the decided transaction must commit everywhere. *)
  let full, partial = cells Crashmatrix.Mid_checkpoint in
  Alcotest.(check string) "full: committed" "committed" full.Crashmatrix.r_resolved;
  Alcotest.(check string) "partial: committed" "committed" partial.Crashmatrix.r_resolved

let test_matrix_determinism () =
  (* Every cell is a pure function of its coordinates: the CSV must be
     byte-identical whatever the domain count. *)
  let grid domains =
    Crashmatrix.to_csv
      (Crashmatrix.run ~domains ~seeds:[ 1; 2 ]
         ~sizes:[ 4 ]
         ~points:[ Crashmatrix.Coord_before_decide; Crashmatrix.Part_after_prepare ]
         ())
  in
  Alcotest.(check string) "-j1 = -j4" (grid 1) (grid 4)

(* {2 Knowledge loss (DESIGN.md section 11)}

   Under k=3 partial replication the fail-lock bits witnessing a down
   holder's staleness are group-local: they live only at the item's
   other holders.  Crash both witnesses and the fact "h2's copy of item
   0 is stale" is gone from every live table — the recovering h2 finds a
   clean bill of health and serves its stale copy.  The detector turns
   that silent gap into a counted, logged condition the staleness
   invariant tolerates. *)

let knowledge_loss_cluster () =
  let num_sites = 5 and num_items = 6 in
  let spec = Placement.spec ~factor:3 () in
  let config =
    Config.make ~cost:Cost_model.free
      ~replication:(Config.Partial spec)
      ~durability:(Config.Durable_wal { checkpoint_interval = 8 })
      ~num_sites ~num_items ()
  in
  let cluster = Cluster.create config in
  let placement = Placement.make ~num_sites ~num_items spec in
  (cluster, Placement.replicas placement 0)

let test_knowledge_loss_detected () =
  let cluster, holders = knowledge_loss_cluster () in
  match holders with
  | [ h0; h1; h2 ] ->
    Cluster.fail_site cluster h2;
    let id = Cluster.next_txn_id cluster in
    let outcome = Cluster.submit cluster ~coordinator:h0 (Txn.make ~id [ Txn.Write 0 ]) in
    Alcotest.(check bool) "write committed without h2" true
      outcome.Raid_core.Metrics.committed;
    (* h0 and h1 both hold the (item 0, h2) bit: losing one witness is
       not yet knowledge loss. *)
    Alcotest.(check int) "no loss yet" 0 (Cluster.knowledge_loss_events cluster);
    Cluster.fail_site cluster h0;
    Alcotest.(check int) "h1 still witnesses" 0 (Cluster.knowledge_loss_events cluster);
    Cluster.fail_site cluster h1;
    Alcotest.(check int) "last witness died" 1 (Cluster.knowledge_loss_events cluster);
    Alcotest.(check bool) "the lost fact is recorded" true
      (Cluster.knowledge_lost cluster ~item:0 ~site:h2);
    Alcotest.(check bool) "other pairs unaffected" false
      (Cluster.knowledge_lost cluster ~item:1 ~site:h2);
    (* h2 recovers first, from a non-holder donor: nobody tells it the
       copy is stale, which is exactly the gap.  The staleness invariant
       must tolerate the recorded pair instead of firing. *)
    (match Cluster.recover_site cluster h2 with
    | `Recovered -> ()
    | `Blocked -> Alcotest.fail "h2 blocked");
    (match Invariant.faillocks_track_staleness cluster with
    | Ok () -> ()
    | Error m -> Alcotest.fail ("staleness invariant should tolerate the recorded loss: " ^ m));
    List.iter
      (fun s ->
        match Cluster.recover_site cluster s with
        | `Recovered -> ()
        | `Blocked -> Alcotest.fail "witness blocked")
      [ h0; h1 ];
    (match Invariant.all cluster with Ok () -> () | Error m -> Alcotest.fail m);
    (* The gap is permanent until the item is overwritten: a fresh write
       to item 0 re-synchronizes all three holders. *)
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:h0 (Txn.make ~id [ Txn.Write 0 ]));
    Alcotest.(check bool) "rewrite converges the cluster" true
      (Cluster.fully_consistent cluster);
    (* The counter is monotone and append-only: recovery cleared nothing. *)
    Alcotest.(check int) "event count unchanged" 1 (Cluster.knowledge_loss_events cluster)
  | _ -> Alcotest.fail "expected exactly 3 holders of item 0"

let test_no_false_positive_under_full_replication () =
  (* Under full replication every up site witnesses every fail-lock, so
     a single crash can never lose knowledge. *)
  let config =
    Config.make ~cost:Cost_model.free
      ~durability:(Config.Durable_wal { checkpoint_interval = 8 })
      ~num_sites:4 ~num_items:6 ()
  in
  let cluster = Cluster.create config in
  Cluster.fail_site cluster 3;
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 0 ]));
  Cluster.fail_site cluster 1;
  Alcotest.(check int) "witnesses everywhere" 0 (Cluster.knowledge_loss_events cluster);
  ignore (Cluster.recover_site cluster 1);
  ignore (Cluster.recover_site cluster 3);
  (match Invariant.all cluster with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "still none" 0 (Cluster.knowledge_loss_events cluster)

let suite =
  [
    Alcotest.test_case "crash-point taxonomy round-trips" `Quick test_taxonomy;
    Alcotest.test_case "run validates its grid" `Quick test_validation;
    Alcotest.test_case "copier entries are not commit evidence" `Slow
      test_copier_commit_evidence_regression;
    Alcotest.test_case "partial replay spawns no phantom copies" `Slow
      test_partial_phantom_copy_regression;
    Alcotest.test_case "post-decide death resolves as ghost commit" `Slow test_ghost_commit_cell;
    Alcotest.test_case "checkpoint races a buffered prepare" `Slow test_mid_checkpoint_cell;
    Alcotest.test_case "matrix CSV is -j independent" `Slow test_matrix_determinism;
    Alcotest.test_case "knowledge loss detected when last witness dies" `Quick
      test_knowledge_loss_detected;
    Alcotest.test_case "no knowledge loss under full replication" `Quick
      test_no_false_positive_under_full_replication;
  ]
