module Protocol = Raid_baselines.Protocol
module Txn = Raid_core.Txn
module Cost_model = Raid_core.Cost_model
module Database = Raid_storage.Database

let create kind = Protocol.create ~cost:Cost_model.free kind ~num_sites:4 ~num_items:10 ()

let txn id ops = Txn.make ~id ops

(* The quorum-read oracle: the newest copy among the reader and the next
   up sites, [read_quorum] in all, or [None] below quorum.  It reads the
   copies directly, so the intersection argument is checked without the
   message-driven read path. *)
let quorum_read t ~read_quorum ~up ~reader item =
  if List.length up < read_quorum then None
  else
    let members =
      List.filteri (fun i _ -> i < read_quorum) (reader :: List.filter (( <> ) reader) up)
    in
    List.fold_left
      (fun best s ->
        match (best, Database.read (Protocol.database t s) item) with
        | None, copy -> copy
        | copy, None -> copy
        | Some (_, bv), Some (value, version) when version > bv -> Some (value, version)
        | best, _ -> best)
      None members

let test_rowa_commits_when_all_up () =
  let t = create Protocol.Strict_rowa in
  let outcome = Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 3; Txn.Read 3 ]) in
  Alcotest.(check bool) "committed" true outcome.Protocol.committed;
  for s = 0 to 3 do
    Alcotest.(check (option (pair int int)))
      (Printf.sprintf "site %d" s)
      (Some (1, 1))
      (Database.read (Protocol.database t s) 3)
  done

let test_rowa_blocks_writes_on_failure () =
  let t = create Protocol.Strict_rowa in
  Protocol.fail_site t 2;
  let write = Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 3 ]) in
  Alcotest.(check bool) "write aborted" false write.Protocol.committed;
  (* Reads stay available (read-one). *)
  let read = Protocol.submit t ~coordinator:0 (txn 2 [ Txn.Read 3 ]) in
  Alcotest.(check bool) "read committed" true read.Protocol.committed

let test_rowa_recovery_is_trivial () =
  let t = create Protocol.Strict_rowa in
  Protocol.fail_site t 2;
  ignore (Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 3 ]));
  Protocol.recover_site t 2;
  (* No write committed while the site was down, so all copies match. *)
  let ok = Protocol.submit t ~coordinator:0 (txn 2 [ Txn.Write 3 ]) in
  Alcotest.(check bool) "write commits after recovery" true ok.Protocol.committed;
  Alcotest.(check (option (pair int int))) "recovered site current" (Some (2, 2))
    (Database.read (Protocol.database t 2) 3)

let test_quorum_commits_with_minority_down () =
  let t = create (Protocol.majority ~num_sites:4) in
  Protocol.fail_site t 3;
  let outcome = Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 5; Txn.Read 5 ]) in
  Alcotest.(check bool) "committed with 3/4 up" true outcome.Protocol.committed

let test_quorum_aborts_below_quorum () =
  let t = create (Protocol.majority ~num_sites:4) in
  Protocol.fail_site t 2;
  Protocol.fail_site t 3;
  let write = Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 5 ]) in
  Alcotest.(check bool) "write aborted with 2/4 up" false write.Protocol.committed;
  let read = Protocol.submit t ~coordinator:0 (txn 2 [ Txn.Read 5 ]) in
  Alcotest.(check bool) "read aborted with 2/4 up" false read.Protocol.committed

let test_quorum_read_sees_newest_despite_stale_replica () =
  let t = create (Protocol.Quorum { read_quorum = 3; write_quorum = 2 }) in
  (* Write while sites 2,3 are up-but-unchosen: write quorum 2 targets the
     coordinator plus the first up other (site 1), leaving 2,3 stale. *)
  let w = Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 4 ]) in
  Alcotest.(check bool) "write committed" true w.Protocol.committed;
  Alcotest.(check (option (pair int int))) "site 3 stale" (Some (0, 0))
    (Database.read (Protocol.database t 3) 4);
  (* A quorum read from site 2 (whose own copy is stale) must still see
     version 1: any 3 sites intersect the write set {0,1}. *)
  Alcotest.(check (option (pair int int))) "quorum read newest" (Some (1, 1))
    (quorum_read t ~read_quorum:3 ~up:[ 0; 1; 2; 3 ] ~reader:2 4)

let test_quorum_transactional_read_path () =
  let t = create (Protocol.Quorum { read_quorum = 3; write_quorum = 2 }) in
  ignore (Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 4 ]));
  (* Site 3's transactional read gathers 3 copies and must commit. *)
  let r = Protocol.submit t ~coordinator:3 (txn 2 [ Txn.Read 4 ]) in
  Alcotest.(check bool) "read txn commits" true r.Protocol.committed;
  Alcotest.(check bool) "read txns cost messages" true (r.Protocol.messages >= 4)

let test_quorum_validation () =
  Alcotest.check_raises "r+w too small"
    (Invalid_argument "Protocol: need read_quorum + write_quorum > num_sites") (fun () ->
      ignore
        (Protocol.create (Protocol.Quorum { read_quorum = 2; write_quorum = 2 }) ~num_sites:4
           ~num_items:4 ()));
  Alcotest.check_raises "quorum exceeds sites"
    (Invalid_argument "Protocol: quorum exceeds number of sites") (fun () ->
      ignore
        (Protocol.create (Protocol.Quorum { read_quorum = 5; write_quorum = 1 }) ~num_sites:4
           ~num_items:4 ()))

let test_majority_helper () =
  match Protocol.majority ~num_sites:5 with
  | Protocol.Quorum { read_quorum = 3; write_quorum = 3 } -> ()
  | _ -> Alcotest.fail "majority of 5 should be 3/3"

let test_coordinator_down_rejected () =
  let t = create Protocol.Strict_rowa in
  Protocol.fail_site t 0;
  Alcotest.check_raises "down coordinator" (Invalid_argument "Protocol.submit: coordinator is down")
    (fun () -> ignore (Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Read 0 ])))

let test_message_counting () =
  let t = create Protocol.Strict_rowa in
  (* One write to 3 others: 3 requests + 3 acks = 6 messages. *)
  let outcome = Protocol.submit t ~coordinator:0 (txn 1 [ Txn.Write 0 ]) in
  Alcotest.(check int) "write-all messages" 6 outcome.Protocol.messages;
  (* A local read costs nothing. *)
  let read = Protocol.submit t ~coordinator:0 (txn 2 [ Txn.Read 0 ]) in
  Alcotest.(check int) "read messages" 0 read.Protocol.messages

(* Property: under any schedule of single-site failures/recoveries and
   writes, a quorum read (when available) returns the newest committed
   version — the r+w > n intersection argument, checked empirically. *)
let prop_quorum_reads_never_stale =
  let gen =
    QCheck.Gen.(list_size (int_range 1 40) (pair (int_range 0 9) (int_range 0 3)))
  in
  QCheck.Test.make ~name:"quorum reads never stale" ~count:100
    (QCheck.make ~print:(fun ops ->
         String.concat ";" (List.map (fun (a, s) -> Printf.sprintf "%d@%d" a s) ops))
       gen)
    (fun ops ->
      let t =
        Protocol.create ~cost:Cost_model.free (Protocol.majority ~num_sites:4) ~num_sites:4
          ~num_items:4 ()
      in
      let last_committed = Array.make 4 0 in
      let txn_counter = ref 0 in
      let down = Hashtbl.create 4 in
      let ok = ref true in
      List.iter
        (fun (action, site) ->
          match action mod 10 with
          | 0 | 1 ->
            if Hashtbl.mem down site then begin
              Protocol.recover_site t site;
              Hashtbl.remove down site
            end
            else if Hashtbl.length down < 1 then begin
              (* keep at most one site down: a write quorum must exist *)
              Protocol.fail_site t site;
              Hashtbl.add down site ()
            end
          | n ->
            let item = n mod 4 in
            incr txn_counter;
            let coordinator = if Hashtbl.mem down site then (site + 1) mod 4 else site in
            if not (Hashtbl.mem down coordinator) then begin
              let outcome =
                Protocol.submit t ~coordinator (txn !txn_counter [ Txn.Write item ])
              in
              if outcome.Protocol.committed then last_committed.(item) <- !txn_counter;
              (* Quorum-read every item from every up site. *)
              for reader = 0 to 3 do
                if not (Hashtbl.mem down reader) then
                  for probe = 0 to 3 do
                    let up = List.filter (fun s -> not (Hashtbl.mem down s)) [ 0; 1; 2; 3 ] in
                    match quorum_read t ~read_quorum:3 ~up ~reader probe with
                    | Some (_, version) -> if version <> last_committed.(probe) then ok := false
                    | None -> ok := false
                  done
              done
            end)
        ops;
      !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_quorum_reads_never_stale;
    Alcotest.test_case "strict ROWA commits when all up" `Quick test_rowa_commits_when_all_up;
    Alcotest.test_case "strict ROWA blocks writes on failure" `Quick
      test_rowa_blocks_writes_on_failure;
    Alcotest.test_case "strict ROWA trivial recovery" `Quick test_rowa_recovery_is_trivial;
    Alcotest.test_case "quorum commits with minority down" `Quick
      test_quorum_commits_with_minority_down;
    Alcotest.test_case "quorum aborts below quorum" `Quick test_quorum_aborts_below_quorum;
    Alcotest.test_case "quorum read sees newest" `Quick
      test_quorum_read_sees_newest_despite_stale_replica;
    Alcotest.test_case "quorum transactional read path" `Quick test_quorum_transactional_read_path;
    Alcotest.test_case "quorum validation" `Quick test_quorum_validation;
    Alcotest.test_case "majority helper" `Quick test_majority_helper;
    Alcotest.test_case "down coordinator rejected" `Quick test_coordinator_down_rejected;
    Alcotest.test_case "message counting" `Quick test_message_counting;
  ]
