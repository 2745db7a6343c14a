module Session = Raid_core.Session

let test_initial () =
  let v = Session.create ~num_sites:3 in
  Alcotest.(check int) "num_sites" 3 (Session.num_sites v);
  for s = 0 to 2 do
    Alcotest.(check int) "session 1" 1 (Session.session v s);
    Alcotest.(check bool) "up" true (Session.is_up v s)
  done;
  Alcotest.(check (list int)) "all operational" [ 0; 1; 2 ] (Session.operational v)

let test_transitions () =
  let v = Session.create ~num_sites:3 in
  Session.mark_down v 1;
  Alcotest.(check bool) "down" false (Session.is_up v 1);
  Alcotest.(check int) "session kept" 1 (Session.session v 1);
  Alcotest.(check (list int)) "operational" [ 0; 2 ] (Session.operational v);
  Session.mark_waiting v 1 ~session:2;
  Alcotest.(check bool) "waiting not up" false (Session.is_up v 1);
  Alcotest.(check int) "new session" 2 (Session.session v 1);
  Session.mark_up v 1 ~session:2;
  Alcotest.(check bool) "up again" true (Session.is_up v 1)

let test_operational_except () =
  let v = Session.create ~num_sites:4 in
  Session.mark_down v 2;
  Alcotest.(check (list int)) "except self" [ 1; 3 ] (Session.operational_except v 0)

let test_install_and_copy () =
  let a = Session.create ~num_sites:2 in
  let b = Session.copy a in
  Session.mark_down b 0;
  Alcotest.(check bool) "copy independent" true (Session.is_up a 0);
  Session.install a ~from:b;
  Alcotest.(check bool) "installed" false (Session.is_up a 0);
  Alcotest.(check bool) "equal" true (Session.equal a b);
  let c = Session.create ~num_sites:3 in
  Alcotest.check_raises "size mismatch" (Invalid_argument "Session.install: size mismatch")
    (fun () -> Session.install a ~from:c)

let test_merge_failure () =
  let v = Session.create ~num_sites:4 in
  Session.merge_failure v [ 1; 3 ];
  Alcotest.(check (list int)) "survivors" [ 0; 2 ] (Session.operational v)

let test_bounds () =
  let v = Session.create ~num_sites:2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Session: site out of range") (fun () ->
      ignore (Session.session v 2))

let test_pp () =
  let v = Session.create ~num_sites:2 in
  Session.mark_down v 1;
  Alcotest.(check string) "render" "[0:1/up; 1:1/down]" (Format.asprintf "%a" Session.pp v)

(* The allocation-free iterators must visit exactly the sites the list
   forms return, in the same (increasing) order — the protocol's send
   order, hence trace byte-identity, depends on it. *)
let test_iterators_match_lists () =
  let v = Session.create ~num_sites:6 in
  Session.mark_down v 1;
  Session.mark_waiting v 4 ~session:2;
  let collect f =
    let acc = ref [] in
    f (fun s -> acc := s :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int))
    "iter_operational = operational" (Session.operational v)
    (collect (Session.iter_operational v));
  Alcotest.(check (list int))
    "iter_operational_except = operational_except"
    (Session.operational_except v 2)
    (collect (Session.iter_operational_except v ~self:2));
  Alcotest.(check int)
    "count_except (up self)"
    (List.length (Session.operational_except v 2))
    (Session.operational_count_except v ~self:2);
  Alcotest.(check int)
    "count_except (down self)"
    (List.length (Session.operational_except v 1))
    (Session.operational_count_except v ~self:1)

let test_up_count_cached () =
  let v = Session.create ~num_sites:4 in
  Alcotest.(check int) "initial" 4 (Session.up_count v);
  Session.mark_down v 0;
  Session.mark_down v 0;
  Alcotest.(check int) "down is idempotent" 3 (Session.up_count v);
  Session.mark_waiting v 1 ~session:2;
  Alcotest.(check int) "waiting leaves up" 2 (Session.up_count v);
  Session.mark_up v 1 ~session:2;
  Session.mark_up v 0 ~session:2;
  Alcotest.(check int) "recovered" 4 (Session.up_count v);
  Session.mark_terminating v 3;
  Alcotest.(check int) "terminating leaves up" 3 (Session.up_count v);
  let c = Session.copy v in
  Alcotest.(check int) "copy carries count" 3 (Session.up_count c);
  Session.install v ~from:(Session.create ~num_sites:4);
  Alcotest.(check int) "install recomputes" 4 (Session.up_count v)

let test_search_helpers () =
  let v = Session.create ~num_sites:5 in
  Session.mark_down v 0;
  Alcotest.(check (option int))
    "first is lowest up" (Some 1)
    (Session.first_operational v (fun _ -> true));
  Alcotest.(check (option int))
    "first none" None
    (Session.first_operational v (fun s -> s = 0))

(* The sparse representation stores only entries that differ from the
   default {session 1, Up}; [diverged] counts them.  The table must stay
   canonical: returning a site to the default state removes its entry,
   so copy/equal stay O(diverged) on mostly-healthy large vectors. *)
let test_sparse_canonical () =
  let v = Session.create ~num_sites:1024 in
  Alcotest.(check int) "fresh vector stores nothing" 0 (Session.diverged v);
  Session.mark_down v 17;
  Session.mark_waiting v 99 ~session:2;
  Alcotest.(check int) "two overrides" 2 (Session.diverged v);
  Session.mark_up v 17 ~session:1;
  Alcotest.(check int) "back to default drops the entry" 1 (Session.diverged v);
  Session.mark_up v 99 ~session:2;
  Alcotest.(check int) "non-default session stays" 1 (Session.diverged v);
  Alcotest.(check int) "up count full" 1024 (Session.up_count v);
  let c = Session.copy v in
  Alcotest.(check int) "copy carries overrides" 1 (Session.diverged c);
  Alcotest.(check bool) "copy equal" true (Session.equal v c);
  Session.install c ~from:(Session.create ~num_sites:1024);
  Alcotest.(check int) "install of default clears" 0 (Session.diverged c)

let suite =
  [
    Alcotest.test_case "initial vector" `Quick test_initial;
    Alcotest.test_case "sparse table stays canonical" `Quick test_sparse_canonical;
    Alcotest.test_case "state transitions" `Quick test_transitions;
    Alcotest.test_case "operational_except" `Quick test_operational_except;
    Alcotest.test_case "iterators match lists" `Quick test_iterators_match_lists;
    Alcotest.test_case "up_count cached" `Quick test_up_count_cached;
    Alcotest.test_case "search helpers" `Quick test_search_helpers;
    Alcotest.test_case "install and copy" `Quick test_install_and_copy;
    Alcotest.test_case "merge_failure" `Quick test_merge_failure;
    Alcotest.test_case "bounds checked" `Quick test_bounds;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]
