(* A message-level view of the protocol: the exact Appendix-A exchanges
   for a plain commit, and the copier + special-transaction dance at a
   recovering site.

   Run with: dune exec examples/protocol_trace.exe *)

module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Txn = Raid_core.Txn
module Timeline = Raid_sim.Timeline
module Vtime = Raid_net.Vtime

let () =
  let cluster =
    Cluster.of_spec (Cluster.Spec.make ~trace:true (Config.make ~num_sites:3 ~num_items:10 ()))
  in

  print_endline "--- a plain transaction (two-phase commit, Appendix A) ---";
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Read 1; Txn.Write 4 ]));
  print_endline (Timeline.render cluster);

  print_endline "\n--- failure, recovery, and a copier transaction ---";
  let mark = Raid_net.Engine.now (Cluster.engine cluster) in
  Cluster.fail_site cluster 2;
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:0 (Txn.make ~id [ Txn.Write 4 ]));
  ignore (Cluster.recover_site cluster 2);
  let id = Cluster.next_txn_id cluster in
  ignore (Cluster.submit cluster ~coordinator:2 (Txn.make ~id [ Txn.Read 4 ]));
  print_endline (Timeline.render ~since:(Vtime.add mark 1) cluster);

  print_endline "\n(legend: mgr = the managing site; !! = undeliverable, the";
  print_endline " sender gets a timeout notification and runs control type 2)"
