(* Message arrivals read from the typed trace, for tests that drive a
   cluster's engine one step at a time. *)

module Trace = Raid_obs.Trace
module Engine = Raid_net.Engine
module Cluster = Raid_core.Cluster

(* [ring] keeps every arrival; [latest] holds those of the engine's
   latest step, newest first. *)
type t = { ring : Trace.t; mutable latest : Trace.event list }

(* A cluster built from [config] whose message arrivals land in the
   returned record. *)
let cluster config =
  let t = { ring = Trace.create (); latest = [] } in
  let record = { Trace.emit = (fun ~at:_ ~site:_ event -> t.latest <- event :: t.latest) } in
  let messages = Trace.tee [ Trace.sink t.ring; record ] in
  (Cluster.of_spec (Cluster.Spec.make ~messages config), t)

(* Every arrival kept, oldest first. *)
let all t = List.map (fun (entry : Trace.entry) -> entry.event) (Trace.entries t.ring)

(* [payload] reached [dst] (from [src], when given), delivered or not as
   [delivered] says (default delivered). *)
let arrived ?src ?(delivered = true) ~dst payload =
  let label = Raid_core.Message.describe payload in
  function
  | Trace.Message m ->
    m.delivered = delivered && m.dst = dst && m.label = label
    && Option.fold ~none:true ~some:(( = ) m.src) src
  | _ -> false

(* Step [cluster]'s engine until [count] (default 1) arrivals that
   [pred] accepts have been seen since the call; each step's arrivals
   are read once. *)
let step_until ?(count = 1) t cluster pred =
  let engine = Cluster.engine cluster in
  let seen = ref 0 in
  while !seen < count do
    t.latest <- [];
    if not (Engine.step engine) then Alcotest.fail "quiescent before the awaited arrival";
    seen := !seen + List.length (List.filter pred t.latest)
  done
