(** Message-timeline rendering for protocol traces.

    Create a cluster with
    [Cluster.of_spec (Cluster.Spec.make ~trace:true config)] and this
    module renders the engine's delivery trace as a readable sequence chart —
    the debugging view a mini-RAID operator would have had on the
    managing site's console.  Used by the docs, the examples and the
    golden-trace conformance tests. *)

val entries :
  Raid_core.Cluster.t -> Raid_core.Message.t Raid_net.Engine.trace_entry list
(** The cluster engine's chronological trace (empty unless the cluster
    was built from a spec with [~trace:true]). *)

val describe_entry : Raid_core.Message.t Raid_net.Engine.trace_entry -> string
(** One line: ["  18.00 ms  0 -> 1   prepare(1,2 writes)"]; failed
    deliveries are marked ["!!"]. *)

val render :
  ?since:Raid_net.Vtime.t ->
  ?limit:int ->
  Raid_core.Cluster.t ->
  string
(** Render the trace (optionally only entries at or after [since], and at
    most [limit] lines, default unlimited). *)
