(** Message timelines read from the typed trace.

    Build a cluster whose spec carries a message sink
    ([Cluster.Spec.make ~messages:(Raid_obs.Trace.sink ring) config])
    and this module renders the ring's {!Raid_obs.Trace.Message} entries
    as a readable sequence chart — the debugging view a mini-RAID
    operator would have had on the managing site's console.  Other
    entries in the ring are skipped.  Used by the console, the examples
    and the protocol-path goldens. *)

val lines : ?since:Raid_net.Vtime.t -> ?last:int -> Raid_obs.Trace.t -> string list
(** One line per collected message, oldest first, e.g.
    ["    18.00 ms      0 -> 1   prepare(1,1 writes,0 cleared)"]; the
    managing site is ["mgr"] and undeliverable arrivals are marked
    ["!!"].  Only arrivals at or after [since] are kept, and of those
    the last [last] (default all). *)
