(** A growable in-memory time series: (virtual time, value) pairs in
    append order.

    A telemetry registry ({!Telemetry}) created with a sampling interval
    appends a point to each metric's series at every sampling instant;
    one created without leaves them empty.  Points are stored in two
    parallel unboxed arrays (int microseconds, float), so a sample costs
    two array writes and no allocation beyond amortised growth —
    sampling must not perturb the run it is observing. *)

type t

val create : unit -> t

val push : t -> at:Raid_net.Vtime.t -> float -> unit
(** Append one point.  Times are expected to be non-decreasing (the
    registry samples at increasing virtual times); this is not checked
    here. *)

val iter : t -> (at:Raid_net.Vtime.t -> float -> unit) -> unit
(** In append order. *)
