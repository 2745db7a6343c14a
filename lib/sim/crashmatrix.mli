(** Systematic crash-injection matrix over the 2PC / copier / fail-lock
    state machine.

    The engine processes each event atomically (a handler's WAL records
    and outgoing messages are one indivisible step), so the distinct
    places a site can crash are exactly the boundaries {e between}
    events.  This module enumerates those boundaries as named crash
    points — coordinator before/after its durable decide, participant
    before/after its durable vote, mid copier transaction, during a
    fail-lock clear broadcast, during a WAL checkpoint with a buffered
    prepare, mid two-step batch refresh — plus two schedule
    pseudo-points (a flapping site, correlated coordinator+participant
    death).  Each point is run for every (seed, cluster size, full vs
    k=3 partial placement) cell: the victim site is killed at the
    boundary via {!Raid_core.Cluster.crash_site_now}, its volatile state
    wiped, the cluster drained, every site recovered (WAL replay plus
    in-doubt resolution), and a battery of assertions checked — the
    prepared transaction resolves the same way everywhere, no in-doubt
    prepare survives, the DESIGN.md invariants hold, and the cluster
    converges.

    Every cell is a pure function of its coordinates, so the matrix fans
    out through {!Raid_par.Pool.map} and its CSV is byte-identical at
    any [-j]. *)

type point =
  | Coord_after_begin
  | Coord_before_decide
  | Coord_after_decide
  | Coord_mid_copy
  | Part_before_prepare
  | Part_after_prepare
  | Part_after_commit
  | Copier_source
  | During_clear
  | Mid_checkpoint
  | Recovering_mid_batch
  | Flapping
  | Correlated

val all_points : point list
(** In taxonomy order (the [--list] order). *)

val point_name : point -> string
(** Stable kebab-case name ("coord-after-decide", ...). *)

val point_description : point -> string

val point_of_name : string -> point option

type row = {
  r_point : string;
  r_seed : int;
  r_sites : int;
  r_partial : bool;
  r_crashes : int;  (** crash-trigger firings during the cell *)
  r_resolved : string;
      (** how the victim transaction ended: "committed", "aborted" or
          "ghost-commit" (coordinator died post-decide; the outcome was
          proved from a survivor's commit record / its durable
          decision record) *)
  r_in_doubt : int;  (** in-doubt prepares left anywhere after recovery *)
  r_knowledge_loss : int;
      (** DESIGN.md §11 knowledge-loss events the cell recorded *)
  r_violations : string list;  (** empty iff the cell passed *)
  r_incidents : Raid_obs.Incident.t list;
      (** recovery timelines recorded by the cell's incident recorder,
          ordered by start time *)
}

type summary = { rows : row list; cells : int; failed_cells : int }

val run :
  ?domains:int ->
  ?seeds:int list ->
  ?sizes:int list ->
  ?points:point list ->
  unit ->
  summary
(** Run the matrix: [points] × [seeds] (default 1-3) × [sizes] (default
    4 and 6) × {full, k=3 partial}.  Deterministic for any [domains].
    @raise Invalid_argument on an empty seed/size list or a size below
    3 (a 2PC crash cell needs a coordinator, a victim and a witness). *)

val ok : summary -> bool
(** No cell recorded a violation. *)

val to_csv : summary -> string
(** One line per cell, in matrix order; the [status] column is "ok" or
    the violation list.  Byte-identical across [-j] values. *)

val incidents_csv : summary -> string
(** One line per recovery incident across all cells, prefixed with the
    cell coordinates (point, seed, sites, placement) and laid out as
    {!Raid_obs.Incident.csv_header}.  Byte-identical across [-j]
    values. *)

val table : summary -> Raid_util.Table.t
