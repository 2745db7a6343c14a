(** Per-(site, failure-episode) recovery timelines assembled from the
    typed trace stream.

    The paper's subject is what happens between a site going down and
    its copies being consistent again.  This module turns the flat trace
    into that story: each crash of a site opens an {e incident}, the
    control-transaction-1 boundary markers ({!Trace.recovery_step})
    close its phases, and the global fail-lock ledger (set/clear hooks
    fire only on true bit transitions) decides when the last stale copy
    was refreshed — the {e caught-up} moment.

    {2 Phase model}

    Boundaries telescope: every incident is decomposed into five
    contiguous phases that tile [started, finished] {e exactly} — no
    gaps, no overlaps, phases whose marker never fired collapse to zero
    length at the previous boundary:

    - {e outage}: crash → recover command reaches the site;
    - {e replay}: → local WAL replay finished;
    - {e resolve}: → recovery announced (in-doubt probing sits here);
    - {e install}: → cluster state (vector, fail-lock knowledge)
      installed, the site is up;
    - {e drain}: → the outstanding fail-lock set for the site is empty
      (on-demand copier refreshes done).

    An episode interrupted by another crash of the same site, or still
    in flight when the stream ends, is reported with [complete = false]
    and a truncated (but still exactly tiling) phase list.

    Assembly is a pure fold over the entry stream, so timelines are
    byte-identical for any [-j] like every other export. *)

type phase = Outage | Replay | Resolve | Install | Drain

val all_phases : phase list
(** In timeline order. *)

val phase_name : phase -> string

type t = {
  site : int;
  episode : int;  (** nth observed failure of this site, from 0 *)
  started : Raid_net.Vtime.t;  (** the crash *)
  finished : Raid_net.Vtime.t;  (** caught up, or last observed boundary *)
  phases : (phase * Raid_net.Vtime.t * Raid_net.Vtime.t) list;
      (** (phase, from, until); contiguous, tiling [started, finished] *)
  complete : bool;  (** crash and caught-up moment both observed *)
  wal_entries : int;  (** entries replayed from the local WAL *)
  faillocks_accrued : int;  (** fail-lock set transitions during the episode *)
  faillocks_peak : int;  (** max simultaneously outstanding *)
  faillock_txns : int;  (** distinct causing transactions on accrual *)
}

val mttr : t -> Raid_net.Vtime.t option
(** Crash to caught-up; [None] unless {!field-complete}. *)

val phase_duration : t -> phase -> Raid_net.Vtime.t

(** {2 Streaming assembly} *)

type recorder
(** Incremental assembler: feed it a live run via {!recorder_sink}
    (combine with a ring collector through {!Trace.tee}). *)

val recorder : ?on_complete:(t -> unit) -> unit -> recorder
(** [on_complete] fires the moment an incident completes — the hook the
    [raid_recovery_phase_seconds] histograms hang off. *)

val recorder_sink : recorder -> Trace.sink

val incidents : recorder -> t list
(** Everything observed so far, ordered by start time: closed episodes
    plus truncated snapshots of in-flight ones.  Does not disturb the
    recorder. *)

val assemble : Trace.entry list -> t list
(** One-shot assembly over collected entries (a fresh {!recorder} fed
    the list). *)

(** {2 Rendering} *)

val csv_header : string

val csv_row : t -> string
(** One header-less CSV row (no trailing newline) — callers that prefix
    their own key columns (e.g. the crash matrix) compose it with
    {!csv_header}. *)

val to_csv : t list -> string
(** Long-form CSV, one row per incident, header included; durations in
    milliseconds with three decimals (virtual time is integer
    microseconds, so this is exact). *)

val json : t -> Json.t

val describe : t -> string
(** One human line: MTTR, phase breakdown, fail-lock and WAL counts. *)
