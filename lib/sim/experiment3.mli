(** Experiment 3: consistency of replicated copies (paper §4,
    Figures 2 and 3).

    Scenario 1 (Figure 2): two sites alternate failures — site 0 down for
    transactions 1-25, site 1 down for 26-50, both up from 51.  During
    26-50 the recovering site 0 cannot reach any up-to-date copy of the
    items it missed, so transactions reading them abort (the paper saw 13
    such aborts).

    Scenario 2 (Figure 3): four sites fail singly in succession (site k
    down for transactions 25k+1 .. 25k+25), then all run from 101.  An
    up-to-date copy always exists, so no transaction aborts. *)

type t = {
  result : Runner.result;
  series : (int * (float * float) list) list;  (** per site: figure data *)
  aborted : int;
  paper_aborts : int;
}

val scenario1_scenario : ?seed:int -> unit -> Scenario.t
(** The declarative scenario behind {!scenario1} (same defaults). *)

val scenario2_scenario : ?seed:int -> unit -> Scenario.t
(** The declarative scenario behind {!scenario2} (same defaults). *)

val scenario1 : ?seed:int -> unit -> t
(** Figure 2.  70 transactions after both sites are back, as in the
    paper's 51-120. *)

val scenario2 : ?seed:int -> unit -> t
(** Figure 3.  60 transactions after all four sites are back (the paper's
    101-160). *)

val figure : title:string -> t -> Raid_util.Chart.t

val summary_table : title:string -> t -> Raid_util.Table.t
