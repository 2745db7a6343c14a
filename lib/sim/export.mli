(** CSV export of experiment data.

    The terminal figures are previews; for a paper-grade plot the series
    behind every figure can be exported as CSV and fed to any plotting
    tool.  Used by the CLI's [--csv] options. *)

val series_csv : header:string * string -> (float * float) list -> string
(** ["x,y\n1,46\n..."] with the given column names.  Numbers are printed
    with enough precision to round-trip. *)

val multi_series_csv : x_name:string -> (string * (float * float) list) list -> string
(** Join several series on their x values (union of all x's, empty cells
    where a series has no point): ["txn,site 0,site 1\n..."]. *)

val records_csv : Runner.result -> string
(** One row per transaction: index, coordinator, committed, abort reason,
    copiers, elapsed ms, then one fail-lock-count column per site. *)

val write_file : path:string -> string -> unit
(** Write contents to [path] (creates/truncates). *)
