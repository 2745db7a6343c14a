(** Plain-text table rendering for experiment reports.

    The bench harness prints each paper table as an aligned text table so
    that paper-vs-measured comparisons read directly off the terminal. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers
    and alignments.  @raise Invalid_argument on an empty column list. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val render : t -> string
(** Full rendering, including title, header, separator and rows. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
