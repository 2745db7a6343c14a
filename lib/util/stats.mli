(** Descriptive statistics over float samples.

    Used by the experiment harness to report the averages the paper
    tables quote ("the times presented here are the averages of the
    recorded times", §2.1) along with dispersion measures the paper
    omits. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation; 0 when count < 2 *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on the empty list. *)

val mean : float list -> float
(** @raise Invalid_argument on the empty list. *)

val stddev : float list -> float
(** Sample standard deviation; 0 when fewer than two samples.
    @raise Invalid_argument on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p samples] with [p] in [0,1], linear interpolation between
    closest ranks.  @raise Invalid_argument on the empty list or [p]
    outside [0,1]. *)

val histogram : float list -> (float * float * int) list
(** Ten equal-width buckets [(lo, hi, count)] spanning [min, max]; the
    last bucket is inclusive of the maximum.  A constant sample collapses
    to one bucket.
    @raise Invalid_argument on the empty list. *)

val pp_histogram : Format.formatter -> (float * float * int) list -> unit
(** One bucket per line with an ASCII bar scaled to the fullest bucket. *)

val pp_summary : Format.formatter -> summary -> unit
