(** Database transactions.

    Matching the paper (§1.2): a transaction is a sequence of operations,
    each a read or a write of one data item; transactions are serially
    numbered from 1 for identification.  We also use the transaction
    number as the commit version its writes install, which is sound
    because processing is serial. *)

type op = Read of int | Write of int

type t = { id : int; ops : op list }

val make : id:int -> op list -> t
(** @raise Invalid_argument if [id < 0] or [ops] is empty. *)

val size : t -> int
(** Number of operations. *)

val read_items : t -> int list
(** Distinct items read, in first-occurrence order. *)

val write_items : t -> int list
(** Distinct items written, in first-occurrence order. *)
