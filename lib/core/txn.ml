type op = Read of int | Write of int

type t = { id : int; ops : op list }

let make ~id ops =
  if id < 0 then invalid_arg "Txn.make: negative id";
  if ops = [] then invalid_arg "Txn.make: empty operation list";
  { id; ops }

let size t = List.length t.ops

(* A list scan, not a hash table: a transaction is a few operations, so
   this allocates only the result.  Top-level recursions, so no closure
   is allocated either. *)
let rec mem (item : int) = function [] -> false | i :: items -> i = item || mem item items

(* The distinct items [ops] read (or write, with [writes]), in
   first-occurrence order; [seen] holds those found so far, latest
   first. *)
let rec distinct ~writes seen = function
  | [] -> List.rev seen
  | Read item :: ops when (not writes) && not (mem item seen) -> distinct ~writes (item :: seen) ops
  | Write item :: ops when writes && not (mem item seen) -> distinct ~writes (item :: seen) ops
  | (Read _ | Write _) :: ops -> distinct ~writes seen ops

let read_items t = distinct ~writes:false [] t.ops
let write_items t = distinct ~writes:true [] t.ops
