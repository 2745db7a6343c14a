type entry = { txn : int; write : Database.write }

(* In application order, in chunks that double in size (16, 16, 32, 64,
   ...): appending stores an int and a pointer to the write the site
   already holds into the newest chunk, so it allocates nothing, and a
   full log gains a chunk as large as everything before it rather than
   copying itself into a larger array.  Growth thus leaves no garbage:
   each copied-out array used to survive minor collections, be promoted
   and die at the next doubling.  The log only ever grows. *)
type chunk = { txns : int array; writes : Database.write array }

type t = {
  mutable chunks : chunk list;  (* newest first; all but the newest are full *)
  mutable fill : int;  (* entries in the newest chunk *)
  mutable length : int;
}

let create () = { chunks = []; fill = 0; length = 0 }

let append t ~txn write =
  let c =
    match t.chunks with
    | c :: _ when t.fill < Array.length c.writes -> c
    | _ ->
      let size = max 16 t.length in
      let c = { txns = Array.make size 0; writes = Array.make size write } in
      t.chunks <- c :: t.chunks;
      t.fill <- 0;
      c
  in
  c.txns.(t.fill) <- txn;
  c.writes.(t.fill) <- write;
  t.fill <- t.fill + 1;
  t.length <- t.length + 1

let length t = t.length

(* The scans below run newest first: index [i] counts down through chunk
   [c], then through each older chunk from its last entry.  They are
   top-level functions, so a scan allocates no closure. *)

let rec entries_from c i older acc =
  if i >= 0 then entries_from c (i - 1) older ({ txn = c.txns.(i); write = c.writes.(i) } :: acc)
  else
    match older with
    | [] -> acc
    | c :: older -> entries_from c (Array.length c.writes - 1) older acc

let entries t = match t.chunks with [] -> [] | c :: older -> entries_from c (t.fill - 1) older []

let rec exists_from p c i older =
  if i >= 0 then p ~txn:c.txns.(i) c.writes.(i) || exists_from p c (i - 1) older
  else
    match older with
    | [] -> false
    | c :: older -> exists_from p c (Array.length c.writes - 1) older

let exists t p = match t.chunks with [] -> false | c :: older -> exists_from p c (t.fill - 1) older
