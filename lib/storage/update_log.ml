(* In application order, in chunks that double in size (16, 16, 32, 64,
   ...): appending stores three ints into the newest chunk, so it
   allocates nothing and stores no pointer, and a full log gains a chunk
   as large as everything before it rather than copying itself into a
   larger array.  Growth thus leaves no garbage: each copied-out array
   used to survive minor collections, be promoted and die at the next
   doubling.  The log only ever grows.

   The chunks hold no pointer: a pointer from a chunk (soon in the major
   heap) to a write record still in the minor heap would cost a
   remembered-set entry on every append, and keep the record and its
   transaction's write list alive until promoted with the log. *)
type chunk = { txns : int array; items : int array; versions : int array }

type t = {
  mutable chunks : chunk list;  (* newest first; all but the newest are full *)
  mutable fill : int;  (* entries in the newest chunk *)
  mutable length : int;
}

let create () = { chunks = []; fill = 0; length = 0 }

let append t ~txn { Database.item; version; _ } =
  let c =
    match t.chunks with
    | c :: _ when t.fill < Array.length c.txns -> c
    | _ ->
      let size = max 16 t.length in
      let c =
        { txns = Array.make size 0; items = Array.make size 0; versions = Array.make size 0 }
      in
      t.chunks <- c :: t.chunks;
      t.fill <- 0;
      c
  in
  c.txns.(t.fill) <- txn;
  c.items.(t.fill) <- item;
  c.versions.(t.fill) <- version;
  t.fill <- t.fill + 1;
  t.length <- t.length + 1

(* The scans below run newest first: index [i] counts down through chunk
   [c], then through each older chunk from its last entry.  They are
   top-level functions, so a scan allocates no closure. *)

let rec exists_from p c i older =
  if i >= 0 then
    p ~txn:c.txns.(i) ~item:c.items.(i) ~version:c.versions.(i) || exists_from p c (i - 1) older
  else
    match older with
    | [] -> false
    | c :: older -> exists_from p c (Array.length c.txns - 1) older

let exists t p = match t.chunks with [] -> false | c :: older -> exists_from p c (t.fill - 1) older
