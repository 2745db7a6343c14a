type entry = { txn : int; write : Database.write }

(* In application order, in parallel arrays grown by doubling: appending
   stores an int and a pointer to the write the site already holds, so
   it allocates nothing, and the log only ever grows. *)
type t = { mutable txns : int array; mutable writes : Database.write array; mutable length : int }

let create () = { txns = [||]; writes = [||]; length = 0 }

let append t ~txn write =
  if t.length = Array.length t.writes then begin
    let capacity = max 16 (2 * t.length) in
    let txns = Array.make capacity 0 and writes = Array.make capacity write in
    Array.blit t.txns 0 txns 0 t.length;
    Array.blit t.writes 0 writes 0 t.length;
    t.txns <- txns;
    t.writes <- writes
  end;
  t.txns.(t.length) <- txn;
  t.writes.(t.length) <- write;
  t.length <- t.length + 1

let length t = t.length
let entries t = List.init t.length (fun i -> { txn = t.txns.(i); write = t.writes.(i) })

(* Newest first, like [last_version_of]. *)
let exists t p =
  let rec from i = i >= 0 && (p ~txn:t.txns.(i) t.writes.(i) || from (i - 1)) in
  from (t.length - 1)

let entries_for_item t item =
  List.filter (fun e -> e.write.Database.item = item) (entries t)

let last_version_of t item =
  let rec from i =
    if i < 0 then None
    else
      let write = t.writes.(i) in
      if write.Database.item = item then Some write.Database.version else from (i - 1)
  in
  from (t.length - 1)
