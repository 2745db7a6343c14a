type entry = { txn : int; write : Database.write }

(* In application order, in an array grown by doubling: a slot costs a
   word where a list cell costs three, and the log only ever grows. *)
type t = { mutable entries : entry array; mutable length : int }

let create () = { entries = [||]; length = 0 }

let append t entry =
  if t.length = Array.length t.entries then begin
    let grown = Array.make (max 16 (2 * t.length)) entry in
    Array.blit t.entries 0 grown 0 t.length;
    t.entries <- grown
  end;
  t.entries.(t.length) <- entry;
  t.length <- t.length + 1

let length t = t.length
let entries t = List.init t.length (Array.get t.entries)

(* Newest first, like [last_version_of]. *)
let exists t p =
  let rec from i = i >= 0 && (p t.entries.(i) || from (i - 1)) in
  from (t.length - 1)

let entries_for_item t item =
  List.filter (fun e -> e.write.Database.item = item) (entries t)

let last_version_of t item =
  let rec from i =
    if i < 0 then None
    else
      let { write; _ } = t.entries.(i) in
      if write.Database.item = item then Some write.Database.version else from (i - 1)
  in
  from (t.length - 1)
