module Prio = struct
  type 'a t = {
    mutable ats : int array;
    mutable seqs : int array;
    mutable payloads : 'a array;
    mutable size : int;
  }

  let create () = { ats = [||]; seqs = [||]; payloads = [||]; size = 0 }
  let is_empty t = t.size = 0
  let size t = t.size

  let min_at t =
    if t.size = 0 then invalid_arg "Heap.Prio.min_at: empty heap";
    t.ats.(0)

  (* Lexicographic (at, seq) order on unboxed int keys, between the
     entry being sifted and slot [j]: does the key [(at, seq)] come
     first, or does slot [j]'s? *)
  let key_first t ~at ~seq j =
    let aj = t.ats.(j) in
    at < aj || (at = aj && seq < t.seqs.(j))

  let slot_first t j ~at ~seq =
    let aj = t.ats.(j) in
    aj < at || (aj = at && t.seqs.(j) < seq)

  (* Both sifts carry the moving entry in locals and leave a hole where
     it would sit, moving one entry per level into the hole and writing
     the carried entry once at the end: one write per array per level
     where a swap costs two, and each [payloads] write is a
     [caml_modify].  The comparisons are those of a swap-based sift. *)
  let move t ~src ~dst =
    t.ats.(dst) <- t.ats.(src);
    t.seqs.(dst) <- t.seqs.(src);
    t.payloads.(dst) <- t.payloads.(src)

  let fill t i ~at ~seq x =
    t.ats.(i) <- at;
    t.seqs.(i) <- seq;
    t.payloads.(i) <- x

  let rec sift_up t i ~at ~seq x =
    let parent = (i - 1) / 2 in
    if i > 0 && key_first t ~at ~seq parent then begin
      move t ~src:parent ~dst:i;
      sift_up t parent ~at ~seq x
    end
    else fill t i ~at ~seq x

  let rec sift_down t i ~at ~seq x =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = if left < t.size && slot_first t left ~at ~seq then left else i in
    let smallest =
      if
        right < t.size
        &&
        if smallest = i then slot_first t right ~at ~seq
        else slot_first t right ~at:t.ats.(left) ~seq:t.seqs.(left)
      then right
      else smallest
    in
    if smallest <> i then begin
      move t ~src:smallest ~dst:i;
      sift_down t smallest ~at ~seq x
    end
    else fill t i ~at ~seq x

  let grow t x =
    let capacity = Array.length t.payloads in
    if t.size = capacity then begin
      let next = max 16 (capacity * 2) in
      let ats = Array.make next 0 and seqs = Array.make next 0 and payloads = Array.make next x in
      Array.blit t.ats 0 ats 0 t.size;
      Array.blit t.seqs 0 seqs 0 t.size;
      Array.blit t.payloads 0 payloads 0 t.size;
      t.ats <- ats;
      t.seqs <- seqs;
      t.payloads <- payloads
    end

  let push t ~at ~seq x =
    grow t x;
    let i = t.size in
    t.size <- i + 1;
    sift_up t i ~at ~seq x

  let pop_min t =
    if t.size = 0 then invalid_arg "Heap.Prio.pop_min: empty heap";
    let top = t.payloads.(0) in
    let n = t.size - 1 in
    t.size <- n;
    (* Sift the last entry down from the root.  Its old slot [n] keeps a
       pointer to it, a live entry, so the backing array does not retain
       the popped payload. *)
    if n > 0 then sift_down t 0 ~at:t.ats.(n) ~seq:t.seqs.(n) t.payloads.(n);
    top
end
