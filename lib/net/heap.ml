module Prio = struct
  type t = {
    mutable ats : int array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable size : int;
  }

  let create () = { ats = [||]; seqs = [||]; slots = [||]; size = 0 }
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
     where a swap costs two.  Every array holds ints, so no write runs
     the GC's write barrier. *)
  let move t ~src ~dst =
    t.ats.(dst) <- t.ats.(src);
    t.seqs.(dst) <- t.seqs.(src);
    t.slots.(dst) <- t.slots.(src)

  let fill t i ~at ~seq slot =
    t.ats.(i) <- at;
    t.seqs.(i) <- seq;
    t.slots.(i) <- slot

  let rec sift_up t i ~at ~seq slot =
    let parent = (i - 1) / 2 in
    if i > 0 && key_first t ~at ~seq parent then begin
      move t ~src:parent ~dst:i;
      sift_up t parent ~at ~seq slot
    end
    else fill t i ~at ~seq slot

  let rec sift_down t i ~at ~seq slot =
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
      sift_down t smallest ~at ~seq slot
    end
    else fill t i ~at ~seq slot

  let grow t =
    let capacity = Array.length t.slots in
    if t.size = capacity then begin
      let next = max 16 (capacity * 2) in
      let extend a =
        let b = Array.make next 0 in
        Array.blit a 0 b 0 t.size;
        b
      in
      t.ats <- extend t.ats;
      t.seqs <- extend t.seqs;
      t.slots <- extend t.slots
    end

  let push t ~at ~seq slot =
    grow t;
    let i = t.size in
    t.size <- i + 1;
    sift_up t i ~at ~seq slot

  let pop_min t =
    if t.size = 0 then invalid_arg "Heap.Prio.pop_min: empty heap";
    let top = t.slots.(0) in
    let n = t.size - 1 in
    t.size <- n;
    (* Sift the last entry down from the root. *)
    if n > 0 then sift_down t 0 ~at:t.ats.(n) ~seq:t.seqs.(n) t.slots.(n);
    top
end
