(* Host-time ledger: every nanosecond of a timed region is charged to
   exactly one layer.  The benchmark switches the current layer at each
   boundary it can see from outside the program (a call into [Cluster],
   a wrapped [Site] handler, a [Soak.tick]); one clock read closes the
   previous interval and opens the next, so the layer totals sum to the
   region's wall time by construction and a missed boundary shows up as
   time charged to the wrong layer, never as a gap. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  ns : int array;  (** time charged per layer *)
  calls : int array;  (** entries per layer *)
  mutable cur : int;
  mutable last : int;
}

let create layers =
  { ns = Array.make layers 0; calls = Array.make layers 0; cur = 0; last = 0 }

let start t layer =
  Array.fill t.ns 0 (Array.length t.ns) 0;
  Array.fill t.calls 0 (Array.length t.calls) 0;
  t.cur <- layer;
  t.last <- now_ns ()

let switch t layer =
  let now = now_ns () in
  t.ns.(t.cur) <- t.ns.(t.cur) + (now - t.last);
  t.last <- now;
  t.cur <- layer

(* [enter]/[leave] bracket a call; the caller keeps the returned layer
   and hands it back, so nesting (driver -> engine -> site handler)
   needs no stack. *)
let enter t layer =
  let prev = t.cur in
  switch t layer;
  t.calls.(layer) <- t.calls.(layer) + 1;
  prev

let leave t prev = switch t prev

let stop t = switch t t.cur

let total t = Array.fold_left ( + ) 0 t.ns
