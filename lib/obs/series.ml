module Vtime = Raid_net.Vtime

type t = {
  mutable times : int array;  (* Vtime.t is an int count of microseconds *)
  mutable values : float array;
  mutable len : int;
}

let create () = { times = [||]; values = [||]; len = 0 }

let grow t =
  let capacity = max 16 (2 * Array.length t.times) in
  let times = Array.make capacity 0 in
  let values = Array.make capacity 0.0 in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  t.times <- times;
  t.values <- values

let push t ~at value =
  if t.len = Array.length t.times then grow t;
  t.times.(t.len) <- at;
  t.values.(t.len) <- value;
  t.len <- t.len + 1

let iter t f =
  for i = 0 to t.len - 1 do
    f ~at:t.times.(i) t.values.(i)
  done
