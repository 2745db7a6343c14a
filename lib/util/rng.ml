type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let mix n =
  Int64.to_int (Int64.shift_right_logical (mix64 (Int64.of_int n)) 1)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec loop () =
    let raw = Int64.shift_right_logical (bits64 t) 1 in
    let candidate = Int64.rem raw bound64 in
    (* Reject if raw falls into the incomplete final block. *)
    if Int64.compare (Int64.sub raw candidate) (Int64.sub (Int64.sub Int64.max_int bound64) 1L) > 0
    then loop ()
    else Int64.to_int candidate
  in
  loop ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits into the mantissa. *)
  let raw = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float raw *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t < p

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | items -> List.nth items (int t (List.length items))

let choose_weighted t alternatives =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 alternatives in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: weights must sum to a positive value";
  let target = float t *. total in
  let rec pick acc = function
    | [] -> invalid_arg "Rng.choose_weighted: empty list"
    | [ (x, _) ] -> x
    | (x, w) :: rest ->
      let acc = acc +. w in
      if target < acc then x else pick acc rest
  in
  pick 0.0 alternatives

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
