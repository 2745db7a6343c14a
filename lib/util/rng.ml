(* The 64-bit state lives in 8 bytes: a [mutable int64] field would box
   a fresh [Int64] on every draw.  [next] and [mix64] are inlined into
   each draw below, so the arithmetic stays unboxed and a draw allocates
   nothing (only [bits64] and [float] box the value they return). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let mix n =
  Int64.to_int (Int64.shift_right_logical (mix64 (Int64.of_int n)) 1)

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix64 state

let bits64 t = next t

let split t = of_state (next t)

(* Rejection sampling to avoid modulo bias: reject a raw draw that falls
   into the incomplete final block.  A top-level recursion, not a local
   closure, and [bound] travels as an [int], so nothing is boxed. *)
let rec below t bound =
  let bound64 = Int64.of_int bound in
  let raw = Int64.shift_right_logical (next t) 1 in
  let candidate = Int64.rem raw bound64 in
  if Int64.sub raw candidate > Int64.sub (Int64.sub Int64.max_int bound64) 1L then below t bound
  else Int64.to_int candidate

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let[@inline] float t =
  (* 53 random bits into the mantissa. *)
  let raw = Int64.shift_right_logical (next t) 11 in
  Int64.to_float raw *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

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
