type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let require_nonempty = function
  | [] -> invalid_arg "Stats: empty sample list"
  | samples -> samples

let mean samples =
  let samples = require_nonempty samples in
  List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let stddev samples =
  let samples = require_nonempty samples in
  let n = List.length samples in
  if n < 2 then 0.0
  else
    let m = mean samples in
    let sum_sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 samples in
    sqrt (sum_sq /. float_of_int (n - 1))

(* Linear interpolation on rank p*(n-1) (the "exclusive" convention, as
   in numpy's default): p=0 is the minimum, p=1 the maximum, and small
   samples interpolate rather than snap to an extreme — p99 of 10
   samples sits just below the max instead of on it.  The index clamps
   guard the float arithmetic at the boundaries: rank can only land
   outside [0, n-1] through rounding, and without the clamp that would
   read out of bounds rather than degrade gracefully. *)
let percentile p samples =
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p outside [0,1]";
  let samples = require_nonempty samples in
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 1) (int_of_float (Float.floor rank))) in
    let hi = min (lo + 1) (n - 1) in
    let frac = Float.max 0.0 (Float.min 1.0 (rank -. float_of_int lo)) in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let summarize samples =
  let samples = require_nonempty samples in
  {
    count = List.length samples;
    mean = mean samples;
    stddev = stddev samples;
    min = List.fold_left Float.min Float.infinity samples;
    max = List.fold_left Float.max Float.neg_infinity samples;
    p50 = percentile 0.5 samples;
    p95 = percentile 0.95 samples;
    p99 = percentile 0.99 samples;
  }

let histogram samples =
  let bins = 10 in
  let samples = require_nonempty samples in
  let lo = List.fold_left Float.min Float.infinity samples in
  let hi = List.fold_left Float.max Float.neg_infinity samples in
  if lo = hi then [ (lo, hi, List.length samples) ]
  else begin
    let width = (hi -. lo) /. float_of_int bins in
    let counts = Array.make bins 0 in
    List.iter
      (fun x ->
        let b = min (bins - 1) (int_of_float ((x -. lo) /. width)) in
        counts.(b) <- counts.(b) + 1)
      samples;
    List.init bins (fun b ->
        (lo +. (float_of_int b *. width), lo +. (float_of_int (b + 1) *. width), counts.(b)))
  end

let pp_histogram ppf buckets =
  let peak = List.fold_left (fun acc (_, _, n) -> max acc n) 1 buckets in
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i (lo, hi, n) ->
      if i > 0 then Format.pp_print_cut ppf ();
      let bar = String.make (n * 40 / peak) '#' in
      Format.fprintf ppf "[%8.2f, %8.2f) %6d %s" lo hi n bar)
    buckets;
  Format.pp_close_box ppf ()

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f"
    s.count s.mean s.stddev s.min s.p50 s.p95 s.p99 s.max
