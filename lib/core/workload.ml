module Rng = Raid_util.Rng

type spec =
  | Uniform of { max_ops : int; write_prob : float }
  | Zipfian of { max_ops : int; write_prob : float; theta : float }
  | Et1 of { branches : int; tellers_per_branch : int; accounts_per_branch : int }
  | Wisconsin of { scan_length : int; update_ops : int; scan_prob : float }

(* Precomputed state for the zipfian item draw (Gray et al.'s "Quickly
   generating billion-record synthetic databases" rejection-free method,
   as popularised by YCSB).  Computed once at [create]: the harmonic sum
   is O(num_items). *)
type zipf = { theta : float; alpha : float; zetan : float; eta : float; zeta2 : float }

let make_zipf ~num_items ~theta =
  let n = float_of_int num_items in
  let zetan = ref 0.0 in
  for i = 1 to num_items do
    zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  let zetan = !zetan in
  let zeta2 = 1.0 +. Float.pow 0.5 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta = (1.0 -. Float.pow (2.0 /. n) (1.0 -. theta)) /. (1.0 -. (zeta2 /. zetan)) in
  { theta; alpha; zetan; eta; zeta2 }

type t = { spec : spec; num_items : int; rng : Rng.t; zipf : zipf option }

(* Zipf-distributed rank in [0, num_items): rank 0 is the hottest item. *)
let zipf_draw t z =
  let u = Rng.float t.rng in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < z.zeta2 then 1
  else
    let rank =
      int_of_float (float_of_int t.num_items *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha)
    in
    min rank (t.num_items - 1)

let validate spec ~num_items =
  let check_prob name p =
    if p < 0.0 || p > 1.0 then invalid_arg (Printf.sprintf "Workload: %s outside [0,1]" name)
  in
  if num_items <= 0 then invalid_arg "Workload: num_items must be positive";
  match spec with
  | Uniform { max_ops; write_prob } ->
    if max_ops <= 0 then invalid_arg "Workload: max_ops must be positive";
    check_prob "write_prob" write_prob
  | Zipfian { max_ops; write_prob; theta } ->
    if max_ops <= 0 then invalid_arg "Workload: max_ops must be positive";
    check_prob "write_prob" write_prob;
    if theta <= 0.0 || theta >= 1.0 then
      invalid_arg "Workload: zipfian theta must be in (0,1)"
  | Et1 { branches; tellers_per_branch; accounts_per_branch } ->
    if branches <= 0 || tellers_per_branch <= 0 || accounts_per_branch <= 0 then
      invalid_arg "Workload: ET1 region sizes must be positive";
    let total = branches * (1 + tellers_per_branch + accounts_per_branch) in
    if total > num_items then
      invalid_arg
        (Printf.sprintf "Workload: ET1 needs %d items but only %d available" total num_items)
  | Wisconsin { scan_length; update_ops; scan_prob } ->
    if scan_length <= 0 || update_ops <= 0 then
      invalid_arg "Workload: Wisconsin sizes must be positive";
    if scan_length > num_items then invalid_arg "Workload: scan_length exceeds num_items";
    check_prob "scan_prob" scan_prob

let create spec ~num_items ~rng =
  validate spec ~num_items;
  let zipf =
    match spec with
    | Zipfian { theta; _ } -> Some (make_zipf ~num_items ~theta)
    | Uniform _ | Et1 _ | Wisconsin _ -> None
  in
  { spec; num_items; rng; zipf }

let next t ~id =
  let ops =
    match t.spec with
    | Uniform { max_ops; write_prob } ->
      let size = Rng.int_in t.rng 1 max_ops in
      List.init size (fun _ ->
          let item = Rng.int t.rng t.num_items in
          if Rng.bernoulli t.rng write_prob then Txn.Write item else Txn.Read item)
    | Zipfian { max_ops; write_prob; _ } ->
      (* Same op-mix contract as [Uniform] — one size draw, then one item
         draw and one read/write draw per op — only the item distribution
         differs. *)
      let z = Option.get t.zipf in
      let size = Rng.int_in t.rng 1 max_ops in
      List.init size (fun _ ->
          let item = zipf_draw t z in
          if Rng.bernoulli t.rng write_prob then Txn.Write item else Txn.Read item)
    | Et1 { branches; tellers_per_branch; accounts_per_branch } ->
      (* Item layout: [0, branches) branch records, then teller records,
         then account records. *)
      let branch = Rng.int t.rng branches in
      let teller = branches + (branch * tellers_per_branch) + Rng.int t.rng tellers_per_branch in
      let account =
        branches + (branches * tellers_per_branch) + (branch * accounts_per_branch)
        + Rng.int t.rng accounts_per_branch
      in
      [
        Txn.Read account; Txn.Write account;
        Txn.Read teller; Txn.Write teller;
        Txn.Read branch; Txn.Write branch;
      ]
    | Wisconsin { scan_length; update_ops; scan_prob } ->
      if Rng.bernoulli t.rng scan_prob then
        let start = Rng.int t.rng (t.num_items - scan_length + 1) in
        List.init scan_length (fun i -> Txn.Read (start + i))
      else
        List.concat_map
          (fun _ ->
            let item = Rng.int t.rng t.num_items in
            [ Txn.Read item; Txn.Write item ])
          (List.init update_ops Fun.id)
  in
  Txn.make ~id ops
