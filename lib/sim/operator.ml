(* The managing site's rules: the checks every operator command passes
   before it acts, shared by [raid repl] ({!Console}) and [raid serve]'s
   HTTP actions ({!Soak}).  A refused command changes nothing, and
   nothing here raises: the library's own [Invalid_argument] checks in
   [Cluster] stay behind these as safety code.  Ids and items are
   1*DIGIT below the cluster's bound. *)

open Raid_core

type refusal =
  | Malformed of string  (** a token that is not 1*DIGIT: the console prints usage *)
  | No_such_site of string  (** digits, but not below [Cluster.num_sites] *)
  | No_such_item of string  (** digits, but not below the config's [num_items] *)
  | Already_down of int  (** fail or terminate of a down site *)
  | Already_up of int  (** recover of an operational site *)
  | Last_operational of int  (** fail or terminate of the only operational site *)
  | Not_operational of int  (** a coordinator that is down or waiting for a donor *)

let refusal_text = function
  | Malformed raw -> Printf.sprintf "bad id %S: ASCII digits only" raw
  | No_such_site raw -> Printf.sprintf "no such site %S" raw
  | No_such_item raw -> Printf.sprintf "no such item %S" raw
  | Already_down site -> Printf.sprintf "site %d is already down" site
  | Already_up site -> Printf.sprintf "site %d is already up" site
  | Last_operational site -> Printf.sprintf "site %d is the last operational site" site
  | Not_operational site -> Printf.sprintf "site %d is not operational" site

let ( let* ) = Result.bind

(* [int_of_string_opt] alone would also take "0x1", "0b10", "1_0" or
   "-0" and name a real site. *)
let number raw = if Raid_obs.Http.is_digits raw then int_of_string_opt raw else None
let count raw = Option.to_result ~none:(Malformed raw) (number raw)

(* A digit string past [bound], overflowing ones included, names nothing. *)
let id ~bound ~missing raw =
  match number raw with
  | Some i when i < bound -> Ok i
  | _ -> Error (if Raid_obs.Http.is_digits raw then missing raw else Malformed raw)

let site_id c = id ~bound:(Cluster.num_sites c) ~missing:(fun raw -> No_such_site raw)
let item_id c = id ~bound:(Cluster.config c).Config.num_items ~missing:(fun raw -> No_such_item raw)

let coordinator c raw =
  let* site = site_id c raw in
  if Cluster.is_operational c site then Ok site else Error (Not_operational site)

(* Stopping the last operational site would leave no coordinator and
   no recovery donor: nothing could run again. *)
let stop c raw ~action =
  let* site = site_id c raw in
  if not (Cluster.alive c site) then Error (Already_down site)
  else if Cluster.operational c = [ site ] then Error (Last_operational site)
  else Ok (action c site; site)

let fail = stop ~action:Cluster.fail_site
let terminate = stop ~action:Cluster.terminate_site

(* A blocked site (alive, waiting for a donor) is not operational:
   recovering it again retries control 1. *)
let recover c raw =
  let* site = site_id c raw in
  if Cluster.is_operational c site then Error (Already_up site)
  else Ok (site, Cluster.recover_site c site)

let op c token =
  let item = item_id c (String.sub token 1 (String.length token - 1)) in
  match token.[0] with
  | 'r' -> Result.map (fun item -> Txn.Read item) item
  | 'w' -> Result.map (fun item -> Txn.Write item) item
  | _ -> Error (Malformed token)

let txn c raw tokens =
  let* ops =
    List.fold_right (fun token ops -> let* op = op c token in Result.map (List.cons op) ops)
      tokens (Ok [])
  in
  let* coordinator = coordinator c raw in
  Ok (Cluster.submit c ~coordinator (Txn.make ~id:(Cluster.next_txn_id c) ops))
