module Bitset = Raid_util.Bitset

type state = Up | Down | Waiting_recover | Terminating

type entry = { session : int; state : state }

type hook = site:int -> session:int -> state:state -> unit

(* Sparse representation.  Every vector starts as "all sites up with
   session 1" — the initial consistent configuration — so that entry is
   the implicit default and only sites whose entry has {e diverged} from
   it are stored.  In a k-holder partial-replication run a site only ever
   learns about the members of the placement groups it touches plus the
   coordinators that witness failures, so the override table stays at the
   size of that set rather than the cluster: creating, copying and
   shipping a vector (control-1 recovery state) is O(diverged), not
   O(sites).  [non_up] mirrors the overrides whose state is not [Up] as a
   bitmap so the hot-path queries ([is_up], the operational iterators)
   never touch the hashtable; [up] caches the number of [Up] entries so
   participant selection never scans. *)
type t = {
  num_sites : int;
  overrides : (int, entry) Hashtbl.t;  (* canonical: present iff <> default *)
  non_up : Bitset.t;  (* sites whose current state is not [Up] *)
  mutable up : int;
  mutable hook : hook option;
}

let default_entry = { session = 1; state = Up }

let create ~num_sites =
  if num_sites <= 0 then invalid_arg "Session.create: num_sites must be positive";
  {
    num_sites;
    overrides = Hashtbl.create 4;
    non_up = Bitset.create num_sites;
    up = num_sites;
    hook = None;
  }

let set_hook t hook = t.hook <- hook

let num_sites t = t.num_sites

let check t site =
  if site < 0 || site >= t.num_sites then invalid_arg "Session: site out of range"

let get t site =
  check t site;
  match Hashtbl.find_opt t.overrides site with Some entry -> entry | None -> default_entry

let session t site = (get t site).session
let state t site = (get t site).state

let diverged t = Hashtbl.length t.overrides

(* Fire the observability hook only when the entry actually changes. *)
let notify t site (entry : entry) =
  match t.hook with
  | None -> ()
  | Some hook -> hook ~site ~session:entry.session ~state:entry.state

let set t site entry =
  let before = get t site in
  (* Keep the table canonical (an override exists iff the entry differs
     from the default), so storage — and therefore [copy]/[equal] — stays
     proportional to the diverged set. *)
  if entry = default_entry then Hashtbl.remove t.overrides site
  else Hashtbl.replace t.overrides site entry;
  (match (before.state, entry.state) with
  | Up, Up -> ()
  | Up, _ ->
    t.up <- t.up - 1;
    Bitset.set t.non_up site
  | _, Up ->
    t.up <- t.up + 1;
    Bitset.clear t.non_up site
  | _, _ -> ());
  if before <> entry then notify t site entry

let mark_down t site = set t site { (get t site) with state = Down }
let mark_waiting t site ~session = set t site { session; state = Waiting_recover }
let mark_terminating t site = set t site { (get t site) with state = Terminating }
let mark_up t site ~session = set t site { session; state = Up }

let is_up t site =
  check t site;
  not (Bitset.mem t.non_up site)

let up_count t = t.up
let non_up t = t.non_up

let operational t =
  let up = ref [] in
  for site = t.num_sites - 1 downto 0 do
    if not (Bitset.mem t.non_up site) then up := site :: !up
  done;
  !up

let operational_except t site = List.filter (fun s -> s <> site) (operational t)

(* Allocation-free traversal of the [Up] sites, in increasing id order —
   the same order [operational] returns, so send sequences (and therefore
   traces) are identical whichever form a caller uses.  With every site
   up (the common steady state) the bitmap test is skipped entirely. *)
let iter_operational t f =
  if t.up = t.num_sites then
    for site = 0 to t.num_sites - 1 do
      f site
    done
  else
    for site = 0 to t.num_sites - 1 do
      if not (Bitset.mem t.non_up site) then f site
    done

let iter_operational_except t ~self f =
  if t.up = t.num_sites then
    for site = 0 to t.num_sites - 1 do
      if site <> self then f site
    done
  else
    for site = 0 to t.num_sites - 1 do
      if site <> self && not (Bitset.mem t.non_up site) then f site
    done

let operational_count_except t ~self = t.up - (if is_up t self then 1 else 0)

exception Found

let first_operational t pred =
  let found = ref (-1) in
  (try
     iter_operational t (fun site ->
         if pred site then begin
           found := site;
           raise Found
         end)
   with Found -> ());
  if !found < 0 then None else Some !found

(* Copies are inert data (shipped inside [Recovery_state] messages); they
   never carry the source's hook.  O(diverged), not O(sites). *)
let copy t =
  {
    num_sites = t.num_sites;
    overrides = Hashtbl.copy t.overrides;
    non_up = Bitset.copy t.non_up;
    up = t.up;
    hook = None;
  }

let install t ~from =
  if t.num_sites <> from.num_sites then invalid_arg "Session.install: size mismatch";
  (* Per-site [set] keeps the change hook firing exactly as the dense
     representation did: once per entry that actually changes, in
     increasing site order. *)
  for site = 0 to t.num_sites - 1 do
    set t site (get from site)
  done

let merge_failure t failed = List.iter (mark_down t) failed

(* Both tables are canonical, so equality is equality of the override
   sets — O(diverged), not O(sites). *)
let equal a b =
  a.num_sites = b.num_sites
  && Hashtbl.length a.overrides = Hashtbl.length b.overrides
  && Hashtbl.fold
       (fun site (entry : entry) acc ->
         acc
         &&
         match Hashtbl.find_opt b.overrides site with
         | Some other -> entry.session = other.session && entry.state = other.state
         | None -> false)
       a.overrides true

let pp_state ppf = function
  | Up -> Format.pp_print_string ppf "up"
  | Down -> Format.pp_print_string ppf "down"
  | Waiting_recover -> Format.pp_print_string ppf "waiting"
  | Terminating -> Format.pp_print_string ppf "terminating"

let state_name state = Format.asprintf "%a" pp_state state

let pp ppf t =
  Format.fprintf ppf "@[<h>[";
  for site = 0 to t.num_sites - 1 do
    let { session; state } = get t site in
    if site > 0 then Format.fprintf ppf "; ";
    Format.fprintf ppf "%d:%d/%a" site session pp_state state
  done;
  Format.fprintf ppf "]@]"
