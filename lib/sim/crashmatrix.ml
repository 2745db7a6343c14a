module Engine = Raid_net.Engine
module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Placement = Raid_core.Placement
module Site = Raid_core.Site
module Txn = Raid_core.Txn
module Message = Raid_core.Message
module Metrics = Raid_core.Metrics
module Invariant = Raid_core.Invariant
module Database = Raid_storage.Database
module Wal = Raid_storage.Wal
module Rng = Raid_util.Rng
module Table = Raid_util.Table

(* {2 Crash-point taxonomy}

   The engine processes events atomically (a handler's WAL writes and
   outgoing messages are one indivisible step), so the distinct points
   at which a site can die are the boundaries {e between} events.  Each
   point below names one such boundary, parameterised by the role the
   dying site plays in the in-flight protocol step.  [Flapping] and
   [Correlated] are schedule pseudo-points: repeated crash/recover of
   one site, and simultaneous death of a participant and its
   coordinator.  Everything else about a point is its row of
   [taxonomy] below. *)

type point =
  | Coord_after_begin
  | Coord_before_decide
  | Coord_after_decide
  | Coord_mid_copy
  | Part_before_prepare
  | Part_after_prepare
  | Part_after_commit
  | Copier_source
  | During_clear
  | Mid_checkpoint
  | Recovering_mid_batch
  | Flapping
  | Correlated

(* {2 Matrix rows} *)

type row = {
  r_point : string;
  r_seed : int;
  r_sites : int;
  r_partial : bool;
  r_crashes : int;  (** crash-trigger firings during the cell *)
  r_resolved : string;
      (** how the victim transaction ended: "committed", "aborted" or
          "ghost-commit" (coordinator died post-decide; outcome proved
          from survivor logs) *)
  r_in_doubt : int;  (** in-doubt prepares left anywhere after recovery *)
  r_knowledge_loss : int;  (** DESIGN.md §11 events recorded by the cell *)
  r_violations : string list;  (** empty iff the cell passed *)
  r_incidents : Raid_obs.Incident.t list;  (** recovery timelines the cell produced *)
}

type summary = { rows : row list; cells : int; failed_cells : int }

(* {2 Crash triggers}

   A trigger watches messages as sites process them and crashes its
   victim immediately {e after} the matching handler step completes —
   the step's outgoing messages are already in flight, exactly the
   at-a-boundary semantics the engine's atomicity gives us.  Triggers
   are installed by wrapping each site's handler; a wrapper on a dead
   site never runs (undeliverable arrivals invoke no handler). *)

type trigger = {
  tr_match : self:int -> Message.t -> bool;
  tr_victim : self:int -> int;
  mutable tr_remaining : int;  (* fires when the nth match completes *)
}

(* One matrix cell in progress.  [c] coordinates the victim transactions
   and holds item 0; [p] is a distinct holder of item 0 (the crashing
   participant).  [victims] collects the victim transactions, last
   injected first, for the post-recovery atomicity check. *)
type cell = {
  cluster : Cluster.t;
  config : Config.t;
  rng : Rng.t;
  sites : int list;
  c : int;
  p : int;
  mutable triggers : trigger list;
  mutable victims : Txn.t list;
  mutable violations : string list;
}

let viol cell fmt = Printf.ksprintf (fun s -> cell.violations <- s :: cell.violations) fmt
let stores cell site item = Config.stores cell.config ~site ~item
let crashes cell = List.length (List.filter (fun tr -> tr.tr_remaining = 0) cell.triggers)

let arm cell =
  let cluster = cell.cluster in
  List.iter
    (fun s ->
      let base = Site.handler (Cluster.site cluster s) in
      Engine.register (Cluster.engine cluster) s (fun ctx event ->
          base ctx event;
          match event with
          | Engine.Send_failed _ | Engine.Timer _ -> ()
          | Engine.Message { payload; _ } ->
            List.iter
              (fun tr ->
                if tr.tr_remaining > 0 && tr.tr_match ~self:s payload then begin
                  tr.tr_remaining <- tr.tr_remaining - 1;
                  if tr.tr_remaining = 0 then Cluster.crash_site_now cluster (tr.tr_victim ~self:s)
                end)
              cell.triggers))
    cell.sites

let add_trigger cell ?(count = 1) ~victim tr_match =
  cell.triggers <- { tr_match; tr_victim = victim; tr_remaining = count } :: cell.triggers

(* The shape nine points share: which site's handler must see [msg]
   about the victim [txn], whom the trigger crashes, and after how many
   matches — one, or every participant's vote on [txn]'s writes. *)
type watch = At_c | At_p | Not_at_c
type victim = C | P | Handler
type count = Once | Every_ack

let fire cell txn ~at ~kill ?(count = Once) msg =
  let { c; p; _ } = cell in
  let writes = Txn.write_items txn in
  let count =
    match count with
    | Once -> 1
    | Every_ack ->
      List.length
        (List.filter (fun s -> s <> c && List.exists (stores cell s) writes) cell.sites)
  in
  add_trigger cell ~count
    ~victim:(fun ~self -> match kill with C -> c | P -> p | Handler -> self)
    (fun ~self m ->
      (match at with At_c -> self = c | At_p -> self = p | Not_at_c -> self <> c)
      && msg ~c ~id:txn.Txn.id m)

let begin_of ~c:_ ~id = function Message.Begin_txn t -> t.Txn.id = id | _ -> false
let prepare_of ~c:_ ~id = function Message.Prepare { txn; _ } -> txn = id | _ -> false
let vote_of ~c:_ ~id = function Message.Prepare_ack { txn } -> txn = id | _ -> false
let commit_of ~c:_ ~id = function Message.Commit { txn } -> txn = id | _ -> false
let copy_request_of ~c:_ ~id = function Message.Copy_request { txn; _ } -> txn = id | _ -> false
let copy_reply_of ~c:_ ~id = function Message.Copy_reply { txn; _ } -> txn = id | _ -> false
let clear_for ~c ~id:_ = function Message.Faillocks_cleared { site; _ } -> site = c | _ -> false

(* {2 Cell steps}

   Items 0-3 are reserved for victim transactions; warmup and epilogue
   traffic stays on items 4+, so the post-recovery atomicity check on a
   victim's writes never races a later write to the same item. *)

let num_items = 12

let new_txn cell ops = Txn.make ~id:(Cluster.next_txn_id cell.cluster) ops
let submit cell coordinator ops =
  ignore (Cluster.submit cell.cluster ~coordinator (new_txn cell ops))

let submit_background cell coordinator =
  let item = 4 + Rng.int cell.rng (num_items - 4) in
  let item' = 4 + Rng.int cell.rng (num_items - 4) in
  submit cell coordinator [ Txn.Write item; Txn.Read item' ]

let submit_writes cell ~coordinator items =
  List.iter (fun item -> submit cell coordinator [ Txn.Write item ]) items

let notice_dead cell =
  let dead = List.filter (fun s -> not (Cluster.alive cell.cluster s)) cell.sites in
  (match (dead, List.find_opt (Cluster.alive cell.cluster) cell.sites) with
  | [], _ | _, None -> ()
  | _ :: _, Some witness ->
    Engine.inject (Cluster.engine cell.cluster) ~dst:witness (Message.Failure_noticed dead));
  Cluster.run_to_quiescence cell.cluster

let recover_all cell =
  let dead =
    Array.of_list (List.filter (fun s -> not (Cluster.alive cell.cluster s)) cell.sites)
  in
  Rng.shuffle cell.rng dead;
  Array.iter
    (fun s ->
      match Cluster.recover_site cell.cluster s with
      | `Recovered -> ()
      | `Blocked -> viol cell "site %d blocked on recovery" s)
    dead;
  Cluster.run_to_quiescence cell.cluster

(* Inject [txns] at [c] together, drain, and tell a survivor who died.
   The first of [txns] is recorded last, so the [resolved] column, which
   reports the last victim recorded, names it. *)
let inject_victims cell txns =
  cell.victims <- txns @ cell.victims;
  List.iter (Cluster.inject_txn cell.cluster ~coordinator:cell.c) txns;
  Cluster.run_to_quiescence cell.cluster;
  notice_dead cell

(* The schedule of a shaped point: one victim transaction of [ops],
   watched by one trigger. *)
let shaped ~at ~kill ?count msg ops cell =
  let txn = new_txn cell ops in
  fire cell txn ~at ~kill ?count msg;
  inject_victims cell [ txn ]

(* What a cell does before its triggers are armed, beyond warmup.
   [Stale_coordinator]: the copier points need the coordinator to hold
   a fail-locked copy, so crash it, advance item 0 behind its back, and
   bring it back under [On_demand] recovery so the lock survives until a
   transaction reads it.  [Stale_participant]: [p] is down while items
   0-2 advance, so its recovery starts a two-step batch refresh. *)
type setup = No_setup | Stale_coordinator | Stale_participant

let set_up cell = function
  | No_setup -> ()
  | Stale_coordinator -> (
    Cluster.fail_site cell.cluster cell.c;
    submit_writes cell ~coordinator:cell.p [ 0; 0 ];
    match Cluster.recover_site cell.cluster cell.c with
    | `Recovered -> ()
    | `Blocked -> viol cell "setup: coordinator blocked on recovery")
  | Stale_participant ->
    Cluster.fail_site cell.cluster cell.p;
    submit_writes cell ~coordinator:cell.c [ 0; 1; 2 ]

(* {2 The taxonomy}

   One row per crash point, in [--list] order: adding a point takes one
   constructor and one row. *)

type point_row = {
  point : point;
  name : string;
  description : string;
  setup : setup;
  checkpoint_interval : int;  (** WAL records between checkpoints *)
  schedule : cell -> unit;
}

let row ?(setup = No_setup) ?(checkpoint_interval = 8) point name description schedule =
  { point; name; description; setup; checkpoint_interval; schedule }

let w01 = [ Txn.Write 0; Txn.Write 1 ]
let w23 = [ Txn.Write 2; Txn.Write 3 ]
let r0w1 = [ Txn.Read 0; Txn.Write 1 ]

let taxonomy =
  [
    row Coord_after_begin "coord-after-begin"
      "coordinator dies with its Prepares in flight, before any vote returns"
      (shaped ~at:At_c ~kill:C begin_of w01);
    row Coord_before_decide "coord-before-decide"
      "coordinator dies after the first vote, before the commit decision"
      (shaped ~at:At_c ~kill:C vote_of w01);
    row Coord_after_decide "coord-after-decide"
      "coordinator dies after durably deciding commit, Commits in flight"
      (shaped ~at:At_c ~kill:C ~count:Every_ack vote_of w01);
    row Coord_mid_copy "coord-mid-copy" ~setup:Stale_coordinator
      "coordinator dies mid copier transaction, after a Copy_reply"
      (shaped ~at:At_c ~kill:C copy_reply_of r0w1);
    row Part_before_prepare "part-before-prepare"
      "participant dies before its Prepare arrives (bounced vote)"
      (shaped ~at:At_c ~kill:P begin_of w01);
    row Part_after_prepare "part-after-prepare"
      "participant dies after voting yes: the canonical in-doubt crash"
      (shaped ~at:At_p ~kill:P prepare_of w01);
    row Part_after_commit "part-after-commit"
      "participant dies after applying Commit, its ack in flight"
      (shaped ~at:At_p ~kill:P commit_of w01);
    row Copier_source "copier-source" ~setup:Stale_coordinator
      "copier source dies right after serving a Copy_request"
      (shaped ~at:Not_at_c ~kill:Handler copy_request_of r0w1);
    row During_clear "during-clear" ~setup:Stale_coordinator
      "a site dies right after applying a fail-lock clear broadcast"
      (shaped ~at:Not_at_c ~kill:Handler clear_for r0w1);
    (* Two overlapping disjoint-write transactions at one coordinator:
       the participant's checkpoint after applying A's Commit runs while
       B's durable prepare is still buffered.  The crash right after
       that checkpoint must not lose B's in-doubt record. *)
    row Mid_checkpoint "mid-checkpoint" ~checkpoint_interval:2
      "participant dies after a Commit whose WAL checkpoint ran with another prepare buffered"
      (fun cell ->
        let a = new_txn cell w01 in
        let b = new_txn cell w23 in
        fire cell a ~at:At_p ~kill:P commit_of;
        inject_victims cell [ a; b ]);
    row Recovering_mid_batch "recovering-mid-batch" ~setup:Stale_participant
      "recovering site dies again mid two-step batch refresh"
      (fun cell ->
        add_trigger cell
          ~victim:(fun ~self:_ -> cell.p)
          (fun ~self -> function Message.Copy_reply _ -> self = cell.p | _ -> false);
        (match Cluster.recover_site cell.cluster cell.p with `Recovered | `Blocked -> ());
        Cluster.run_to_quiescence cell.cluster;
        notice_dead cell);
    (* Two rounds on disjoint item pairs, crashing [p] at a different
       protocol point each time and recovering it in between. *)
    row Flapping "flapping"
      "one site crashes and recovers repeatedly at shifting protocol points"
      (fun cell ->
        shaped ~at:At_p ~kill:P prepare_of w01 cell;
        recover_all cell;
        shaped ~at:At_p ~kill:P commit_of w23 cell;
        recover_all cell);
    row Correlated "correlated"
      "participant and coordinator die together around the decide point"
      (fun cell ->
        let txn = new_txn cell w01 in
        fire cell txn ~at:At_p ~kill:P prepare_of;
        fire cell txn ~at:At_c ~kill:C ~count:Every_ack vote_of;
        inject_victims cell [ txn ]);
  ]

let all_points = List.map (fun r -> r.point) taxonomy
let row_of point = List.find (fun r -> r.point = point) taxonomy
let point_name point = (row_of point).name
let point_description point = (row_of point).description

let point_of_name name =
  Option.map (fun r -> r.point) (List.find_opt (fun r -> r.name = name) taxonomy)

(* {2 One matrix cell} *)

(* Ghost commits: a victim transaction with no recorded outcome whose
   decision provably was commit (a survivor applied it, or the
   coordinator's durable decision record exists) is recorded for the
   oracle before anything else runs. *)
let classify cell outcomes txn =
  let id = txn.Txn.id in
  match Hashtbl.find_opt outcomes id with
  | Some o -> if o.Metrics.committed then "committed" else "aborted"
  | None ->
    (* Only an applied commit counts: a copier install on behalf of [id]
       carries the source copy's older version and records nothing (the
       bug this matrix first caught in the site-level probe scan). *)
    let commit_evidence =
      List.exists (fun s -> Site.applied_commit (Cluster.site cell.cluster s) ~txn:id) cell.sites
      ||
      match Site.wal (Cluster.site cell.cluster cell.c) with
      | Some wal -> Wal.decided_commit wal ~txn:id
      | None -> false
    in
    if commit_evidence then begin
      Cluster.note_ghost_commit cell.cluster txn;
      "ghost-commit"
    end
    else "aborted"

(* Atomicity: each victim transaction is either applied at every alive
   storing site (or the site's staleness is fail-locked in the union
   view) or applied nowhere. *)
let check_atomic cell (txn, verdict) =
  let id = txn.Txn.id in
  let committed = verdict <> "aborted" in
  List.iter
    (fun item ->
      List.iter
        (fun s ->
          if stores cell s item then begin
            let v =
              match Database.version (Site.database (Cluster.site cell.cluster s)) item with
              | Some v -> v
              | None -> 0
            in
            let locked = List.mem item (Cluster.faillocks_for cell.cluster s) in
            if committed && v <> id && not locked then
              viol cell "txn %d committed but site %d has item %d at v%d, unlocked" id s item v;
            if (not committed) && v = id then
              viol cell "txn %d aborted but site %d applied item %d" id s item
          end)
        cell.sites)
    (Txn.write_items txn)

(* Converge: under [On_demand] the recovered sites keep their locks
   until a transaction reads through them, so read the locked items
   from each lagging site until the union view drains. *)
let rec converge cell budget =
  if budget > 0 && Cluster.total_faillocks cell.cluster > 0 then begin
    List.iter
      (fun s ->
        match Cluster.faillocks_for cell.cluster s with
        | [] -> ()
        | locked -> submit cell s (List.map (fun i -> Txn.Read i) locked))
      cell.sites;
    converge cell (budget - 1)
  end

let check_converged cell =
  let cluster = cell.cluster in
  if not (Cluster.fully_consistent cluster) then begin
    let disagreements = ref [] in
    for item = num_items - 1 downto 0 do
      let copies =
        List.filter_map
          (fun s ->
            match Database.read (Site.database (Cluster.site cluster s)) item with
            | Some (value, version) -> Some (s, value, version)
            | None -> None)
          cell.sites
      in
      match copies with
      | [] -> ()
      | (_, value, version) :: rest ->
        if List.exists (fun (_, v, ver) -> v <> value || ver <> version) rest then
          disagreements :=
            Printf.sprintf "item %d: %s" item
              (String.concat " "
                 (List.map (fun (s, v, ver) -> Printf.sprintf "s%d=v%d@%d" s ver v) copies))
            :: !disagreements
    done;
    viol cell "cluster did not converge (%d fail-locks left%s)"
      (Cluster.total_faillocks cluster)
      (match !disagreements with [] -> "" | d -> "; " ^ String.concat ", " d)
  end

let run_cell ~point ~seed ~sites:n ~partial =
  let spec = row_of point in
  let rng = Rng.create (Rng.mix ((seed * 8191) + (n * 131) + if partial then 1 else 0)) in
  let config =
    Config.make ~cost:Cost_model.free
      ~durability:(Config.Durable_wal { checkpoint_interval = spec.checkpoint_interval })
      ~recovery:
        (if spec.setup = Stale_coordinator then Config.On_demand
         else Config.Two_step { threshold = 1.0; batch_size = 4 })
      ~replication:
        (if partial then Config.Partial (Placement.spec ~factor:3 ()) else Config.Full)
      ~num_sites:n ~num_items ()
  in
  (* Every cell records its recovery timelines: crashes and recoveries
     are the matrix's whole subject, so the incident stream doubles as a
     cross-check that each cell's cluster really went down and came
     back. *)
  let recorder = Raid_obs.Incident.recorder () in
  let cluster =
    Cluster.of_spec (Cluster.Spec.make ~obs:(Raid_obs.Incident.recorder_sink recorder) config)
  in
  (* Outcomes by transaction id: the victims are classified from these. *)
  let outcomes = Hashtbl.create 16 in
  Cluster.set_outcome_hook cluster
    (Some (fun o -> Hashtbl.replace outcomes o.Metrics.txn.Txn.id o));
  let sites = List.init n Fun.id in
  let holders = List.filter (fun s -> Config.stores config ~site:s ~item:0) sites in
  let c = match holders with h :: _ -> h | [] -> 0 in
  let p = match List.filter (fun s -> s <> c) holders with s :: _ -> s | [] -> (c + 1) mod n in
  let cell =
    { cluster; config; rng; sites; c; p; triggers = []; victims = []; violations = [] }
  in
  (* Warmup: establish versions and commit history on every site. *)
  List.iter (fun i -> submit_background cell (i mod n)) [ 1; 2; 3; 4 ];
  set_up cell spec.setup;
  arm cell;
  spec.schedule cell;
  if crashes cell = 0 then viol cell "no crash trigger fired: the point was not exercised";
  let classified = List.map (fun v -> (v, classify cell outcomes v)) (List.rev cell.victims) in
  let resolved = match classified with [] -> "none" | l -> snd (List.nth l (List.length l - 1)) in
  recover_all cell;
  (* Assertion battery, on the fully recovered, quiescent cluster. *)
  let in_doubt_left =
    List.fold_left (fun acc s -> acc + Site.in_doubt (Cluster.site cluster s)) 0 sites
  in
  if in_doubt_left > 0 then viol cell "%d in-doubt prepares survived recovery" in_doubt_left;
  List.iter
    (fun s ->
      let site = Cluster.site cluster s in
      if Site.buffered_prepares site > 0 then
        viol cell "site %d still buffers %d prepares" s (Site.buffered_prepares site);
      if Site.pending_2pc site > 0 then
        viol cell "site %d still awaits %d 2PC acks" s (Site.pending_2pc site))
    sites;
  List.iter (check_atomic cell) classified;
  converge cell 4;
  List.iter (fun i -> submit_background cell (i mod n)) [ 1; 2 ];
  (match Invariant.all cluster with
  | Ok () -> ()
  | Error message -> viol cell "invariant: %s" message);
  check_converged cell;
  {
    r_point = spec.name;
    r_seed = seed;
    r_sites = n;
    r_partial = partial;
    r_crashes = crashes cell;
    r_resolved = resolved;
    r_in_doubt = in_doubt_left;
    r_knowledge_loss = Cluster.knowledge_loss_events cluster;
    r_violations = List.rev cell.violations;
    r_incidents = Raid_obs.Incident.incidents recorder;
  }

(* {2 The matrix} *)

let run ?domains ?(seeds = [ 1; 2; 3 ]) ?(sizes = [ 4; 6 ]) ?(points = all_points) () =
  if seeds = [] then invalid_arg "Crashmatrix.run: empty seed list";
  if sizes = [] then invalid_arg "Crashmatrix.run: empty size list";
  List.iter
    (fun n -> if n < 3 then invalid_arg "Crashmatrix.run: cluster sizes below 3 cannot host a 2PC crash cell")
    sizes;
  let cells =
    List.concat_map
      (fun point ->
        List.concat_map
          (fun seed ->
            List.concat_map
              (fun sites -> [ (point, seed, sites, false); (point, seed, sites, true) ])
              sizes)
          seeds)
      points
  in
  let rows =
    Raid_par.Pool.map ?domains
      (fun (point, seed, sites, partial) -> run_cell ~point ~seed ~sites ~partial)
      cells
  in
  let failed_cells = List.length (List.filter (fun r -> r.r_violations <> []) rows) in
  { rows; cells = List.length rows; failed_cells }

let ok summary = summary.failed_cells = 0
let placement r = if r.r_partial then "partial-k3" else "full"
let status r = match r.r_violations with [] -> "ok" | v -> String.concat "; " v

let to_csv summary =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "point,seed,sites,placement,crashes,resolved,in_doubt,knowledge_loss,violations\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%s,%d,%s,%d,%d,%s\n" r.r_point r.r_seed r.r_sites
           (placement r) r.r_crashes r.r_resolved r.r_in_doubt r.r_knowledge_loss (status r)))
    summary.rows;
  Buffer.contents buf

(* One row per recovery incident across all cells, keyed by the cell's
   coordinates — the long-form companion to {!to_csv} for studying MTTR
   phase decomposition over the whole matrix. *)
let incidents_csv summary =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("point,seed,sites,placement," ^ Raid_obs.Incident.csv_header ^ "\n");
  List.iter
    (fun r ->
      List.iter
        (fun incident ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%d,%s,%s\n" r.r_point r.r_seed r.r_sites (placement r)
               (Raid_obs.Incident.csv_row incident)))
        r.r_incidents)
    summary.rows;
  Buffer.contents buf

let table summary =
  let t =
    Table.create ~title:"Crash-recovery matrix"
      [
        ("point", Table.Left);
        ("seed", Table.Right);
        ("sites", Table.Right);
        ("placement", Table.Left);
        ("crashes", Table.Right);
        ("resolved", Table.Left);
        ("in-doubt", Table.Right);
        ("kn-loss", Table.Right);
        ("status", Table.Left);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.r_point;
          string_of_int r.r_seed;
          string_of_int r.r_sites;
          placement r;
          string_of_int r.r_crashes;
          r.r_resolved;
          string_of_int r.r_in_doubt;
          string_of_int r.r_knowledge_loss;
          status r;
        ])
    summary.rows;
  t
