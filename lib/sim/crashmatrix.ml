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
   coordinator. *)

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

let all_points =
  [
    Coord_after_begin;
    Coord_before_decide;
    Coord_after_decide;
    Coord_mid_copy;
    Part_before_prepare;
    Part_after_prepare;
    Part_after_commit;
    Copier_source;
    During_clear;
    Mid_checkpoint;
    Recovering_mid_batch;
    Flapping;
    Correlated;
  ]

let point_name = function
  | Coord_after_begin -> "coord-after-begin"
  | Coord_before_decide -> "coord-before-decide"
  | Coord_after_decide -> "coord-after-decide"
  | Coord_mid_copy -> "coord-mid-copy"
  | Part_before_prepare -> "part-before-prepare"
  | Part_after_prepare -> "part-after-prepare"
  | Part_after_commit -> "part-after-commit"
  | Copier_source -> "copier-source"
  | During_clear -> "during-clear"
  | Mid_checkpoint -> "mid-checkpoint"
  | Recovering_mid_batch -> "recovering-mid-batch"
  | Flapping -> "flapping"
  | Correlated -> "correlated"

let point_description = function
  | Coord_after_begin -> "coordinator dies with its Prepares in flight, before any vote returns"
  | Coord_before_decide -> "coordinator dies after the first vote, before the commit decision"
  | Coord_after_decide -> "coordinator dies after durably deciding commit, Commits in flight"
  | Coord_mid_copy -> "coordinator dies mid copier transaction, after a Copy_reply"
  | Part_before_prepare -> "participant dies before its Prepare arrives (bounced vote)"
  | Part_after_prepare -> "participant dies after voting yes: the canonical in-doubt crash"
  | Part_after_commit -> "participant dies after applying Commit, its ack in flight"
  | Copier_source -> "copier source dies right after serving a Copy_request"
  | During_clear -> "a site dies right after applying a fail-lock clear broadcast"
  | Mid_checkpoint -> "participant dies after a Commit whose WAL checkpoint ran with another prepare buffered"
  | Recovering_mid_batch -> "recovering site dies again mid two-step batch refresh"
  | Flapping -> "one site crashes and recovers repeatedly at shifting protocol points"
  | Correlated -> "participant and coordinator die together around the decide point"

let point_of_name name =
  List.find_opt (fun p -> point_name p = name) all_points

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

   A trigger watches events as sites process them and crashes its
   victims immediately {e after} the matching handler step completes —
   the step's outgoing messages are already in flight, exactly the
   at-a-boundary semantics the engine's atomicity gives us.  Triggers
   are installed by wrapping each site's handler; a wrapper on a dead
   site never runs (undeliverable arrivals invoke no handler). *)

type trigger = {
  tr_match : self:int -> Message.t Engine.event -> bool;
  tr_victims : self:int -> int list;
  mutable tr_remaining : int;  (* fires when the nth match completes *)
  mutable tr_fired : bool;
}

let trigger ?(count = 1) ~victims match_ =
  { tr_match = match_; tr_victims = victims; tr_remaining = count; tr_fired = false }

let arm cluster triggers =
  let engine = Cluster.engine cluster in
  for s = 0 to Cluster.num_sites cluster - 1 do
    let base = Site.handler (Cluster.site cluster s) in
    Engine.register engine s (fun ctx event ->
        base ctx event;
        List.iter
          (fun tr ->
            if (not tr.tr_fired) && tr.tr_match ~self:s event then begin
              tr.tr_remaining <- tr.tr_remaining - 1;
              if tr.tr_remaining <= 0 then begin
                tr.tr_fired <- true;
                List.iter (Cluster.crash_site_now cluster) (tr.tr_victims ~self:s)
              end
            end)
          !triggers)
  done

let on_message pred ~self:_ = function
  | Engine.Message { payload; _ } -> pred payload
  | Engine.Send_failed _ | Engine.Timer _ -> false

let at site pred ~self event = self = site && on_message pred ~self event

(* {2 One matrix cell}

   Items 0-3 are reserved for victim transactions; warmup and epilogue
   traffic stays on items 4+, so the post-recovery atomicity check on a
   victim's writes never races a later write to the same item. *)

let num_items = 12

let run_cell ~point ~seed ~sites:n ~partial =
  let rng = Rng.create (Rng.mix ((seed * 8191) + (n * 131) + if partial then 1 else 0)) in
  let on_demand =
    match point with Coord_mid_copy | During_clear | Copier_source -> true | _ -> false
  in
  let config =
    Config.make ~cost:Cost_model.free
      ~durability:
        (Config.Durable_wal
           { checkpoint_interval = (match point with Mid_checkpoint -> 2 | _ -> 8) })
      ~recovery:
        (if on_demand then Config.On_demand
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
  let engine = Cluster.engine cluster in
  let all_sites = List.init n Fun.id in
  let violations = ref [] in
  let viol fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let stores site item = Config.stores config ~site ~item in
  let holders item = List.filter (fun s -> stores s item) all_sites in
  (* Roles: [c] coordinates the victim transaction and holds item 0;
     [p] is a distinct holder of item 0 (the crashing participant). *)
  let c = match holders 0 with h :: _ -> h | [] -> 0 in
  let p =
    match List.filter (fun s -> s <> c) (holders 0) with
    | s :: _ -> s
    | [] -> (c + 1) mod n
  in
  let submit_background coordinator =
    let id = Cluster.next_txn_id cluster in
    let item = 4 + Rng.int rng (num_items - 4) in
    let item' = 4 + Rng.int rng (num_items - 4) in
    ignore (Cluster.submit cluster ~coordinator (Txn.make ~id [ Txn.Write item; Txn.Read item' ]))
  in
  let notice_dead () =
    let dead = List.filter (fun s -> not (Cluster.alive cluster s)) all_sites in
    (match (dead, List.find_opt (Cluster.alive cluster) all_sites) with
    | [], _ | _, None -> ()
    | _ :: _, Some witness -> Engine.inject engine ~dst:witness (Message.Failure_noticed dead));
    Cluster.run_to_quiescence cluster
  in
  let recover_all () =
    let dead =
      Array.of_list (List.filter (fun s -> not (Cluster.alive cluster s)) all_sites)
    in
    Rng.shuffle rng dead;
    Array.iter
      (fun s ->
        match Cluster.recover_site cluster s with
        | `Recovered -> ()
        | `Blocked -> viol "site %d blocked on recovery" s)
      dead;
    Cluster.run_to_quiescence cluster
  in
  (* Warmup: establish versions and commit history on every site. *)
  List.iter (fun i -> submit_background (i mod n)) [ 1; 2; 3; 4 ];
  (* The copier points need the coordinator to hold a fail-locked copy:
     crash it, advance item 0 behind its back, bring it back under
     [On_demand] so the lock survives until a transaction reads it. *)
  if on_demand then begin
    Cluster.fail_site cluster c;
    let writer = if p <> c then p else (c + 1) mod n in
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:writer (Txn.make ~id [ Txn.Write 0 ]));
    let id = Cluster.next_txn_id cluster in
    ignore (Cluster.submit cluster ~coordinator:writer (Txn.make ~id [ Txn.Write 0 ]));
    (match Cluster.recover_site cluster c with
    | `Recovered -> ()
    | `Blocked -> viol "setup: coordinator blocked on recovery")
  end;
  if point = Recovering_mid_batch then begin
    Cluster.fail_site cluster p;
    let writer = c in
    List.iter
      (fun item ->
        let id = Cluster.next_txn_id cluster in
        ignore (Cluster.submit cluster ~coordinator:writer (Txn.make ~id [ Txn.Write item ])))
      [ 0; 1; 2 ]
  end;
  let triggers = ref [] in
  arm cluster triggers;
  let crashes () =
    List.length (List.filter (fun tr -> tr.tr_fired) !triggers)
  in
  (* Victim transactions, on the reserved items.  [victims] collects
     (txn, write items) pairs for the post-recovery atomicity check. *)
  let victim_txns = ref [] in
  let inject_victim ~coordinator txn =
    victim_txns := (txn, Txn.write_items txn) :: !victim_txns;
    Cluster.inject_txn cluster ~coordinator txn;
    Cluster.run_to_quiescence cluster;
    notice_dead ()
  in
  let expected_acks items =
    List.length
      (List.filter (fun s -> s <> c && List.exists (fun item -> stores s item) items) all_sites)
  in
  let write2 = [ Txn.Write 0; Txn.Write 1 ] in
  (match point with
  | Coord_after_begin ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ c ])
          (at c (function Message.Begin_txn t -> t.Txn.id = id | _ -> false)) ];
    inject_victim ~coordinator:c (Txn.make ~id write2)
  | Coord_before_decide ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ c ])
          (at c (function Message.Prepare_ack { txn } -> txn = id | _ -> false)) ];
    inject_victim ~coordinator:c (Txn.make ~id write2)
  | Coord_after_decide ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger
          ~count:(expected_acks [ 0; 1 ])
          ~victims:(fun ~self:_ -> [ c ])
          (at c (function Message.Prepare_ack { txn } -> txn = id | _ -> false)) ];
    inject_victim ~coordinator:c (Txn.make ~id write2)
  | Coord_mid_copy ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ c ])
          (at c (function Message.Copy_reply { txn; _ } -> txn = id | _ -> false)) ];
    inject_victim ~coordinator:c (Txn.make ~id [ Txn.Read 0; Txn.Write 1 ])
  | Part_before_prepare ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ p ])
          (at c (function Message.Begin_txn t -> t.Txn.id = id | _ -> false)) ];
    inject_victim ~coordinator:c (Txn.make ~id write2)
  | Part_after_prepare ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ p ])
          (at p (function Message.Prepare { txn; _ } -> txn = id | _ -> false)) ];
    inject_victim ~coordinator:c (Txn.make ~id write2)
  | Part_after_commit ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ p ])
          (at p (function Message.Commit { txn } -> txn = id | _ -> false)) ];
    inject_victim ~coordinator:c (Txn.make ~id write2)
  | Copier_source ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger
          ~victims:(fun ~self -> [ self ])
          (fun ~self event ->
            self <> c
            && on_message
                 (function Message.Copy_request { txn; _ } -> txn = id | _ -> false)
                 ~self event) ];
    inject_victim ~coordinator:c (Txn.make ~id [ Txn.Read 0; Txn.Write 1 ])
  | During_clear ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger
          ~victims:(fun ~self -> [ self ])
          (fun ~self event ->
            self <> c
            && on_message
                 (function Message.Faillocks_cleared { site; _ } -> site = c | _ -> false)
                 ~self event) ];
    inject_victim ~coordinator:c (Txn.make ~id [ Txn.Read 0; Txn.Write 1 ])
  | Mid_checkpoint ->
    (* Two overlapping disjoint-write transactions at one coordinator:
       the participant's checkpoint after applying A's Commit runs while
       B's durable prepare is still buffered.  The crash right after
       that checkpoint must not lose B's in-doubt record. *)
    let id_a = Cluster.next_txn_id cluster in
    let id_b = Cluster.next_txn_id cluster in
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ p ])
          (at p (function Message.Commit { txn } -> txn = id_a | _ -> false)) ];
    let a = Txn.make ~id:id_a write2 in
    let b = Txn.make ~id:id_b [ Txn.Write 2; Txn.Write 3 ] in
    victim_txns := (b, Txn.write_items b) :: !victim_txns;
    victim_txns := (a, Txn.write_items a) :: !victim_txns;
    Cluster.inject_txn cluster ~coordinator:c a;
    Cluster.inject_txn cluster ~coordinator:c b;
    Cluster.run_to_quiescence cluster;
    notice_dead ()
  | Recovering_mid_batch ->
    triggers :=
      [ trigger ~victims:(fun ~self:_ -> [ p ])
          (at p (function Message.Copy_reply _ -> true | _ -> false)) ];
    (match Cluster.recover_site cluster p with
    | `Recovered | `Blocked -> ());
    Cluster.run_to_quiescence cluster;
    notice_dead ()
  | Flapping ->
    (* Two rounds on disjoint item pairs, crashing [p] at a different
       protocol point each time and recovering it in between. *)
    List.iteri
      (fun round items ->
        let id = Cluster.next_txn_id cluster in
        let matcher =
          if round = 0 then at p (function Message.Prepare { txn; _ } -> txn = id | _ -> false)
          else at p (function Message.Commit { txn } -> txn = id | _ -> false)
        in
        triggers := trigger ~victims:(fun ~self:_ -> [ p ]) matcher :: !triggers;
        inject_victim ~coordinator:c (Txn.make ~id (List.map (fun i -> Txn.Write i) items));
        recover_all ())
      [ [ 0; 1 ]; [ 2; 3 ] ]
  | Correlated ->
    let id = Cluster.next_txn_id cluster in
    triggers :=
      [
        trigger ~victims:(fun ~self:_ -> [ p ])
          (at p (function Message.Prepare { txn; _ } -> txn = id | _ -> false));
        trigger
          ~count:(expected_acks [ 0; 1 ])
          ~victims:(fun ~self:_ -> [ c ])
          (at c (function Message.Prepare_ack { txn } -> txn = id | _ -> false));
      ];
    inject_victim ~coordinator:c (Txn.make ~id write2));
  if crashes () = 0 then viol "no crash trigger fired: the point was not exercised";
  (* Ghost commits: a victim transaction with no recorded outcome whose
     decision provably was commit (a survivor applied it, or the
     coordinator's durable decision record exists) is recorded for the
     oracle before anything else runs. *)
  let outcome_of id = Hashtbl.find_opt outcomes id in
  let commit_evidence id =
    (* Only an applied commit counts: a copier install on behalf of [id]
       carries the source copy's older version and records nothing (the
       bug this matrix first caught in the site-level probe scan). *)
    List.exists (fun s -> Site.applied_commit (Cluster.site cluster s) ~txn:id) all_sites
    ||
    match Site.wal (Cluster.site cluster c) with
    | Some wal -> Wal.decided_commit wal ~txn:id
    | None -> false
  in
  let classify (txn, _items) =
    match outcome_of txn.Txn.id with
    | Some o -> if o.Metrics.committed then "committed" else "aborted"
    | None ->
      if commit_evidence txn.Txn.id then begin
        Cluster.note_ghost_commit cluster txn;
        "ghost-commit"
      end
      else "aborted"
  in
  let classified = List.map (fun v -> (v, classify v)) (List.rev !victim_txns) in
  let resolved = match classified with [] -> "none" | l -> snd (List.nth l (List.length l - 1)) in
  recover_all ();
  (* Assertion battery, on the fully recovered, quiescent cluster. *)
  let in_doubt_left =
    List.fold_left (fun acc s -> acc + Site.in_doubt (Cluster.site cluster s)) 0 all_sites
  in
  if in_doubt_left > 0 then viol "%d in-doubt prepares survived recovery" in_doubt_left;
  List.iter
    (fun s ->
      let site = Cluster.site cluster s in
      if Site.buffered_prepares site > 0 then
        viol "site %d still buffers %d prepares" s (Site.buffered_prepares site);
      if Site.pending_2pc site > 0 then
        viol "site %d still awaits %d 2PC acks" s (Site.pending_2pc site))
    all_sites;
  (* Atomicity: each victim transaction is either applied at every
     alive storing site (or the site's staleness is fail-locked in the
     union view) or applied nowhere. *)
  List.iter
    (fun ((txn, items), verdict) ->
      let id = txn.Txn.id in
      let committed = verdict <> "aborted" in
      List.iter
        (fun item ->
          List.iter
            (fun s ->
              if stores s item then begin
                let v =
                  match Database.version (Site.database (Cluster.site cluster s)) item with
                  | Some v -> v
                  | None -> 0
                in
                let locked = List.mem item (Cluster.faillocks_for cluster s) in
                if committed && v <> id && not locked then
                  viol "txn %d committed but site %d has item %d at v%d, unlocked" id s item v;
                if (not committed) && v = id then
                  viol "txn %d aborted but site %d applied item %d" id s item
              end)
            all_sites)
        items)
    classified;
  (* Converge: under [On_demand] the recovered sites keep their locks
     until a transaction reads through them, so read the locked items
     from each lagging site until the union view drains. *)
  let rec converge budget =
    if budget > 0 && Cluster.total_faillocks cluster > 0 then begin
      List.iter
        (fun s ->
          match Cluster.faillocks_for cluster s with
          | [] -> ()
          | locked ->
            let id = Cluster.next_txn_id cluster in
            ignore
              (Cluster.submit cluster ~coordinator:s
                 (Txn.make ~id (List.map (fun i -> Txn.Read i) locked))))
        all_sites;
      converge (budget - 1)
    end
  in
  converge 4;
  List.iter (fun i -> submit_background (i mod n)) [ 1; 2 ];
  (match Invariant.all cluster with
  | Ok () -> ()
  | Error message -> viol "invariant: %s" message);
  if not (Cluster.fully_consistent cluster) then begin
    let disagreements = ref [] in
    for item = num_items - 1 downto 0 do
      let copies =
        List.filter_map
          (fun s ->
            match Database.read (Site.database (Cluster.site cluster s)) item with
            | Some (value, version) -> Some (s, value, version)
            | None -> None)
          all_sites
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
    viol "cluster did not converge (%d fail-locks left%s)"
      (Cluster.total_faillocks cluster)
      (match !disagreements with [] -> "" | d -> "; " ^ String.concat ", " d)
  end;
  {
    r_point = point_name point;
    r_seed = seed;
    r_sites = n;
    r_partial = partial;
    r_crashes = crashes ();
    r_resolved = resolved;
    r_in_doubt = in_doubt_left;
    r_knowledge_loss = Cluster.knowledge_loss_events cluster;
    r_violations = List.rev !violations;
    r_incidents = Raid_obs.Incident.incidents recorder;
  }

(* {2 The matrix} *)

let default_seeds = [ 1; 2; 3 ]
let default_sizes = [ 4; 6 ]

let run ?domains ?(seeds = default_seeds) ?(sizes = default_sizes) ?(points = all_points) () =
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

let to_csv summary =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "point,seed,sites,placement,crashes,resolved,in_doubt,knowledge_loss,violations\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%s,%d,%s,%d,%d,%s\n" r.r_point r.r_seed r.r_sites
           (if r.r_partial then "partial-k3" else "full")
           r.r_crashes r.r_resolved r.r_in_doubt r.r_knowledge_loss
           (match r.r_violations with
           | [] -> "ok"
           | v -> String.concat "; " v)))
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
            (Printf.sprintf "%s,%d,%d,%s,%s\n" r.r_point r.r_seed r.r_sites
               (if r.r_partial then "partial-k3" else "full")
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
          (if r.r_partial then "partial-k3" else "full");
          string_of_int r.r_crashes;
          r.r_resolved;
          string_of_int r.r_in_doubt;
          string_of_int r.r_knowledge_loss;
          (match r.r_violations with [] -> "ok" | v -> String.concat "; " v);
        ])
    summary.rows;
  t
