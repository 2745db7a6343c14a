module Database = Raid_storage.Database

type result = (unit, string) Stdlib.result

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let fail fmt = Format.kasprintf (fun message -> Error message) fmt

let faillocks_track_staleness cluster =
  let config = Cluster.config cluster in
  let sites = Cluster.operational cluster in
  let rec check_site = function
    | [] -> Ok ()
    | s :: rest ->
      let site = Cluster.site cluster s in
      (* One oracle sweep per site, not one per item: the per-item
         membership test below must not rebuild the whole list. *)
      let locked_for_s = Array.make config.Config.num_items false in
      List.iter (fun item -> locked_for_s.(item) <- true) (Cluster.faillocks_for cluster s);
      let rec check_item item =
        if item >= config.Config.num_items then Ok ()
        else if not (Site.stores site ~item) then check_item (item + 1)
        else
          let version = Option.get (Database.version (Site.database site) item) in
          (* The reference is the latest committed version: when every
             holder of the newest copy is down, the alive copies are still
             genuinely out of date and must stay fail-locked. *)
          let reference = Cluster.committed_version cluster item in
          let behind = version < reference in
          let locked = locked_for_s.(item) in
          if behind && not locked then
            if Cluster.knowledge_lost cluster ~item ~site:s then
              (* The DESIGN.md §11 gap, detected and warned about when
                 the last witness crashed: tolerated here so the crash
                 matrix distinguishes the known paper-level limitation
                 from a protocol regression. *)
              check_item (item + 1)
            else
              fail "site %d item %d is behind (v%d < v%d) but not fail-locked" s item version
                reference
          else if locked && not behind then
            fail "site %d item %d is fail-locked but current (v%d)" s item version
          else check_item (item + 1)
      in
      let* () = check_item 0 in
      check_site rest
  in
  check_site sites

let no_stale_reads cluster =
  match Cluster.first_stale_read cluster with
  | None -> Ok ()
  | Some { Cluster.reader; item; version; latest } ->
    fail "txn %d read item %d at version %d; latest committed was %d" reader item version latest

let write_durability cluster outcome ~operational =
  if not outcome.Metrics.committed then Ok ()
  else
    let txn_id = outcome.Metrics.txn.Txn.id in
    let rec check_writes = function
      | [] -> Ok ()
      | { Database.item; _ } :: rest ->
        let missing =
          List.find_opt
            (fun s ->
              let site = Cluster.site cluster s in
              Site.stores site ~item && Database.version (Site.database site) item <> Some txn_id)
            operational
        in
        (match missing with
        | Some s -> fail "txn %d write of item %d missing from site %d" txn_id item s
        | None -> check_writes rest)
    in
    check_writes outcome.Metrics.writes

let convergence cluster =
  let num_sites = Cluster.num_sites cluster in
  let alive = Cluster.alive_sites cluster in
  if List.length alive <> num_sites then fail "convergence: %d sites are down" (num_sites - List.length alive)
  else if not (Cluster.fully_consistent cluster) then
    fail "convergence: databases differ or fail-locks remain (%d set)"
      (Cluster.total_faillocks cluster)
  else Ok ()

let session_vectors_sane cluster =
  let sites = Cluster.operational cluster in
  match sites with
  | [] -> Ok ()
  | reference :: _ ->
    let reference_vector = Site.vector (Cluster.site cluster reference) in
    let rec check = function
      | [] -> Ok ()
      | s :: rest ->
        let vector = Site.vector (Cluster.site cluster s) in
        let rec check_target = function
          | [] -> check rest
          | target :: more ->
            let own = Site.session_number (Cluster.site cluster target) in
            let entry = Session.get vector target in
            if entry.Session.state <> Session.Up then
              fail "site %d believes alive site %d is not up" s target
            else if entry.Session.session <> own then
              fail "site %d perceives session %d for site %d whose own session is %d" s
                entry.Session.session target own
            else if Session.state reference_vector target <> Session.Up then
              fail "reference site %d disagrees that %d is up" reference target
            else check_target more
        in
        check_target sites
    in
    check sites

let all cluster =
  let* () = faillocks_track_staleness cluster in
  let* () = no_stale_reads cluster in
  session_vectors_sane cluster
