type prepared = { p_txn : int; coordinator : int; writes : Database.write list }

(* Simulated on-device footprint of each durable record, in bytes.  The
   constants only have to be stable and plausible: they feed the shared
   log's page accounting, not any protocol decision. *)
let redo_bytes = 32  (* txn + item + value + version *)
let marker_bytes = 8  (* decision / forget / session records: one txn id *)
let prepare_base_bytes = 16  (* txn + coordinator *)
let write_bytes = 24  (* item + value + version *)
let item_image_bytes = 12  (* checkpoint image slot *)

type t = {
  checkpoint_interval : int;
  backing : Shared_wal.handle option;  (* shard log this WAL's records funnel into *)
  num_items : int;
  mutable checkpoint_image : Database.image;
  (* The redo log since the checkpoint, oldest first, in parallel arrays
     grown by doubling (as in [Update_log]): appending stores an int and
     a pointer to the write the site already holds, so it allocates
     nothing.  Slots past [log_length] keep pointing at writes from
     before the last checkpoint until appends overwrite them; the site's
     [Update_log] holds those writes anyway. *)
  mutable txns : int array;
  mutable writes : Database.write array;
  mutable log_length : int;
  mutable checkpoints_taken : int;
  mutable session : int;
  (* In-doubt transaction records live OUTSIDE the redo log on purpose:
     [checkpoint] truncates the log but must never drop a buffered
     prepare (the participant is still in doubt), and [replay_into] must
     never materialize a prepared-but-undecided write (it was never
     committed).  Keeping them in side tables makes both properties
     structural rather than relying on careful log filtering. *)
  prepared_tbl : (int, prepared) Hashtbl.t;
  decided_tbl : (int, unit) Hashtbl.t;
}

let notify t kind ~size =
  match t.backing with None -> () | Some h -> Shared_wal.record h kind ~size

let create ?(checkpoint_interval = 64) ?backing ?initial ~num_items () =
  if checkpoint_interval <= 0 then invalid_arg "Wal.create: non-positive checkpoint interval";
  if num_items < 0 then invalid_arg "Wal.create: negative num_items";
  (match initial with
  | Some db when Database.num_items db <> num_items ->
    invalid_arg "Wal.create: initial database shape mismatch"
  | Some _ | None -> ());
  {
    checkpoint_interval;
    backing;
    num_items;
    (* The initial checkpoint must mirror the owner's real initial
       database: for a partial-replication site, an all-items image
       would make the first post-crash replay resurrect copies of items
       the site never stored — phantom version-0 copies no fail-lock
       tracks.  Without one, every item is stored at (0, 0): a
       partial database whose base stores everything images that in
       O(1). *)
    checkpoint_image =
      Database.image
        (match initial with
        | Some db -> db
        | None -> Database.create_partial ~num_items ~stored:(fun _ -> true));
    txns = [||];
    writes = [||];
    log_length = 0;
    checkpoints_taken = 0;
    session = 1;
    prepared_tbl = Hashtbl.create 8;
    decided_tbl = Hashtbl.create 8;
  }

let append t ~txn write =
  let n = t.log_length in
  if n = Array.length t.writes then begin
    let capacity = max 16 (2 * n) in
    let txns = Array.make capacity 0 and writes = Array.make capacity write in
    Array.blit t.txns 0 txns 0 n;
    Array.blit t.writes 0 writes 0 n;
    t.txns <- txns;
    t.writes <- writes
  end;
  t.txns.(n) <- txn;
  t.writes.(n) <- write;
  t.log_length <- n + 1;
  notify t Shared_wal.Redo ~size:redo_bytes

let log_length t = t.log_length

let checkpoint t db =
  if Database.num_items db <> t.num_items then
    invalid_arg "Wal.checkpoint: database shape mismatch";
  (* The previous checkpoint is dead from here on, so its storage is
     reused: a checkpoint no longer leaves a promoted image behind. *)
  t.checkpoint_image <- Database.image ~reuse:t.checkpoint_image db;
  t.log_length <- 0;
  t.checkpoints_taken <- t.checkpoints_taken + 1;
  notify t Shared_wal.Checkpoint ~size:(Database.num_items db * item_image_bytes)

let maybe_checkpoint t db =
  if t.log_length >= t.checkpoint_interval then begin
    checkpoint t db;
    true
  end
  else false

let checkpoints_taken t = t.checkpoints_taken

let replay_into t db =
  if Database.num_items db <> t.num_items then
    invalid_arg "Wal.replay_into: database shape mismatch";
  Database.restore db t.checkpoint_image;
  for i = 0 to t.log_length - 1 do
    Database.materialize db t.writes.(i)
  done;
  t.log_length

let session t = t.session

let record_session t session =
  if session <= t.session then invalid_arg "Wal.record_session: session numbers must increase";
  t.session <- session;
  notify t Shared_wal.Session ~size:marker_bytes

let log_prepare t ~txn ~coordinator writes =
  Hashtbl.replace t.prepared_tbl txn { p_txn = txn; coordinator; writes };
  notify t Shared_wal.Prepare ~size:(prepare_base_bytes + (write_bytes * List.length writes))

let forget_prepare t ~txn =
  if Hashtbl.mem t.prepared_tbl txn then begin
    Hashtbl.remove t.prepared_tbl txn;
    notify t Shared_wal.Forget ~size:marker_bytes
  end

let prepared t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.prepared_tbl []
  |> List.sort (fun a b -> compare a.p_txn b.p_txn)

let prepared_count t = Hashtbl.length t.prepared_tbl

let log_decision t ~txn =
  if not (Hashtbl.mem t.decided_tbl txn) then begin
    Hashtbl.replace t.decided_tbl txn ();
    notify t Shared_wal.Decision ~size:marker_bytes
  end

let forget_decision t ~txn =
  if Hashtbl.mem t.decided_tbl txn then begin
    Hashtbl.remove t.decided_tbl txn;
    notify t Shared_wal.Forget ~size:marker_bytes
  end

let decided_commit t ~txn = Hashtbl.mem t.decided_tbl txn
