module Int_table = Raid_util.Int_table

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
  (* The redo log since the checkpoint, oldest first, in parallel [int]
     arrays grown by doubling: appending stores three ints, so it
     allocates nothing and stores no pointer, and a slot past
     [log_length] keeps no write alive.  Writes are rebuilt only by
     [replay_into], which needs no transaction id. *)
  mutable items : int array;
  mutable values : int array;
  mutable versions : int array;
  mutable log_length : int;
  mutable checkpoints_taken : int;
  mutable session : int;
  (* In-doubt transaction records live OUTSIDE the redo log on purpose:
     [checkpoint] truncates the log but must never drop a buffered
     prepare (the participant is still in doubt), and [replay_into] must
     never materialize a prepared-but-undecided write (it was never
     committed).  Keeping them in side tables makes both properties
     structural rather than relying on careful log filtering.  A
     prepare's coordinator and writes sit at its slot of the two arrays
     below (a free slot's writes are [[]]), so logging one allocates
     nothing beyond amortised growth; the decision table's slots hold
     nothing. *)
  prepared_tbl : Int_table.t;
  mutable prepared_coordinators : int array;
  mutable prepared_writes : Database.write list array;
  decided_tbl : Int_table.t;
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
    items = [||];
    values = [||];
    versions = [||];
    log_length = 0;
    checkpoints_taken = 0;
    session = 1;
    prepared_tbl = Int_table.create ();
    prepared_coordinators = [||];
    prepared_writes = [||];
    decided_tbl = Int_table.create ();
  }

let grown a n capacity =
  let b = Array.make capacity 0 in
  Array.blit a 0 b 0 n;
  b

let append t ~txn:_ { Database.item; value; version } =
  let n = t.log_length in
  if n = Array.length t.items then begin
    let capacity = max 16 (2 * n) in
    t.items <- grown t.items n capacity;
    t.values <- grown t.values n capacity;
    t.versions <- grown t.versions n capacity
  end;
  t.items.(n) <- item;
  t.values.(n) <- value;
  t.versions.(n) <- version;
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
    Database.materialize db
      { Database.item = t.items.(i); value = t.values.(i); version = t.versions.(i) }
  done;
  t.log_length

let session t = t.session

let record_session t session =
  if session <= t.session then invalid_arg "Wal.record_session: session numbers must increase";
  t.session <- session;
  notify t Shared_wal.Session ~size:marker_bytes

let log_prepare t ~txn ~coordinator writes =
  let slot = Int_table.add t.prepared_tbl txn in
  if slot >= Array.length t.prepared_writes then begin
    t.prepared_coordinators <- Int_table.fit t.prepared_tbl t.prepared_coordinators 0;
    t.prepared_writes <- Int_table.fit t.prepared_tbl t.prepared_writes []
  end;
  t.prepared_coordinators.(slot) <- coordinator;
  t.prepared_writes.(slot) <- writes;
  notify t Shared_wal.Prepare ~size:(prepare_base_bytes + (write_bytes * List.length writes))

let forget_prepare t ~txn =
  let slot = Int_table.remove t.prepared_tbl txn in
  if slot <> Int_table.absent then begin
    t.prepared_writes.(slot) <- [];
    notify t Shared_wal.Forget ~size:marker_bytes
  end

let prepared t =
  List.map
    (fun p_txn ->
      let slot = Int_table.find t.prepared_tbl p_txn in
      { p_txn; coordinator = t.prepared_coordinators.(slot); writes = t.prepared_writes.(slot) })
    (Int_table.keys t.prepared_tbl)

let prepared_count t = Int_table.length t.prepared_tbl

let log_decision t ~txn =
  if not (Int_table.mem t.decided_tbl txn) then begin
    ignore (Int_table.add t.decided_tbl txn);
    notify t Shared_wal.Decision ~size:marker_bytes
  end

let forget_decision t ~txn =
  if Int_table.remove t.decided_tbl txn <> Int_table.absent then
    notify t Shared_wal.Forget ~size:marker_bytes

let decided_commit t ~txn = Int_table.mem t.decided_tbl txn
