(* Tests for the multi-tenant engine: the determinism contract (results
   and CSV are a pure function of the spec — independent of the domain
   count and of the WAL mode), the shared-WAL batching win, tenant crash
   isolation, and the shared log's accounting and digest, checked against
   a byte-by-byte reference. *)

module Multi = Raid_multi
module Shared_wal = Raid_storage.Shared_wal
module Pool = Raid_par.Pool
module Trace = Raid_obs.Trace

let small_spec ?(wal_mode = Multi.Shared { group_size = 16 }) ?(fail_every = 6) () =
  Multi.spec ~tenants:24 ~shards:4 ~sites:5 ~items:32 ~txns:12 ~batch:4 ~seed:7 ~wal_mode
    ~fail_every ()

let tenant_fields (r : Multi.tenant_result) =
  (r.Multi.tenant, r.Multi.shard, r.Multi.submitted, r.Multi.committed, r.Multi.aborted,
   r.Multi.events, r.Multi.recovered)

let with_domains n f =
  let before = Pool.default_domains () in
  Pool.set_default_domains n;
  Fun.protect ~finally:(fun () -> Pool.set_default_domains before) f

(* The headline contract: per-tenant results and the full CSV are
   byte-identical whether the shards run sequentially or on 4 domains. *)
let test_jobs_identity () =
  let spec = small_spec () in
  let seq = with_domains 1 (fun () -> Multi.run spec) in
  let par = with_domains 4 (fun () -> Multi.run spec) in
  Alcotest.(check int) "tenant count" 24 (Array.length seq.Multi.results);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d identical" i)
        true
        (tenant_fields r = tenant_fields par.Multi.results.(i)))
    seq.Multi.results;
  Alcotest.(check string) "csv byte-identical" (Multi.csv seq) (Multi.csv par)

(* WAL mode is a host-side cost model: switching it must not move a
   single protocol outcome, only the flush accounting. *)
let test_wal_mode_invariance () =
  let shared = Multi.run (small_spec ~wal_mode:(Multi.Shared { group_size = 16 }) ()) in
  let per_tenant = Multi.run (small_spec ~wal_mode:Multi.Per_tenant ()) in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d invariant" i)
        true
        (tenant_fields r = tenant_fields per_tenant.Multi.results.(i)))
    shared.Multi.results;
  let flushes r =
    Array.fold_left (fun a (w : Shared_wal.stats) -> a + w.Shared_wal.flushes) 0 r.Multi.wal
  in
  let records r =
    Array.fold_left (fun a (w : Shared_wal.stats) -> a + w.Shared_wal.records) 0 r.Multi.wal
  in
  Alcotest.(check int) "same records either way" (records shared) (records per_tenant);
  Alcotest.(check bool)
    (Printf.sprintf "group commit batches: %d shared < %d per-tenant flushes" (flushes shared)
       (flushes per_tenant))
    true
    (flushes shared < flushes per_tenant)

(* Same spec, same seed: rerunning is bit-stable (no hidden global
   state leaks between runs). *)
let test_rerun_stable () =
  let spec = small_spec () in
  Alcotest.(check string) "two runs, one CSV" (Multi.csv (Multi.run spec))
    (Multi.csv (Multi.run spec))

(* A tenant's crashes are invisible to every other tenant: the protocol
   trace of a non-crashing tenant is event-for-event identical whether
   its neighbors crash or not. *)
let test_crash_isolation () =
  let collect fail_every =
    let collectors = Hashtbl.create 24 in
    let make_sink tenant =
      let c = Trace.create ~capacity:100_000 () in
      Hashtbl.replace collectors tenant c;
      Some (Trace.sink c)
    in
    (* Sequentially: the collectors table is mutated from make_sink. *)
    with_domains 1 (fun () -> ignore (Multi.run ~make_sink (small_spec ~fail_every ())));
    collectors
  in
  let calm = collect 0 in
  let stormy = collect 6 in
  let perturbed = ref 0 in
  for tenant = 0 to 23 do
    let entries c = Trace.entries (Hashtbl.find c tenant) in
    if tenant mod 6 = 0 then begin
      (* Sanity: the failure plan really did change these streams. *)
      if entries calm <> entries stormy then incr perturbed
    end
    else
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d trace unperturbed" tenant)
        true
        (entries calm = entries stormy)
  done;
  Alcotest.(check int) "crashing tenants did diverge" 4 !perturbed;
  (* A tenant's sink gets protocol events only: no tenant asks for
     message arrivals, so none is built. *)
  Hashtbl.iter
    (fun tenant c ->
      if List.exists (fun (e : Trace.entry) -> Trace.kind e.event = "message") (Trace.entries c)
      then Alcotest.failf "tenant %d received message events" tenant)
    stormy

let test_spec_validation () =
  let invalid msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  invalid "Multi.spec: non-positive tenants" (fun () -> ignore (Multi.spec ~tenants:0 ()));
  invalid "Multi.spec: need at least 2 sites per tenant" (fun () ->
      ignore (Multi.spec ~tenants:1 ~sites:1 ()));
  invalid "Multi.spec: non-positive group_size" (fun () ->
      ignore (Multi.spec ~tenants:1 ~wal_mode:(Multi.Shared { group_size = 0 }) ()))

(* {2 Shared_wal accounting} *)

let test_shared_wal_grouping () =
  let log = Shared_wal.create ~group_size:4 () in
  let h = Shared_wal.attach log ~tenant:3 ~site:1 in
  for _ = 1 to 10 do
    Shared_wal.record h Shared_wal.Redo ~size:32
  done;
  (* 10 records with group size 4: auto-flush at 4 and 8, two pending. *)
  let s = Shared_wal.stats log in
  Alcotest.(check int) "records" 10 s.Shared_wal.records;
  Alcotest.(check int) "auto flushes" 2 s.Shared_wal.flushes;
  Shared_wal.flush log;
  let s = Shared_wal.stats log in
  Alcotest.(check int) "final flush" 3 s.Shared_wal.flushes;
  Alcotest.(check bool) "pages padded" true (s.Shared_wal.pages >= 3);
  (* Flushing an empty log is a no-op, not an empty page. *)
  Shared_wal.flush log;
  Alcotest.(check int) "idempotent flush" 3 (Shared_wal.stats log).Shared_wal.flushes

let test_shared_wal_digest () =
  let write_stream ~tenant =
    let log = Shared_wal.create ~group_size:8 () in
    let h = Shared_wal.attach log ~tenant ~site:0 in
    Shared_wal.record h Shared_wal.Redo ~size:24;
    Shared_wal.record h Shared_wal.Prepare ~size:48;
    Shared_wal.flush log;
    (Shared_wal.stats log).Shared_wal.digest
  in
  Alcotest.(check bool) "same stream, same digest" true
    (write_stream ~tenant:1 = write_stream ~tenant:1);
  Alcotest.(check bool) "tenant id is part of the record" true
    (write_stream ~tenant:1 <> write_stream ~tenant:2)

(* Reference for the digest: build the bytes each group commit writes
   (little-endian headers, then zero fill to whole pages) and run FNV-1a
   over them one byte at a time. *)
type wal_op = Record of int * int * Shared_wal.kind * int | Flush

let kinds = Shared_wal.[ Redo; Prepare; Decision; Session; Checkpoint; Forget ]

let tag =
  Shared_wal.(
    function Redo -> 0 | Prepare -> 1 | Decision -> 2 | Session -> 3 | Checkpoint -> 4 | Forget -> 5)

let show_wal_op = function
  | Record (tenant, site, kind, size) ->
    Printf.sprintf "record t=%d s=%d tag=%d size=%d" tenant site (tag kind) size
  | Flush -> "flush"

type reference = {
  batch : Buffer.t;  (* the pending records' bytes as the commit writes them *)
  mutable payload : int;
  mutable count : int;
  mutable flushes : int;
  mutable pages : int;
  mutable bytes_logged : int;
  mutable digest : int;
}

let reference_flush ~page_bytes r =
  if r.count > 0 then begin
    let len = Buffer.length r.batch + r.payload in
    let pages = (len + page_bytes - 1) / page_bytes in
    Buffer.add_string r.batch (String.make r.payload '\000');
    Buffer.add_string r.batch (String.make ((pages * page_bytes) - len) '\000');
    let d = ref r.digest in
    String.iter (fun c -> d := (!d lxor Char.code c) * 0x100000001b3) (Buffer.contents r.batch);
    r.digest <- !d land max_int;
    r.flushes <- r.flushes + 1;
    r.pages <- r.pages + pages;
    r.bytes_logged <- r.bytes_logged + len;
    Buffer.reset r.batch;
    r.payload <- 0;
    r.count <- 0
  end

let prop_shared_wal_digest =
  let gen =
    QCheck.Gen.(
      let id =
        oneof [ int_range 0 9; int_range (-5) (-1); int_range (1 lsl 31) ((1 lsl 32) + 5); int ]
      in
      let size =
        frequency [ (6, int_range 0 64); (3, int_range 0 8192); (1, int_range 240_000 300_000) ]
      in
      let record =
        map
          (fun (((t, s), k), n) -> Record (t, s, k, n))
          (pair (pair (pair id id) (oneofl kinds)) size)
      in
      triple (int_range 1 70) (oneofl [ 1; 7; 4096 ])
        (list_size (int_range 1 40) (frequency [ (8, record); (1, return Flush) ])))
  in
  QCheck.Test.make ~name:"shared wal: digest is FNV-1a over the padded pages" ~count:200
    (QCheck.make
       ~print:(fun (g, p, ops) ->
         Printf.sprintf "group_size=%d page_bytes=%d: %s" g p
           (String.concat "; " (List.map show_wal_op ops)))
       gen)
    (fun (group_size, page_bytes, ops) ->
      let log = Shared_wal.create ~group_size ~page_bytes () in
      let r =
        { batch = Buffer.create 64; payload = 0; count = 0; flushes = 0; pages = 0;
          bytes_logged = 0; digest = 0x4bf29ce484222325 (* offset basis *) }
      in
      List.for_all
        (fun op ->
          (match op with
          | Flush ->
            Shared_wal.flush log;
            reference_flush ~page_bytes r
          | Record (tenant, site, kind, size) ->
            Shared_wal.record (Shared_wal.attach log ~tenant ~site) kind ~size;
            Buffer.add_int32_le r.batch (Int32.of_int tenant);
            Buffer.add_int32_le r.batch (Int32.of_int site);
            Buffer.add_uint8 r.batch (tag kind);
            Buffer.add_int32_le r.batch (Int32.of_int size);
            r.payload <- r.payload + size;
            r.count <- r.count + 1;
            if r.count >= group_size then reference_flush ~page_bytes r);
          let s = Shared_wal.stats log in
          (s.Shared_wal.digest, s.Shared_wal.pages, s.Shared_wal.bytes_logged, s.Shared_wal.flushes)
          = (r.digest, r.pages, r.bytes_logged, r.flushes)
          || QCheck.Test.fail_reportf "after %s: digest %x pages %d bytes %d, reference %x %d %d"
               (show_wal_op op) s.Shared_wal.digest s.Shared_wal.pages s.Shared_wal.bytes_logged
               r.digest r.pages r.bytes_logged)
        ops)

(* One stream's stats, pinned to what a byte-at-a-time FNV-1a over its
   padded pages gives. *)
let test_shared_wal_pinned () =
  let log = Shared_wal.create ~group_size:3 ~page_bytes:7 () in
  let a = Shared_wal.attach log ~tenant:(-1) ~site:(1 lsl 31) in
  let b = Shared_wal.attach log ~tenant:5 ~site:2 in
  Shared_wal.record a Shared_wal.Redo ~size:0;
  Shared_wal.record b Shared_wal.Checkpoint ~size:4100;
  Shared_wal.record a Shared_wal.Forget ~size:9;
  Shared_wal.record b Shared_wal.Decision ~size:1;
  let show () =
    let s = Shared_wal.stats log in
    Printf.sprintf "records=%d flushes=%d pages=%d bytes=%d digest=%x" s.Shared_wal.records
      s.flushes s.pages s.bytes_logged s.digest
  in
  Alcotest.(check string) "after auto flush"
    "records=4 flushes=1 pages=593 bytes=4148 digest=37739932954a94a6" (show ());
  Shared_wal.flush log;
  Alcotest.(check string) "after final flush"
    "records=4 flushes=2 pages=595 bytes=4162 digest=3a7f5dc6d7bbff28" (show ())

let suite =
  [
    Alcotest.test_case "results and csv identical at -j1 and -j4" `Quick test_jobs_identity;
    Alcotest.test_case "wal mode never moves protocol outcomes" `Quick test_wal_mode_invariance;
    Alcotest.test_case "rerun is bit-stable" `Quick test_rerun_stable;
    Alcotest.test_case "crashing tenants never perturb neighbors" `Quick test_crash_isolation;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "shared wal: group commit accounting" `Quick test_shared_wal_grouping;
    Alcotest.test_case "shared wal: digest covers tenant stream" `Quick test_shared_wal_digest;
    Alcotest.test_case "shared wal: pinned stream" `Quick test_shared_wal_pinned;
    QCheck_alcotest.to_alcotest prop_shared_wal_digest;
  ]
