(* The Prometheus exposition against a reference renderer, and the
   registry's cost model.

   [Prom.render] pre-renders each metric's static text once and caches
   the sorted order; [reference_render] below is the plain uncached
   renderer — Printf for every line, labels escaped on every call, the
   order sorted here from the test's own record of what was
   registered.  A random registry, grown between renders, must render
   to the same bytes through both. *)

module Telemetry = Raid_obs.Telemetry
module Prom = Raid_obs.Prom
module Message = Raid_core.Message

(* {2 The reference} *)

let reference_float_repr f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let escape specials s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '"' when specials -> Buffer.add_string buffer "\\\""
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let label_set ?extra labels =
  let pairs =
    List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape true v)) labels
    @ (match extra with None -> [] | Some (k, v) -> [ Printf.sprintf "%s=\"%s\"" k v ])
  in
  if pairs = [] then "" else "{" ^ String.concat "," pairs ^ "}"

let kind_name = function
  | Telemetry.Counter -> "counter"
  | Telemetry.Gauge -> "gauge"
  | Telemetry.Histogram -> "histogram"

(* [registered] is every (name, labels) the test registered; each is
   looked up by key, so the order does not depend on the registry's
   cached one. *)
let reference_render registry registered =
  let views =
    List.filter_map (fun (name, labels) -> Telemetry.find registry ~labels name) registered
    |> List.sort (fun (a : Telemetry.view) (b : Telemetry.view) ->
           match String.compare a.Telemetry.v_name b.Telemetry.v_name with
           | 0 ->
             String.compare
               (Telemetry.labels_string a.Telemetry.v_labels)
               (Telemetry.labels_string b.Telemetry.v_labels)
           | c -> c)
  in
  let buffer = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  let last_name = ref "" in
  List.iter
    (fun (v : Telemetry.view) ->
      if v.Telemetry.v_name <> !last_name then begin
        last_name := v.Telemetry.v_name;
        if v.Telemetry.v_help <> "" then
          out "# HELP %s %s\n" v.Telemetry.v_name (escape false v.Telemetry.v_help);
        out "# TYPE %s %s\n" v.Telemetry.v_name (kind_name v.Telemetry.v_kind)
      end;
      match v.Telemetry.v_kind with
      | Telemetry.Counter | Telemetry.Gauge ->
        out "%s%s %s\n" v.Telemetry.v_name (label_set v.Telemetry.v_labels)
          (reference_float_repr v.Telemetry.v_value)
      | Telemetry.Histogram ->
        List.iter
          (fun (bound, cumulative) ->
            out "%s_bucket%s %d\n" v.Telemetry.v_name
              (label_set ~extra:("le", reference_float_repr bound) v.Telemetry.v_labels)
              cumulative)
          v.Telemetry.v_buckets;
        out "%s_sum%s %s\n" v.Telemetry.v_name (label_set v.Telemetry.v_labels)
          (reference_float_repr v.Telemetry.v_sum);
        out "%s_count%s %s\n" v.Telemetry.v_name (label_set v.Telemetry.v_labels)
          (reference_float_repr v.Telemetry.v_value))
    views;
  Buffer.contents buffer

(* {2 Random registries} *)

(* Few names, so families collect several label sets and a late
   registration can land first in its family (and bring its own help). *)
let names = [| "raid_engine_messages_total"; "a"; "a_total"; "aa"; "_x" |]

let label_keys = [| "kind"; "site"; "tenant"; "outcome" |]

let label_values =
  [| "0"; "12"; "faillock_hint"; "begin_txn"; ""; {|a"b|}; {|c\d|}; "e\nf"; {|{x="y",z}|};
     "\xc3\xbc" |]

let helps = [| ""; "plain"; {|quote " slash \|}; "line\nbreak" |]

let special_values =
  [| 0.0; -0.0; 1.0; -1.0; 0.1; -2.5; 1e15; 1e15 -. 1.0; -.(1e15 -. 1.0); 999999999999999.5;
     4503599627370496.0; 1e300; -1e-300; 5e-324; Float.nan; Float.infinity; Float.neg_infinity;
     123456789012345.0; 1e14 +. 0.5 |]

let bucket_sets =
  [| [ 1.0; 2.0; 4.0 ]; [ -0.5; 0.0; 1e20 ]; [ 0.0001; 0.25; 1.0 ]; [ -1e15; 1e15 ] |]

type op =
  | Counter of int * (int * int) list * int
  | Gauge of int * (int * int) list * int
  | Histogram of int * (int * int) list * int * int
  | Set of int * float  (** bump the n-th owned counter / set the n-th gauge / observe *)
  | Render

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> special_values.(i)) (int_bound (Array.length special_values - 1));
        float;
        map float_of_int (int_range (-1_000_000) 1_000_000);
      ])

let labels_gen =
  QCheck.Gen.(
    list_size (int_bound 2)
      (pair (int_bound (Array.length label_keys - 1)) (int_bound (Array.length label_values - 1))))

let op_gen =
  QCheck.Gen.(
    let name = int_bound (Array.length names - 1) and help = int_bound (Array.length helps - 1) in
    frequency
      [
        (3, map3 (fun n l h -> Counter (n, l, h)) name labels_gen help);
        (3, map3 (fun n l h -> Gauge (n, l, h)) name labels_gen help);
        ( 2,
          map3
            (fun (n, l) h b -> Histogram (n, l, h, b))
            (pair name labels_gen) help
            (int_bound (Array.length bucket_sets - 1)) );
        (4, map2 (fun i v -> Set (i, v)) small_nat value_gen);
        (2, return Render);
      ])

let print_op = function
  | Counter (n, l, h) -> Printf.sprintf "Counter(%d,%d labels,%d)" n (List.length l) h
  | Gauge (n, l, h) -> Printf.sprintf "Gauge(%d,%d labels,%d)" n (List.length l) h
  | Histogram (n, l, h, b) -> Printf.sprintf "Histogram(%d,%d labels,%d,%d)" n (List.length l) h b
  | Set (i, v) -> Printf.sprintf "Set(%d,%h)" i v
  | Render -> "Render"

(* Run [ops] against a fresh registry; after every [Render] and at the
   end, both renderers must agree.  Registrations the registry refuses
   (duplicate key, kind clash, duplicate label key) are skipped. *)
let renders_agree ops =
  let registry = Telemetry.create () in
  let registered = ref [] in
  let setters = ref [||] in
  let add_setter f = setters := Array.append !setters [| f |] in
  let labels_of l = List.map (fun (k, v) -> (label_keys.(k), label_values.(v))) l in
  let register name labels f =
    match f () with
    | exception Invalid_argument _ -> ()
    | setter ->
      registered := (name, labels) :: !registered;
      add_setter setter
  in
  let agree () =
    let fast = Prom.render registry and slow = reference_render registry !registered in
    if fast <> slow then
      QCheck.Test.fail_reportf "renders differ:@.--- Prom.render@.%s@.--- reference@.%s" fast slow;
    true
  in
  List.for_all
    (fun op ->
      match op with
      | Counter (n, l, h) ->
        let name = names.(n) and labels = labels_of l in
        register name labels (fun () ->
            let c = Telemetry.counter registry ~labels ~help:helps.(h) name in
            fun v -> Telemetry.add c v);
        true
      | Gauge (n, l, h) ->
        let name = names.(n) and labels = labels_of l in
        register name labels (fun () ->
            let cell = ref 0.0 in
            Telemetry.gauge registry ~labels ~help:helps.(h) name (fun () -> !cell);
            fun v -> cell := v);
        true
      | Histogram (n, l, h, b) ->
        let name = names.(n) and labels = labels_of l in
        register name labels (fun () ->
            let hist =
              Telemetry.histogram registry ~labels ~help:helps.(h) ~buckets:bucket_sets.(b) name
            in
            fun v -> Telemetry.observe hist v);
        true
      | Set (i, v) ->
        let n = Array.length !setters in
        if n > 0 then !setters.(i mod n) v;
        true
      | Render -> agree ())
    ops
  && agree ()

let exposition_prop =
  QCheck.Test.make ~name:"Prom.render matches the uncached reference" ~count:400
    (QCheck.make ~print:(QCheck.Print.list print_op) QCheck.Gen.(list_size (int_bound 40) op_gen))
    renders_agree

let float_repr_prop =
  QCheck.Test.make ~name:"float_repr matches Printf" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") value_gen)
    (fun f -> Telemetry.float_repr f = reference_float_repr f)

let test_float_repr_edges () =
  Array.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (reference_float_repr f)
        (Telemetry.float_repr f))
    special_values;
  Alcotest.(check string) "negative zero keeps its sign" "-0" (Telemetry.float_repr (-0.0))

(* A kind outside [Message.all_kinds] registers on first use, and a
   scrape taken before it must not leave the next one stale: the late
   series lands in sorted position under its family's header. *)
let test_late_kind_in_sorted_position () =
  let registry = Telemetry.create () in
  let help = "Messages delivered, by payload kind" in
  List.iter
    (fun kind ->
      ignore
        (Telemetry.counter registry "raid_engine_messages_total" ~labels:[ ("kind", kind) ] ~help))
    [ "prepare"; "commit" ];
  ignore (Telemetry.counter registry "raid_engine_events_total" ~help:"Events");
  let before = Prom.render registry in
  let late = Telemetry.counter registry "raid_engine_messages_total"
      ~labels:[ ("kind", "faillock_hint") ] ~help
  in
  Telemetry.incr late;
  let after = Prom.render registry in
  Alcotest.(check bool) "first render had no hint" false (before = after);
  Alcotest.(check string) "late kind sorted into its family"
    (String.concat "\n"
       [
         "# HELP raid_engine_events_total Events";
         "# TYPE raid_engine_events_total counter";
         "raid_engine_events_total 0";
         "# HELP raid_engine_messages_total " ^ help;
         "# TYPE raid_engine_messages_total counter";
         {|raid_engine_messages_total{kind="commit"} 0|};
         {|raid_engine_messages_total{kind="faillock_hint"} 1|};
         {|raid_engine_messages_total{kind="prepare"} 0|};
         "";
       ])
    after

(* {2 Cost model} *)

(* Registration and lookup are hash-indexed: 16x the metrics must cost
   about 16x the time, not 256x.  On a 2-vCPU VM the ratio reads 18-25x
   (table growth and GC), and 130x with a scan of every registered
   metric per registration.  Best of three to ride out host noise. *)
let test_registration_near_linear () =
  let time n =
    let best = ref Float.infinity in
    for _ = 1 to 3 do
      let registry = Telemetry.create () in
      let t0 = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        let labels = [ ("site", string_of_int i) ] in
        ignore (Telemetry.counter registry "raid_site_ops_total" ~labels);
        ignore (Telemetry.find registry "raid_site_ops_total" ~labels)
      done;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    Float.max !best 1e-4
  in
  let small = time 1_000 and large = time 16_000 in
  if large /. small > 60.0 then
    Alcotest.failf "16000 registrations took %.1fx the time of 1000 (%.4f s vs %.4f s)"
      (large /. small) large small

let test_kind_index () =
  Alcotest.(check int) "one index per constructor" 21 Message.kind_count;
  let names = List.init Message.kind_count Message.kind_of_index in
  Alcotest.(check int) "names distinct" Message.kind_count
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " has an index") true (List.mem kind names))
    Message.all_kinds;
  List.iter
    (fun m ->
      let name = Message.kind_of_index (Message.kind_index m) in
      Alcotest.(check bool) (name ^ " is a kind name") true (List.mem name names))
    Message.
      [
        Recover_command;
        Failure_noticed [ 1 ];
        Terminate_command;
        Commit { txn = 1 };
        Faillock_hint { for_site = 0; items = [] };
        Txn_status_reply { txn = 1; committed = true };
      ]

let suite =
  [
    QCheck_alcotest.to_alcotest exposition_prop;
    QCheck_alcotest.to_alcotest float_repr_prop;
    Alcotest.test_case "float_repr edge values" `Quick test_float_repr_edges;
    Alcotest.test_case "late kind in sorted position" `Quick test_late_kind_in_sorted_position;
    Alcotest.test_case "registration near-linear" `Quick test_registration_near_linear;
    Alcotest.test_case "message kind index" `Quick test_kind_index;
  ]
