module Vtime = Raid_net.Vtime

type labels = (string * string) list

type kind = Counter | Gauge | Histogram

type counter = { mutable total : float }

type histogram = {
  bounds : float array;  (* upper bounds, strictly increasing; +Inf implicit *)
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable hsum : float;
  mutable hcount : int;
}

type source =
  | Owned of counter
  | Polled of (unit -> float)
  | Hist of histogram

type metric = {
  m_name : string;
  m_labels : labels;
  m_labels_str : string;
  m_help : string;
  m_kind : kind;
  m_source : source;
  m_series : Series.t;  (* stays empty in a registry without an interval *)
  mutable m_text : string array;  (* exporter's pre-rendered text; [||] until first export *)
}

type t = {
  ivl : Vtime.t option;  (* [None]: current values only, no history *)
  mutable metrics : metric array;  (* registration order; the first [count] slots *)
  mutable count : int;
  by_key : (string * string, metric) Hashtbl.t;  (* (name, labels_str) *)
  kinds : (string, kind) Hashtbl.t;  (* name -> the kind its family was registered with *)
  mutable sorted : metric array option;  (* export order; dropped by every registration *)
  mutable next_due : Vtime.t;
  mutable last_at : Vtime.t;  (* stamp of the most recent sample; -1 = none *)
}

let labels_string labels =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let float_repr f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    (* Exactly the bytes of [%.0f], without the format interpreter:
       below 1e15 the integer conversion is exact, and [%.0f] keeps the
       sign of a negative zero. *)
    if f = 0.0 && Float.sign_bit f then "-0" else string_of_int (Float.to_int f)
  else Printf.sprintf "%.17g" f

let create ?interval () =
  (match interval with
  | Some i when i <= 0 -> invalid_arg "Telemetry.create: interval must be positive"
  | _ -> ());
  {
    ivl = interval;
    metrics = [||];
    count = 0;
    by_key = Hashtbl.create 64;
    kinds = Hashtbl.create 32;
    sorted = None;
    next_due = Option.value interval ~default:0;
    last_at = -1;
  }

let interval t = t.ivl

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let sort_labels labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t ~labels ~help ~kind ~source name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Telemetry: ill-formed metric name %S" name);
  let labels = sort_labels labels in
  let rec dup_key = function
    | (a, _) :: ((b, _) :: _ as rest) -> a = b || dup_key rest
    | _ -> false
  in
  if dup_key labels then
    invalid_arg (Printf.sprintf "Telemetry: duplicate label key on metric %S" name);
  let labels_str = labels_string labels in
  if Hashtbl.mem t.by_key (name, labels_str) then
    invalid_arg (Printf.sprintf "Telemetry: metric %S{%s} already registered" name labels_str);
  (match Hashtbl.find_opt t.kinds name with
  | Some k when k <> kind ->
    invalid_arg (Printf.sprintf "Telemetry: metric %S registered with two kinds" name)
  | Some _ -> ()
  | None -> Hashtbl.replace t.kinds name kind);
  let m =
    {
      m_name = name;
      m_labels = labels;
      m_labels_str = labels_str;
      m_help = help;
      m_kind = kind;
      m_source = source;
      m_series = Series.create ();
      m_text = [||];
    }
  in
  if t.count = Array.length t.metrics then begin
    let grown = Array.make (max 64 (2 * t.count)) m in
    Array.blit t.metrics 0 grown 0 t.count;
    t.metrics <- grown
  end;
  t.metrics.(t.count) <- m;
  t.count <- t.count + 1;
  Hashtbl.replace t.by_key (name, labels_str) m;
  t.sorted <- None

let counter t ?(labels = []) ?(help = "") name =
  let c = { total = 0.0 } in
  register t ~labels ~help ~kind:Counter ~source:(Owned c) name;
  c

let polled_counter t ?(labels = []) ?(help = "") name poll =
  register t ~labels ~help ~kind:Counter ~source:(Polled poll) name

let gauge t ?(labels = []) ?(help = "") name poll =
  register t ~labels ~help ~kind:Gauge ~source:(Polled poll) name

let default_buckets = [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0; 512.0; 1024.0; 2048.0; 4096.0 ]

let histogram t ?(labels = []) ?(help = "") ?(buckets = default_buckets) name =
  if buckets = [] then invalid_arg "Telemetry.histogram: empty bucket list";
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  if not (increasing buckets) then
    invalid_arg "Telemetry.histogram: bucket bounds must be strictly increasing";
  let bounds = Array.of_list buckets in
  let h = { bounds; counts = Array.make (Array.length bounds + 1) 0; hsum = 0.0; hcount = 0 } in
  register t ~labels ~help ~kind:Histogram ~source:(Hist h) name;
  h

let incr c = c.total <- c.total +. 1.0
let add c x = c.total <- c.total +. x

let observe h x =
  (* Linear scan: bucket lists are short and observations are per
     transaction, not per event. *)
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || x <= h.bounds.(i) then i else bucket (i + 1) in
  let b = bucket 0 in
  h.counts.(b) <- h.counts.(b) + 1;
  h.hsum <- h.hsum +. x;
  h.hcount <- h.hcount + 1

let current m =
  match m.m_source with
  | Owned c -> c.total
  | Polled poll -> poll ()
  | Hist h -> float_of_int h.hcount

let sample_at t at =
  for i = 0 to t.count - 1 do
    let m = t.metrics.(i) in
    Series.push m.m_series ~at (current m)
  done;
  t.last_at <- at

let maybe_sample t ~at =
  match t.ivl with
  | None -> ()
  | Some ivl ->
    while t.next_due <= at do
      sample_at t t.next_due;
      t.next_due <- Vtime.add t.next_due ivl
    done

let sample_now t ~at =
  if t.ivl <> None && t.last_at <> at then begin
    (* Keep the interval grid anchored at zero: a final flush must not
       shift subsequent due times (there are none in practice, but the
       invariant keeps [maybe_sample] and [sample_now] commutative). *)
    maybe_sample t ~at;
    if t.last_at <> at then sample_at t at
  end

type view = {
  v_name : string;
  v_labels : labels;
  v_help : string;
  v_kind : kind;
  v_value : float;
  v_buckets : (float * int) list;
  v_sum : float;
  v_series : Series.t;
}

let view_of_metric m =
  let buckets, sum =
    match m.m_source with
    | Hist h ->
      let cumulative = ref 0 in
      let finite =
        Array.to_list
          (Array.mapi
             (fun i bound ->
               cumulative := !cumulative + h.counts.(i);
               (bound, !cumulative))
             h.bounds)
      in
      (finite @ [ (Float.infinity, h.hcount) ], h.hsum)
    | Owned _ | Polled _ -> ([], 0.0)
  in
  {
    v_name = m.m_name;
    v_labels = m.m_labels;
    v_help = m.m_help;
    v_kind = m.m_kind;
    v_value = current m;
    v_buckets = buckets;
    v_sum = sum;
    v_series = m.m_series;
  }

let compare_metrics a b =
  match String.compare a.m_name b.m_name with
  | 0 -> String.compare a.m_labels_str b.m_labels_str
  | c -> c

let sorted t =
  match t.sorted with
  | Some order -> order
  | None ->
    let order = Array.sub t.metrics 0 t.count in
    Array.sort compare_metrics order;
    t.sorted <- Some order;
    order

let views t = Array.fold_right (fun m acc -> view_of_metric m :: acc) (sorted t) []

let find t ?(labels = []) name =
  Hashtbl.find_opt t.by_key (name, labels_string (sort_labels labels))
  |> Option.map view_of_metric

let name m = m.m_name
let metric_labels m = m.m_labels
let help m = m.m_help
let kind m = m.m_kind

type reading =
  | Value of float
  | Buckets of { bounds : float array; counts : int array; sum : float; count : int }

let read m =
  match m.m_source with
  | Hist h -> Buckets { bounds = h.bounds; counts = h.counts; sum = h.hsum; count = h.hcount }
  | Owned _ | Polled _ -> Value (current m)

let text m render =
  if Array.length m.m_text = 0 then m.m_text <- render m;
  m.m_text

let to_csv t =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "metric,labels,t_ms,value\n";
  Array.iter
    (fun m ->
      Series.iter m.m_series (fun ~at value ->
          Buffer.add_string buffer m.m_name;
          Buffer.add_char buffer ',';
          Buffer.add_string buffer m.m_labels_str;
          Buffer.add_char buffer ',';
          (* Vtime is integer microseconds, so three decimals are exact. *)
          Buffer.add_string buffer (Printf.sprintf "%.3f" (Vtime.to_ms at));
          Buffer.add_char buffer ',';
          Buffer.add_string buffer (float_repr value);
          Buffer.add_char buffer '\n'))
    (sorted t);
  Buffer.contents buffer
