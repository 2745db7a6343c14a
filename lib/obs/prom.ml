(* HELP text escapes only backslash and newline (the exposition format
   leaves quotes alone there, unlike label values). *)
let escape_help s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let escape_label_value s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '"' -> Buffer.add_string buffer "\\\""
      | '\n' -> Buffer.add_string buffer "\\n"
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

(* Render a label set as {k="v",...}; [extra] appends one more pair
   (the histogram [le] bound). *)
let label_set ?extra labels =
  let pairs =
    List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels
    @ (match extra with None -> [] | Some (k, v) -> [ Printf.sprintf "%s=\"%s\"" k v ])
  in
  if pairs = [] then "" else "{" ^ String.concat "," pairs ^ "}"

let kind_name = function
  | Telemetry.Counter -> "counter"
  | Telemetry.Gauge -> "gauge"
  | Telemetry.Histogram -> "histogram"

(* Everything static about one metric's exposition, rendered once:
   slot 0 is its family's HELP/TYPE header, the rest are the sample-line
   prefixes up to and including the space before the value — one for a
   counter or gauge; for a histogram one per bucket (+Inf last), then
   [_sum] and [_count]. *)
let prerender m =
  let name = Telemetry.name m and labels = Telemetry.metric_labels m in
  let help = Telemetry.help m in
  let header =
    (if help = "" then "" else Printf.sprintf "# HELP %s %s\n" name (escape_help help))
    ^ Printf.sprintf "# TYPE %s %s\n" name (kind_name (Telemetry.kind m))
  in
  match Telemetry.read m with
  | Telemetry.Value _ -> [| header; name ^ label_set labels ^ " " |]
  | Telemetry.Buckets { bounds; _ } ->
    let bucket bound =
      name ^ "_bucket" ^ label_set ~extra:("le", Telemetry.float_repr bound) labels ^ " "
    in
    Array.concat
      [
        [| header |];
        Array.map bucket bounds;
        [| bucket Float.infinity; name ^ "_sum" ^ label_set labels ^ " ";
           name ^ "_count" ^ label_set labels ^ " " |];
      ]

let render registry =
  let buffer = Buffer.create 16384 in
  let line prefix value =
    Buffer.add_string buffer prefix;
    Buffer.add_string buffer value;
    Buffer.add_char buffer '\n'
  in
  let sorted = Telemetry.sorted registry in
  Array.iteri
    (fun i m ->
      let text = Telemetry.text m prerender in
      (* A family's header goes before its first label set in sort order. *)
      if i = 0 || not (String.equal (Telemetry.name sorted.(i - 1)) (Telemetry.name m)) then
        Buffer.add_string buffer text.(0);
      match Telemetry.read m with
      | Telemetry.Value v -> line text.(1) (Telemetry.float_repr v)
      | Telemetry.Buckets { bounds; counts; sum; count } ->
        let finite = Array.length bounds in
        let cumulative = ref 0 in
        for b = 0 to finite - 1 do
          cumulative := !cumulative + counts.(b);
          line text.(1 + b) (string_of_int !cumulative)
        done;
        line text.(finite + 1) (string_of_int count);
        line text.(finite + 2) (Telemetry.float_repr sum);
        line text.(finite + 3) (Telemetry.float_repr (float_of_int count)))
    sorted;
  Buffer.contents buffer
