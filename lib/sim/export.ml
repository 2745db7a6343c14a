module Metrics = Raid_core.Metrics

let float_cell v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let series_csv ~header:(x_name, y_name) points =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Printf.sprintf "%s,%s\n" x_name y_name);
  List.iter
    (fun (x, y) -> Buffer.add_string buffer (Printf.sprintf "%s,%s\n" (float_cell x) (float_cell y)))
    points;
  Buffer.contents buffer

let multi_series_csv ~x_name series =
  let module FloatSet = Set.Make (Float) in
  let xs =
    List.fold_left
      (fun acc (_, points) -> List.fold_left (fun acc (x, _) -> FloatSet.add x acc) acc points)
      FloatSet.empty series
  in
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer x_name;
  List.iter (fun (name, _) -> Buffer.add_string buffer ("," ^ name)) series;
  Buffer.add_char buffer '\n';
  FloatSet.iter
    (fun x ->
      Buffer.add_string buffer (float_cell x);
      List.iter
        (fun (_, points) ->
          Buffer.add_char buffer ',';
          match List.assoc_opt x points with
          | Some y -> Buffer.add_string buffer (float_cell y)
          | None -> ())
        series;
      Buffer.add_char buffer '\n')
    xs;
  Buffer.contents buffer

let records_csv (result : Runner.result) =
  let num_sites = Raid_core.Cluster.num_sites result.Runner.cluster in
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "txn,coordinator,committed,abort_reason,copiers,elapsed_ms";
  for s = 0 to num_sites - 1 do
    Buffer.add_string buffer (Printf.sprintf ",faillocks_site_%d" s)
  done;
  Buffer.add_char buffer '\n';
  List.iter
    (fun record ->
      let outcome = record.Runner.outcome in
      Buffer.add_string buffer
        (Printf.sprintf "%d,%d,%b,%s,%d,%.3f" record.Runner.index outcome.Metrics.coordinator
           outcome.Metrics.committed
           (match outcome.Metrics.abort_reason with
           | None -> ""
           | Some reason -> Format.asprintf "%a" Metrics.pp_abort_reason reason)
           outcome.Metrics.copier_requests
           (Raid_net.Vtime.to_ms outcome.Metrics.elapsed));
      Array.iter
        (fun count -> Buffer.add_string buffer (Printf.sprintf ",%d" count))
        record.Runner.faillocks_per_site;
      Buffer.add_char buffer '\n')
    result.Runner.records;
  Buffer.contents buffer

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
