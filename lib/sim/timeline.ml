module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Cluster = Raid_core.Cluster
module Message = Raid_core.Message

let entries cluster = Engine.trace (Cluster.engine cluster)

let site_name s = if s = Engine.external_source then "mgr" else string_of_int s

let describe_entry e =
  let marker = match e.Engine.trace_outcome with Engine.Delivered -> "  " | Engine.Undeliverable -> "!!" in
  Printf.sprintf "%9.2f ms %s %3s -> %-3s %s"
    (Vtime.to_ms e.Engine.trace_time)
    marker
    (site_name e.Engine.trace_src)
    (site_name e.Engine.trace_dst)
    (Message.describe e.Engine.trace_payload)

let render ?(since = Vtime.zero) ?limit cluster =
  let selected =
    List.filter (fun e -> Vtime.compare e.Engine.trace_time since >= 0) (entries cluster)
  in
  let selected =
    match limit with
    | None -> selected
    | Some n -> List.filteri (fun i _ -> i < n) selected
  in
  String.concat "\n" (List.map describe_entry selected)
