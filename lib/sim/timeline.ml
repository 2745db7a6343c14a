module Vtime = Raid_net.Vtime
module Trace = Raid_obs.Trace

let site_name s = if s = Raid_net.Engine.external_source then "mgr" else string_of_int s

(* Select first, then format only the lines kept: a console's ring
   holds up to 65,536 arrivals and [trace 5] prints five. *)
let lines ?(since = Vtime.zero) ?(last = max_int) ring =
  let selected =
    List.filter_map
      (fun ({ at; event; _ } : Trace.entry) ->
        match event with
        | Trace.Message { src; dst; delivered; label } when Vtime.compare at since >= 0 ->
          Some (at, src, dst, delivered, label)
        | _ -> None)
      (Trace.entries ring)
  in
  let skip = List.length selected - last in
  List.filteri (fun i _ -> i >= skip) selected
  |> List.map (fun (at, src, dst, delivered, label) ->
         Printf.sprintf "%9.2f ms %s %3s -> %-3s %s" (Vtime.to_ms at)
           (if delivered then "  " else "!!")
           (site_name src) (site_name dst) label)
