let version = "1.27.0"

(* One child process per OCaml process, not per export. *)
let resolved_revision =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let revision () = Lazy.force resolved_revision

let help = "Build provenance: constant 1 with version and git revision labels"

let labels () = [ ("revision", revision ()); ("version", version) ]

let register registry =
  Telemetry.gauge registry "raid_build_info" ~labels:(labels ()) ~help (fun () -> 1.0)

let prom_block () =
  (* Render through a throwaway registry so the escaping and layout are
     exactly Prom's. *)
  let registry = Telemetry.create () in
  register registry;
  Prom.render registry
