module Cluster = Raid_core.Cluster
module Driver = Raid_core.Driver
module Config = Raid_core.Config
module Txn = Raid_core.Txn
module Metrics = Raid_core.Metrics
module Session = Raid_core.Session
module Site = Raid_core.Site
module Workload = Raid_core.Workload
module Database = Raid_storage.Database
module Rng = Raid_util.Rng

type t = { cluster : Cluster.t; driver : Driver.t }

let create ?(sites = 4) ?(items = 50) ?(max_ops = 5) ?(seed = 42) () =
  let config = Config.make ~num_sites:sites ~num_items:items () in
  let cluster = Cluster.of_spec (Cluster.Spec.make ~trace:true config) in
  let rng = Rng.create seed in
  let workload =
    Workload.create (Workload.Uniform { max_ops; write_prob = 0.5 }) ~num_items:items
      ~rng:(Rng.split rng)
  in
  { cluster; driver = Driver.create cluster ~workload ~rng }

let cluster t = t.cluster

let help_text =
  "commands:\n\
  \  txn <site> <op>...     run a transaction at <site>; ops are rN / wN (e.g. txn 0 r3 w7)\n\
  \  auto <n> [site]        run n random transactions (at <site>, or random operational)\n\
  \  fail <site>            crash a site\n\
  \  recover <site>         bring a site back (control transaction type 1)\n\
  \  terminate <site>       graceful shutdown (Terminating state)\n\
  \  status                 sites, sessions, fail-lock counts, consistency\n\
  \  faillocks <site>       items fail-locked for a site\n\
  \  db <site> [item]       a site's copies (or one item)\n\
  \  trace [n]              last n message-trace lines (default all)\n\
  \  metrics                protocol counters\n\
  \  check                  run the protocol invariants\n\
  \  help | quit"

let describe_outcome outcome =
  if outcome.Metrics.committed then
    Printf.sprintf "T%d committed in %.1f ms (copiers: %d)" outcome.Metrics.txn.Txn.id
      (Raid_net.Vtime.to_ms outcome.Metrics.elapsed)
      outcome.Metrics.copier_requests
  else
    Printf.sprintf "T%d ABORTED (%s)" outcome.Metrics.txn.Txn.id
      (match outcome.Metrics.abort_reason with
      | Some reason -> Format.asprintf "%a" Metrics.pp_abort_reason reason
      | None -> "unknown")

let ( let* ) = Result.bind

(* A malformed token is a usage error; any other refusal says why. *)
let report print ~usage ok = function
  | Ok x -> ok x
  | Error (Operator.Malformed _) -> print ("usage: " ^ usage)
  | Error refusal -> print (Operator.refusal_text refusal)

let interpret t print tokens =
  let c = t.cluster in
  let say fmt = Printf.ksprintf print fmt in
  (* No console line stops the last operational site, so a random
     coordinator always exists. *)
  let auto ?coordinator n =
    for _ = 1 to n do
      print (describe_outcome (Driver.step ?coordinator t.driver))
    done
  in
  let show_db site items =
    let db = Site.database (Cluster.site c site) in
    List.iter
      (fun item ->
        match Database.read db item with
        | Some (value, version) -> say "item %d: value=%d version=%d" item value version
        | None -> say "item %d: (no copy)" item)
      items
  in
  let trace n =
    let all = Timeline.entries c in
    let skip = List.length all - n in
    List.iteri (fun i e -> if i >= skip then print (Timeline.describe_entry e)) all
  in
  match tokens with
  | [] -> ()
  | [ "help" ] -> print help_text
  | "txn" :: site :: (_ :: _ as ops) ->
    report print ~usage:"txn <site> <rN|wN>..."
      (fun outcome -> print (describe_outcome outcome))
      (Operator.txn c site ops)
  | [ "auto"; n ] -> report print ~usage:"auto <n> [site]" auto (Operator.count n)
  | [ "auto"; n; site ] ->
    report print ~usage:"auto <n> [site]"
      (fun (n, coordinator) -> auto ~coordinator n)
      (let* n = Operator.count n in
       Result.map (fun site -> (n, site)) (Operator.coordinator c site))
  | [ "fail"; site ] ->
    report print ~usage:"fail <site>" (say "site %d failed") (Operator.fail c site)
  | [ "recover"; site ] ->
    report print ~usage:"recover <site>"
      (function
        | site, `Recovered -> say "site %d recovered" site
        | site, `Blocked -> say "site %d blocked: no operational donor" site)
      (Operator.recover c site)
  | [ "terminate"; site ] ->
    report print ~usage:"terminate <site>" (say "site %d terminated gracefully")
      (Operator.terminate c site)
  | [ "status" ] ->
    say "%-5s %-8s %-8s %-12s %s" "site" "alive" "session" "state" "locked items";
    Array.iter
      (fun { Cluster.st_id = s; st_alive; st_faillocks; _ } ->
        let site = Cluster.site c s in
        (* A crash freezes the site's own vector, so it cannot say down. *)
        let state =
          if not st_alive then "down"
          else Format.asprintf "%a" Session.pp_state (Session.state (Site.vector site) s)
        in
        say "%-5d %-8b %-8d %-12s %d" s st_alive (Site.session_number site) state st_faillocks)
      (Cluster.status c);
    say "fully consistent: %b" (Cluster.fully_consistent c)
  | [ "faillocks"; site ] ->
    report print ~usage:"faillocks <site>"
      (fun site ->
        say "items fail-locked for site %d: %s" site
          (String.concat ", " (List.map string_of_int (Cluster.faillocks_for c site))))
      (Operator.site_id c site)
  | [ "db"; site ] ->
    report print ~usage:"db <site> [item]"
      (fun site -> show_db site (List.init (Cluster.config c).Config.num_items Fun.id))
      (Operator.site_id c site)
  | [ "db"; site; item ] ->
    report print ~usage:"db <site> [item]"
      (fun (site, item) -> show_db site [ item ])
      (let* site = Operator.site_id c site in
       Result.map (fun item -> (site, item)) (Operator.item_id c item))
  | [ "trace" ] -> trace max_int
  | [ "trace"; n ] -> report print ~usage:"trace [n]" trace (Operator.count n)
  | [ "metrics" ] ->
    List.iter (fun (name, value) -> say "%-28s %d" name value)
      (Metrics.snapshot_counts (Cluster.metrics c))
  | [ "check" ] -> (
    match Raid_core.Invariant.all c with
    | Ok () -> print "all invariants hold"
    | Error message -> say "VIOLATION: %s" message)
  | _ -> print "unknown command; try `help`"

let command t ~print line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [ "quit" ] | [ "exit" ] -> `Quit
  | tokens ->
    interpret t print tokens;
    `Continue

let run_stdin t =
  let print line = print_endline line in
  let rec loop () =
    print_string "raid> ";
    match In_channel.input_line stdin with
    | None -> print "bye"
    | Some line -> ( match command t ~print line with `Continue -> loop () | `Quit -> print "bye")
  in
  loop ()
