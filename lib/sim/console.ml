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

(* Ids and counts are ASCII digits only, as in the HTTP API's paths:
   [int_of_string_opt] alone would also take "0x1", "0b10", "1_0" or
   "-0" and name a real site. *)
let int_of_digits s = if Raid_obs.Http.is_digits s then int_of_string_opt s else None

let parse_op token =
  if String.length token < 2 then None
  else
    match (token.[0], int_of_digits (String.sub token 1 (String.length token - 1))) with
    | 'r', Some item -> Some (Txn.Read item)
    | 'w', Some item -> Some (Txn.Write item)
    | _ -> None

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

let status t print =
  print (Printf.sprintf "%-5s %-8s %-8s %-12s %s" "site" "alive" "session" "state" "locked items");
  for s = 0 to Cluster.num_sites t.cluster - 1 do
    let site = Cluster.site t.cluster s in
    print
      (Printf.sprintf "%-5d %-8b %-8d %-12s %d" s (Cluster.alive t.cluster s)
         (Site.session_number site)
         (Format.asprintf "%a" Session.pp_state (Session.state (Site.vector site) s))
         (Cluster.faillock_count_for t.cluster s))
  done;
  print (Printf.sprintf "fully consistent: %b" (Cluster.fully_consistent t.cluster))

let submit t print ~coordinator ops =
  let id = Cluster.next_txn_id t.cluster in
  print (describe_outcome (Cluster.submit t.cluster ~coordinator (Txn.make ~id ops)))

(* Stops at the first transaction that finds no operational site:
   repeating the attempt could not change the answer. *)
let auto t print n coordinator =
  let rec loop n =
    if n > 0 then
      if Cluster.operational t.cluster = [] then print "no operational site"
      else begin
        print (describe_outcome (Driver.step ?coordinator t.driver));
        loop (n - 1)
      end
  in
  loop n

let show_db t print site item =
  let db = Site.database (Cluster.site t.cluster site) in
  let show_item item =
    match Database.read db item with
    | Some (value, version) ->
      print (Printf.sprintf "item %d: value=%d version=%d" item value version)
    | None -> print (Printf.sprintf "item %d: (no copy)" item)
  in
  match item with
  | Some item -> show_item item
  | None ->
    for item = 0 to Database.num_items db - 1 do
      show_item item
    done

let interpret t print line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [] -> `Continue
  | [ "help" ] ->
    print help_text;
    `Continue
  | "txn" :: coordinator :: ops ->
    (match (int_of_digits coordinator, List.map parse_op ops) with
    | Some coordinator, parsed when parsed <> [] && List.for_all Option.is_some parsed ->
      submit t print ~coordinator (List.map Option.get parsed)
    | _ -> print "usage: txn <site> <rN|wN>...");
    `Continue
  | [ "auto"; n ] ->
    (match int_of_digits n with
    | Some n -> auto t print n None
    | None -> print "usage: auto <n> [site]");
    `Continue
  | [ "auto"; n; site ] ->
    (match (int_of_digits n, int_of_digits site) with
    | Some n, Some site -> auto t print n (Some site)
    | _ -> print "usage: auto <n> [site]");
    `Continue
  | [ "fail"; site ] ->
    (match int_of_digits site with
    | Some site when Cluster.alive t.cluster site ->
      Cluster.fail_site t.cluster site;
      print (Printf.sprintf "site %d failed" site)
    | Some site -> print (Printf.sprintf "site %d is already down" site)
    | None -> print "usage: fail <site>");
    `Continue
  | [ "recover"; site ] ->
    (match int_of_digits site with
    | Some site -> (
      match Cluster.recover_site t.cluster site with
      | `Recovered -> print (Printf.sprintf "site %d recovered" site)
      | `Blocked -> print (Printf.sprintf "site %d blocked: no operational donor" site))
    | None -> print "usage: recover <site>");
    `Continue
  | [ "terminate"; site ] ->
    (match int_of_digits site with
    | Some site ->
      Cluster.terminate_site t.cluster site;
      print (Printf.sprintf "site %d terminated gracefully" site)
    | None -> print "usage: terminate <site>");
    `Continue
  | [ "status" ] ->
    status t print;
    `Continue
  | [ "faillocks"; site ] ->
    (match int_of_digits site with
    | Some site ->
      print
        (Printf.sprintf "items fail-locked for site %d: %s" site
           (String.concat ", " (List.map string_of_int (Cluster.faillocks_for t.cluster site))))
    | None -> print "usage: faillocks <site>");
    `Continue
  | "db" :: site :: rest ->
    (match (int_of_digits site, rest) with
    | Some site, [] -> show_db t print site None
    | Some site, [ item ] -> show_db t print site (int_of_digits item)
    | _ -> print "usage: db <site> [item]");
    `Continue
  | [ "trace" ] ->
    List.iter (fun e -> print (Timeline.describe_entry e)) (Timeline.entries t.cluster);
    `Continue
  | [ "trace"; n ] ->
    (match int_of_digits n with
    | Some n ->
      let all = Timeline.entries t.cluster in
      let skip = max 0 (List.length all - n) in
      List.iteri (fun i e -> if i >= skip then print (Timeline.describe_entry e)) all
    | None -> print "usage: trace [n]");
    `Continue
  | [ "metrics" ] ->
    List.iter
      (fun (name, value) -> print (Printf.sprintf "%-28s %d" name value))
      (Metrics.snapshot_counts (Cluster.metrics t.cluster));
    `Continue
  | [ "check" ] ->
    (match Raid_core.Invariant.all t.cluster with
    | Ok () -> print "all invariants hold"
    | Error message -> print (Printf.sprintf "VIOLATION: %s" message));
    `Continue
  | [ "quit" ] | [ "exit" ] -> `Quit
  | _ ->
    print "unknown command; try `help`";
    `Continue

let command t ~print line =
  try interpret t print line
  with Invalid_argument message ->
    print (Printf.sprintf "error: %s" message);
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
