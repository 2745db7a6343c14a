module Vtime = Raid_net.Vtime

let event_fields : Trace.event -> (string * Json.t) list = function
  | Txn_begin { txn; reads; writes } ->
    [ ("txn", Json.Int txn); ("reads", Json.Int reads); ("writes", Json.Int writes) ]
  | Txn_read { txn; item; remote } ->
    [ ("txn", Json.Int txn); ("item", Json.Int item); ("remote", Json.Bool remote) ]
  | Txn_write { txn; item } -> [ ("txn", Json.Int txn); ("item", Json.Int item) ]
  | Txn_commit { txn } -> [ ("txn", Json.Int txn) ]
  | Txn_abort { txn; reason } -> [ ("txn", Json.Int txn); ("reason", Json.Str reason) ]
  | Phase_enter { txn; phase } ->
    [ ("txn", Json.Int txn); ("phase", Json.Str (Trace.phase_name phase)) ]
  | Prepare_sent { txn; participants } ->
    [ ("txn", Json.Int txn); ("participants", Json.Int participants) ]
  | Vote { txn; participant } ->
    [ ("txn", Json.Int txn); ("participant", Json.Int participant) ]
  | Decide { txn; commit } -> [ ("txn", Json.Int txn); ("commit", Json.Bool commit) ]
  | Faillock_set { item; for_site; txn } ->
    (* The causing-txn field is optional so pre-attribution consumers of
       the JSONL wire shape keep parsing unchanged. *)
    ("item", Json.Int item) :: ("for_site", Json.Int for_site)
    :: (match txn with None -> [] | Some id -> [ ("txn", Json.Int id) ])
  | Faillock_cleared { item; for_site; txn } ->
    ("item", Json.Int item) :: ("for_site", Json.Int for_site)
    :: (match txn with None -> [] | Some id -> [ ("txn", Json.Int id) ])
  | Session_change { about; session; state } ->
    [ ("about", Json.Int about); ("session", Json.Int session); ("state", Json.Str state) ]
  | Site_failed -> []
  | Recovery_step { step } ->
    ("step", Json.Str (Trace.recovery_step_name step))
    :: (match step with
       | Trace.Wal_replayed entries -> [ ("entries", Json.Int entries) ]
       | Trace.Announced session -> [ ("session", Json.Int session) ]
       | Trace.Recover_command | Trace.State_installed -> [])
  | Control { kind; detail } ->
    [ ("control", Json.Str (Trace.control_kind_name kind)); ("detail", Json.Str detail) ]
  | Copier_request { txn; source; items } ->
    [ ("txn", Json.Int txn); ("source", Json.Int source); ("items", Json.Int items) ]
  | Copier_reply { txn; source; items } ->
    [ ("txn", Json.Int txn); ("source", Json.Int source); ("items", Json.Int items) ]
  | Message { src; dst; delivered; label } ->
    [
      ("src", Json.Int src);
      ("dst", Json.Int dst);
      ("delivered", Json.Bool delivered);
      ("label", Json.Str label);
    ]

let entry_json ({ at; site; event } : Trace.entry) =
  Json.Obj
    (("ts_us", Json.Int (Vtime.to_us at))
    :: ("site", Json.Int site)
    :: ("kind", Json.Str (Trace.kind event))
    :: event_fields event)

let jsonl trace =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun entry ->
      Buffer.add_string buffer (Json.to_string (entry_json entry));
      Buffer.add_char buffer '\n')
    (Trace.entries trace);
  Buffer.contents buffer

(* {2 Chrome trace-event export} *)

let complete ~name ~cat ~tid ~ts ~dur args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str "X");
      ("ts", Json.Int ts);
      ("dur", Json.Int dur);
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let instant ~name ~cat ~tid ~ts args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("ts", Json.Int ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let metadata ~name ~tid args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let chrome ~num_sites trace =
  let entries = Trace.entries trace in
  let events = ref [] in
  let push event = events := event :: !events in
  push (metadata ~name:"process_name" ~tid:0 [ ("name", Json.Str "raid cluster") ]);
  for site = 0 to num_sites - 1 do
    push
      (metadata ~name:"thread_name" ~tid:site
         [ ("name", Json.Str (Printf.sprintf "site %d" site)) ])
  done;
  let bar ~name ~cat ~tid (span : Span.span) args =
    complete ~name ~cat ~tid ~ts:(Vtime.to_us span.started)
      ~dur:(Vtime.to_us (Vtime.sub span.finished span.started))
      args
  in
  (* A transaction's bar, then its phase windows except the pre-copy
     "begin" one. *)
  let transaction ~tid ~txn (root : Span.span) outcome =
    push (bar ~name:root.name ~cat:"txn" ~tid root (("txn", Json.Int txn) :: outcome));
    List.iter
      (fun (phase : Span.span) ->
        if phase.name <> "begin" then
          push (bar ~name:phase.name ~cat:"2pc" ~tid phase [ ("txn", Json.Int txn) ]))
      root.children
  in
  (* The bars, by the stream position of the entry that ends them: each
     complete transaction's root (its phase windows ride along) and
     every answered vote and fetch.  Each entry ends at most one. *)
  let ends =
    ref
      (Span.assemble entries
      |> List.concat_map (fun (tree : Span.tree) ->
             (if tree.complete then [ tree.root ] else [])
             @ List.concat_map (fun (phase : Span.span) -> phase.children) tree.root.children)
      |> List.filter_map (fun (span : Span.span) ->
             Option.map (fun position -> (position, span)) span.ended_by)
      |> List.sort (fun (a, _) (b, _) -> compare a b))
  in
  List.iteri
    (fun position ({ at; site; event } : Trace.entry) ->
      let ended =
        match !ends with
        | (p, span) :: rest when p = position ->
          ends := rest;
          Some span
        | _ -> None
      in
      let point ?(cat = Trace.kind event) name =
        push (instant ~name ~cat ~tid:site ~ts:(Vtime.to_us at) (event_fields event))
      in
      match (event, ended) with
      | Txn_commit { txn }, Some root ->
        transaction ~tid:site ~txn root [ ("outcome", Json.Str "commit") ]
      | Txn_abort { txn; reason }, Some root ->
        transaction ~tid:site ~txn root
          [ ("outcome", Json.Str "abort"); ("reason", Json.Str reason) ]
      | Vote { txn; _ }, Some vote ->
        push (bar ~name:(Printf.sprintf "vote T%d" txn) ~cat:"vote" ~tid:site vote
                (event_fields event))
      | Copier_reply { txn; source; _ }, Some fetch ->
        push
          (bar ~name:(Printf.sprintf "fetch T%d <- site %d" txn source) ~cat:"copier" ~tid:site
             fetch (event_fields event))
      | Txn_begin { txn; _ }, _ -> point ~cat:"txn" (Printf.sprintf "begin T%d" txn)
      | ( ( Txn_commit _ | Txn_abort _ | Phase_enter _ | Txn_read _ | Txn_write _
          | Copier_request _ | Message _ ),
          _ ) ->
        ()
      | Control { kind; _ }, _ -> point (Trace.control_kind_name kind)
      | _ -> point (Trace.kind event))
    entries;
  (* Recovery incidents render as one enclosing bar per failure episode
     with its exact phase decomposition nested inside. *)
  List.iter
    (fun (incident : Incident.t) ->
      push
        (complete
           ~name:(Printf.sprintf "incident site %d #%d" incident.Incident.site
                    incident.Incident.episode)
           ~cat:"incident" ~tid:incident.Incident.site
           ~ts:(Vtime.to_us incident.Incident.started)
           ~dur:(Vtime.to_us (Vtime.sub incident.Incident.finished incident.Incident.started))
           [ ("complete", Json.Bool incident.Incident.complete) ]);
      List.iter
        (fun (phase, from_, until) ->
          push
            (complete ~name:(Incident.phase_name phase) ~cat:"recovery"
               ~tid:incident.Incident.site ~ts:(Vtime.to_us from_)
               ~dur:(Vtime.to_us (Vtime.sub until from_))
               [ ("site", Json.Int incident.Incident.site) ]))
        incident.Incident.phases)
    (Incident.assemble entries);
  (* Message arrivals come last, in arrival order. *)
  List.iter
    (fun ({ at; event; _ } : Trace.entry) ->
      match event with
      | Message { src; dst; delivered; label } ->
        push
          (instant
             ~name:(if delivered then label else "undeliverable: " ^ label)
             ~cat:"msg" ~tid:dst ~ts:(Vtime.to_us at)
             [
               ("src", Json.Int src); ("dst", Json.Int dst); ("delivered", Json.Bool delivered);
             ])
      | _ -> ())
    entries;
  Json.to_string ~indent:true (Json.Obj [ ("traceEvents", Json.Arr (List.rev !events)) ])
