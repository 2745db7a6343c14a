module Vtime = Raid_net.Vtime

type span = {
  name : string;
  site : int;
  started : Vtime.t;
  finished : Vtime.t;
  ended_by : int option;
  children : span list;
}

type tree = {
  txn : int;
  coordinator : int;
  committed : bool;
  reason : string option;
  reads : int;
  writes : int;
  complete : bool;
  root : span;
}

type step = {
  step_name : string;
  step_site : int;
  step_from : Vtime.t;
  step_until : Vtime.t;
  step_note : string;
}

let latency tree = Vtime.sub tree.root.finished tree.root.started

(* {2 Assembly}

   One pass bucketing the stream by transaction id, then a per-txn
   build.  Drops from the ring collector only ever remove the oldest
   prefix of the stream, so a tree whose [Txn_begin] (its earliest
   event) survived is structurally complete once its terminal arrives;
   a tree missing either end is flagged.  The events that end a span
   keep their stream position for [ended_by]. *)

type collect = {
  mutable c_begin : (int * Vtime.t * int * int) option;  (* site, at, reads, writes *)
  mutable c_phases : (Trace.phase * Vtime.t * int) list;  (* at, position; reversed *)
  mutable c_terminal : (Vtime.t * int * bool * string option) option;  (* at, position *)
  mutable c_requests : (int * Vtime.t) list;  (* source, at; reversed *)
  mutable c_replies : (int * Vtime.t * int) list;  (* source, at, position; reversed *)
  mutable c_prepare_sent : Vtime.t option;
  mutable c_votes : (int * Vtime.t * int) list;  (* participant, at, position; reversed *)
  mutable c_first : Vtime.t;
  mutable c_last : Vtime.t;
}

let assemble entries =
  let table : (int, collect) Hashtbl.t = Hashtbl.create 64 in
  let get txn at =
    match Hashtbl.find_opt table txn with
    | Some c ->
      c.c_last <- at;
      c
    | None ->
      let c =
        {
          c_begin = None;
          c_phases = [];
          c_terminal = None;
          c_requests = [];
          c_replies = [];
          c_prepare_sent = None;
          c_votes = [];
          c_first = at;
          c_last = at;
        }
      in
      Hashtbl.replace table txn c;
      c
  in
  List.iteri
    (fun position ({ at; site; event } : Trace.entry) ->
      match event with
      | Trace.Txn_begin { txn; reads; writes } ->
        (get txn at).c_begin <- Some (site, at, reads, writes)
      | Trace.Phase_enter { txn; phase } ->
        let c = get txn at in
        c.c_phases <- (phase, at, position) :: c.c_phases
      | Trace.Txn_commit { txn } -> (get txn at).c_terminal <- Some (at, position, true, None)
      | Trace.Txn_abort { txn; reason } ->
        (get txn at).c_terminal <- Some (at, position, false, Some reason)
      | Trace.Copier_request { txn; source; _ } when txn >= 0 ->
        let c = get txn at in
        c.c_requests <- (source, at) :: c.c_requests
      | Trace.Copier_reply { txn; source; _ } when txn >= 0 ->
        let c = get txn at in
        c.c_replies <- (source, at, position) :: c.c_replies
      | Trace.Prepare_sent { txn; _ } -> (get txn at).c_prepare_sent <- Some at
      | Trace.Vote { txn; participant } ->
        let c = get txn at in
        c.c_votes <- (participant, at, position) :: c.c_votes
      | _ -> ())
    entries;
  let build txn (c : collect) =
    let coordinator, started, reads, writes =
      match c.c_begin with
      | Some (site, at, reads, writes) -> (site, at, reads, writes)
      | None -> (-1, c.c_first, 0, 0)
    in
    let finished, ended_by, committed, reason =
      match c.c_terminal with
      | Some (at, position, committed, reason) -> (at, Some position, committed, reason)
      | None -> (c.c_last, None, false, None)
    in
    (* Phase windows tile [started, finished]: the pre-copy window
       ("begin": reads, lock checks, local setup) runs to the first
       recorded phase; each phase runs to the next. *)
    let boundaries =
      ("begin", started, None)
      :: List.rev_map (fun (p, at, position) -> (Trace.phase_name p, at, Some position)) c.c_phases
    in
    let rec windows = function
      | [] -> []
      | (name, from_, _) :: rest ->
        let until, ended_by =
          match rest with (_, next, position) :: _ -> (next, position) | [] -> (finished, ended_by)
        in
        { name; site = coordinator; started = from_; finished = until; ended_by; children = [] }
        :: windows rest
    in
    (* Request -> reply pairing is FIFO per source (the protocol answers
       a source's requests in order). *)
    let fetches =
      let pending : (int, Vtime.t Queue.t) Hashtbl.t = Hashtbl.create 4 in
      let spans = ref [] in
      List.iter
        (fun (source, at) ->
          let q =
            match Hashtbl.find_opt pending source with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.replace pending source q;
              q
          in
          Queue.add at q)
        (List.rev c.c_requests);
      List.iter
        (fun (source, at, position) ->
          match Hashtbl.find_opt pending source with
          | Some q when not (Queue.is_empty q) ->
            let from_ = Queue.pop q in
            spans :=
              {
                name = Printf.sprintf "fetch <- site %d" source;
                site = source;
                started = from_;
                finished = at;
                ended_by = Some position;
                children = [];
              }
              :: !spans
          | _ -> ())
        (List.rev c.c_replies);
      (* Requests never answered (source died, txn aborted) stay open to
         the end of the transaction. *)
      Hashtbl.fold
        (fun source q acc ->
          Queue.fold
            (fun acc from_ ->
              {
                name = Printf.sprintf "fetch <- site %d (unanswered)" source;
                site = source;
                started = from_;
                finished;
                ended_by = None;
                children = [];
              }
              :: acc)
            acc q)
        pending []
      @ !spans
      |> List.sort (fun a b -> compare (a.started, a.site) (b.started, b.site))
    in
    let votes =
      List.rev_map
        (fun (participant, at, position) ->
          {
            name = Printf.sprintf "vote site %d" participant;
            site = participant;
            started = Option.value ~default:at c.c_prepare_sent;
            finished = at;
            ended_by = Some position;
            children = [];
          })
        c.c_votes
      |> List.sort (fun a b -> compare (a.finished, a.site) (b.finished, b.site))
    in
    (* Bucket sub-spans into the phase window containing their start. *)
    let within window child =
      child.started >= window.started
      && (child.started < window.finished || window.started = window.finished)
    in
    let phase_spans =
      List.map
        (fun window ->
          match window.name with
          | "copy" -> { window with children = List.filter (within window) fetches }
          | "prepare" -> { window with children = List.filter (within window) votes }
          | _ -> window)
        (windows boundaries)
    in
    {
      txn;
      coordinator;
      committed;
      reason;
      reads;
      writes;
      complete = c.c_begin <> None && c.c_terminal <> None;
      root =
        {
          name = Printf.sprintf "T%d" txn;
          site = coordinator;
          started;
          finished;
          ended_by;
          children = phase_spans;
        };
    }
  in
  Hashtbl.fold (fun txn c trees -> if txn < 0 then trees else build txn c :: trees) table []
  |> List.sort (fun a b -> compare a.txn b.txn)

let find trees txn = List.find_opt (fun t -> t.txn = txn) trees

let slowest trees =
  let pick candidates =
    List.fold_left
      (fun best t ->
        match best with
        | Some b when latency b >= latency t -> best
        | _ -> Some t)
      None candidates
  in
  match pick (List.filter (fun t -> t.committed && t.complete) trees) with
  | Some t -> Some t
  | None -> pick trees

(* {2 Critical path}

   The phase windows tile the root span, so walking them in order and
   blaming each on its slowest child yields a path whose step durations
   sum exactly to the transaction's end-to-end latency. *)

let critical_path tree =
  let slowest_child children =
    List.fold_left
      (fun best c ->
        match best with
        | Some b when b.finished >= c.finished -> best
        | _ -> Some c)
      None children
  in
  List.map
    (fun phase ->
      let site, note =
        match phase.name with
        | "copy" -> (
          match slowest_child phase.children with
          | Some fetch ->
            ( fetch.site,
              Printf.sprintf "slowest fetch: site %d (%.2f ms)" fetch.site
                (Vtime.to_ms (Vtime.sub fetch.finished fetch.started)) )
          | None -> (phase.site, "no copier traffic"))
        | "prepare" -> (
          match slowest_child phase.children with
          | Some vote ->
            ( vote.site,
              Printf.sprintf "last vote: site %d (%.2f ms after prepare)" vote.site
                (Vtime.to_ms (Vtime.sub vote.finished vote.started)) )
          | None -> (phase.site, "no votes recorded"))
        | "commit" -> (phase.site, "decide + local commit")
        | _ -> (phase.site, "local reads, lock checks, setup")
      in
      {
        step_name = phase.name;
        step_site = site;
        step_from = phase.started;
        step_until = phase.finished;
        step_note = note;
      })
    tree.root.children

(* {2 Rendering} *)

let rec span_json span =
  Json.Obj
    [
      ("name", Json.Str span.name);
      ("site", Json.Int span.site);
      ("from_ms", Json.Float (Vtime.to_ms span.started));
      ("until_ms", Json.Float (Vtime.to_ms span.finished));
      ("duration_ms", Json.Float (Vtime.to_ms (Vtime.sub span.finished span.started)));
      ("children", Json.Arr (List.map span_json span.children));
    ]

let json tree =
  Json.Obj
    [
      ("txn", Json.Int tree.txn);
      ("coordinator", Json.Int tree.coordinator);
      ("outcome", Json.Str (if tree.committed then "commit" else "abort"));
      ("reason", match tree.reason with None -> Json.Null | Some r -> Json.Str r);
      ("complete", Json.Bool tree.complete);
      ("reads", Json.Int tree.reads);
      ("writes", Json.Int tree.writes);
      ("latency_ms", Json.Float (Vtime.to_ms (latency tree)));
      ("span", span_json tree.root);
      ( "critical_path",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("step", Json.Str s.step_name);
                   ("site", Json.Int s.step_site);
                   ("duration_ms", Json.Float (Vtime.to_ms (Vtime.sub s.step_until s.step_from)));
                   ("note", Json.Str s.step_note);
                 ])
             (critical_path tree)) );
    ]

let render tree =
  let buffer = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  out "txn %d (coordinator site %d): %s, %d reads / %d writes, %.2f ms%s\n" tree.txn
    tree.coordinator
    (match (tree.committed, tree.reason) with
    | true, _ -> "committed"
    | false, Some reason -> "aborted: " ^ reason
    | false, None -> "unterminated")
    tree.reads tree.writes
    (Vtime.to_ms (latency tree))
    (if tree.complete then "" else " [INCOMPLETE TREE: events missing from the ring]");
  out "\nspan tree:\n";
  let rec walk indent span =
    out "%s%-24s site %-3d [%9.2f .. %9.2f]  %8.2f ms\n" indent span.name span.site
      (Vtime.to_ms span.started) (Vtime.to_ms span.finished)
      (Vtime.to_ms (Vtime.sub span.finished span.started));
    List.iter (walk (indent ^ "  ")) span.children
  in
  walk "  " tree.root;
  out "\ncritical path:\n";
  let total = ref Vtime.zero in
  List.iter
    (fun s ->
      let d = Vtime.sub s.step_until s.step_from in
      total := Vtime.add !total d;
      out "  %-8s %8.2f ms  site %-3d  %s\n" s.step_name (Vtime.to_ms d) s.step_site s.step_note)
    (critical_path tree);
  out "  %-8s %8.2f ms  (= end-to-end transaction latency)\n" "total" (Vtime.to_ms !total);
  Buffer.contents buffer
