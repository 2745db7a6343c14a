module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Database = Raid_storage.Database
module Txn = Raid_core.Txn
module Cost_model = Raid_core.Cost_model

type kind = Strict_rowa | Quorum of { read_quorum : int; write_quorum : int }

let majority ~num_sites =
  let q = (num_sites / 2) + 1 in
  Quorum { read_quorum = q; write_quorum = q }

type outcome = { txn : Txn.t; committed : bool; messages : int; elapsed : Vtime.t }

type msg =
  | Begin of Txn.t
  | Read_req of { txn : int; items : int list }
  | Read_reply of { txn : int; copies : (int * int * int) list }
  | Write_req of { txn : int; writes : Database.write list }
  | Write_ack of { txn : int }

type phase =
  | Reading of { mutable pending : int list; mutable copies : (int * int * int) list }
  | Writing of { mutable pending : int list }

type coord = { txn : Txn.t; started_at : Vtime.t; writes : Database.write list; mutable phase : phase }

type site = {
  id : int;
  db : Database.t;
  view : bool array;  (* which sites this site believes up *)
  mutable coord : coord option;
}

type t = {
  kind : kind;
  cost : Cost_model.t;
  engine : msg Engine.t;
  sites : site array;
  mutable finished : (Txn.t * bool) option;  (* outcome of the txn in flight *)
  mutable finished_at : Vtime.t;
}

let rec create ?(cost = Cost_model.calibrated) kind ~num_sites ~num_items () =
  (match kind with
  | Strict_rowa -> ()
  | Quorum { read_quorum; write_quorum } ->
    if read_quorum <= 0 || write_quorum <= 0 then invalid_arg "Protocol: quorums must be positive";
    if read_quorum > num_sites || write_quorum > num_sites then
      invalid_arg "Protocol: quorum exceeds number of sites";
    if read_quorum + write_quorum <= num_sites then
      invalid_arg "Protocol: need read_quorum + write_quorum > num_sites");
  let engine =
    Engine.create ~message_latency:cost.Cost_model.message_latency ~num_sites ()
  in
  let sites =
    Array.init num_sites (fun id ->
        {
          id;
          db = Database.create ~num_items;
          view = Array.make num_sites true;
          coord = None;
        })
  in
  let t = { kind; cost; engine; sites; finished = None; finished_at = Vtime.zero } in
  Array.iter (fun site -> Engine.register engine site.id (handler t site)) sites;
  t

and handler t site ctx event =
  match event with
  | Engine.Message { src; payload } -> handle_message t site ctx ~src payload
  | Engine.Send_failed { dst = _; payload } -> begin
    (* A target died mid-transaction: abort (baselines get no recovery
       machinery). *)
    match (site.coord, payload) with
    | Some coord, (Read_req _ | Write_req _) -> finish t site ctx coord ~committed:false
    | _ -> ()
  end
  | Engine.Timer _ -> ()

and finish t site ctx coord ~committed =
  site.coord <- None;
  t.finished <- Some (coord.txn, committed);
  t.finished_at <- Vtime.sub (Engine.time ctx) coord.started_at

and up_others site = List.filter (fun s -> s <> site.id && site.view.(s)) (List.init (Array.length site.view) Fun.id)

and up_count site = Array.fold_left (fun acc up -> if up then acc + 1 else acc) 0 site.view

and begin_writes t site ctx coord =
  if coord.writes = [] then finish t site ctx coord ~committed:true
  else begin
    let targets =
      match t.kind with
      | Strict_rowa -> up_others site  (* all sites were verified up *)
      | Quorum { write_quorum; _ } ->
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        take (write_quorum - 1) (up_others site)
    in
    Database.apply_all site.db coord.writes;
    List.iter (fun { Database.item = _; _ } -> Engine.work ctx t.cost.Cost_model.commit_apply_per_write) coord.writes;
    if targets = [] then finish t site ctx coord ~committed:true
    else begin
      coord.phase <- Writing { pending = targets };
      List.iter
        (fun target ->
          Engine.work ctx t.cost.Cost_model.prepare_send;
          Engine.send ctx target (Write_req { txn = coord.txn.Txn.id; writes = coord.writes }))
        targets
    end
  end

and begin_txn t site ctx txn =
  Engine.work ctx t.cost.Cost_model.txn_setup;
  Engine.work ctx (Txn.size txn * t.cost.Cost_model.op_process);
  let writes =
    List.map (fun item -> { Database.item; value = txn.Txn.id; version = txn.Txn.id }) (Txn.write_items txn)
  in
  let coord = { txn; started_at = Engine.time ctx; writes; phase = Reading { pending = []; copies = [] } } in
  site.coord <- Some coord;
  match t.kind with
  | Strict_rowa ->
    (* Reads are local; a write requires every site to be up. *)
    if writes <> [] && up_count site < Array.length site.view then
      (* started_at charged, abort: write-all is blocked. *)
      finish t site ctx coord ~committed:false
    else begin_writes t site ctx coord
  | Quorum { read_quorum; write_quorum } ->
    let n_up = up_count site in
    if (Txn.read_items txn <> [] && n_up < read_quorum)
       || (writes <> [] && n_up < write_quorum)
    then finish t site ctx coord ~committed:false
    else begin
      let read_items = Txn.read_items txn in
      if read_items = [] then begin_writes t site ctx coord
      else begin
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        let targets = take (read_quorum - 1) (up_others site) in
        if targets = [] then begin_writes t site ctx coord
        else begin
          coord.phase <- Reading { pending = targets; copies = [] };
          List.iter
            (fun target ->
              Engine.work ctx t.cost.Cost_model.copier_request_send;
              Engine.send ctx target (Read_req { txn = txn.Txn.id; items = read_items }))
            targets
        end
      end
    end

and handle_message t site ctx ~src payload =
  match payload with
  | Begin txn ->
    (match site.coord with
    | Some _ -> invalid_arg "Protocol: concurrent transactions are not supported"
    | None -> ());
    begin_txn t site ctx txn
  | Read_req { txn; items } ->
    Engine.work ctx t.cost.Cost_model.copier_serve_base;
    let copies =
      List.filter_map
        (fun item ->
          Option.map (fun (value, version) -> (item, value, version)) (Database.read site.db item))
        items
    in
    Engine.send ctx src (Read_reply { txn; copies })
  | Read_reply { txn; copies } -> begin
    match site.coord with
    | Some coord when coord.txn.Txn.id = txn -> begin
      match coord.phase with
      | Reading r ->
        Engine.work ctx t.cost.Cost_model.ack_process;
        r.copies <- copies @ r.copies;
        r.pending <- List.filter (fun s -> s <> src) r.pending;
        if r.pending = [] then begin_writes t site ctx coord
      | Writing _ -> ()
    end
    | _ -> ()
  end
  | Write_req { txn; writes } ->
    Engine.work ctx t.cost.Cost_model.prepare_process;
    (* Quorum members may hold stale copies; never regress a version. *)
    List.iter
      (fun ({ Database.item; version; _ } as write) ->
        match Database.version site.db item with
        | Some v when v >= version -> ()
        | _ -> Database.apply site.db write)
      writes;
    Engine.send ctx src (Write_ack { txn })
  | Write_ack { txn } -> begin
    match site.coord with
    | Some coord when coord.txn.Txn.id = txn -> begin
      match coord.phase with
      | Writing w ->
        Engine.work ctx t.cost.Cost_model.ack_process;
        w.pending <- List.filter (fun s -> s <> src) w.pending;
        if w.pending = [] then finish t site ctx coord ~committed:true
      | Reading _ -> ()
    end
    | _ -> ()
  end


let set_view t =
  Array.iter
    (fun site ->
      if Engine.alive t.engine site.id then
        Array.iteri (fun s _ -> site.view.(s) <- Engine.alive t.engine s) site.view)
    t.sites

let fail_site t i =
  Engine.set_alive t.engine i false;
  t.sites.(i).coord <- None;
  set_view t

let recover_site t i =
  Engine.set_alive t.engine i true;
  set_view t

let submit t ~coordinator txn =
  if not (Engine.alive t.engine coordinator) then
    invalid_arg "Protocol.submit: coordinator is down";
  t.finished <- None;
  let sent_before = (Engine.counters t.engine).Engine.sent in
  Engine.inject t.engine ~dst:coordinator (Begin txn);
  Engine.run t.engine;
  let messages = (Engine.counters t.engine).Engine.sent - sent_before - 1 (* minus injection *) in
  match t.finished with
  | Some (txn, committed) -> { txn; committed; messages; elapsed = t.finished_at }
  | None -> failwith "Protocol.submit: transaction produced no outcome"

let database t i = t.sites.(i).db

