type 'm event =
  | Message of { src : int; payload : 'm }
  | Send_failed of { dst : int; payload : 'm }
  | Timer of 'm

type trace_outcome = Delivered | Undeliverable

type 'm trace_entry = {
  trace_time : Vtime.t;
  trace_src : int;
  trace_dst : int;
  trace_payload : 'm;
  trace_outcome : trace_outcome;
}

type counters = {
  sent : int;
  delivered : int;
  undeliverable : int;
  timer_fired : int;
  timer_discarded : int;
}

type 'm probe = {
  on_event : at:Vtime.t -> 'm event -> cost:Vtime.t -> unit;
  on_advance : at:Vtime.t -> unit;
}

(* Hot-path accounting: updated in place on every event.  The public
   [counters] record above stays immutable; [counters t] takes a
   snapshot copy.  Rebuilding a five-field record per delivered message
   (the previous representation) was the engine's dominant per-event
   allocation. *)
type live_counters = {
  mutable live_sent : int;
  mutable live_delivered : int;
  mutable live_undeliverable : int;
  mutable live_timer_fired : int;
  mutable live_timer_discarded : int;
}

(* The event pool.  Every scheduled event sits in one slot of a set of
   parallel arrays until [step] takes it out; the queue orders slot
   numbers only.  A slot holds the ['m event] a handler will receive,
   the site it is for ([dsts]: the receiver of a [Message] or [Timer],
   the sender of a [Send_failed]) and, for a message, its send time.
   What [step] does with a slot is read off its event: a [Message] is an
   arrival whose deliverability is evaluated at arrival time and whose
   send time fixes when a failed delivery is notified, whatever the
   link's latency; a [Send_failed] is the sender-side timeout; a [Timer]
   is a local timer.

   A free slot must not keep a delivered event (and its payload)
   reachable, so it is overwritten with [filler], one fixed value of
   type ['m event].  Without [Obj.magic] no such value exists before the
   first event does, so the filler is the first event the engine ever
   schedules: the pool retains that one event for the engine's life and
   no other.  A slot freed by [step] is reset once the event's handler
   has run, unless the handler's first send or timer already took it
   over. *)
type 'm t = {
  num_sites : int;
  message_latency : Vtime.t;
  failure_timeout : Vtime.t;
  queue : Heap.Prio.t;
  mutable dsts : int array;
  mutable sents : Vtime.t array;
  mutable events : 'm event array;
  mutable free : int array;  (* free-slot stack: [free.(0 .. free_top - 1)] *)
  mutable free_top : int;
  mutable filler : 'm event option;  (* the first event scheduled *)
  mutable last_src : int;  (* source of the latest message submitted, or [no_source] *)
  mutable last_slot : int;  (* the slot it was scheduled in *)
  alive : bool array;
  links : bool array;  (* n×n: [links.(a * num_sites + b)], the a-b link is up *)
  latencies : Vtime.t array;  (* per-link one-way latency, indexed like [links] *)
  mutable clock : Vtime.t;
  mutable seq : int;
  live : live_counters;
  trace_enabled : bool;
  mutable trace_rev : 'm trace_entry list;
  mutable ctxs : 'm ctx array;  (* per-site handler and scratch, reset on each invoke *)
  mutable probe : 'm probe option;
  mutable heap_high_water : int;
}

and 'm handler = 'm ctx -> 'm event -> unit

and 'm ctx = {
  engine : 'm t;
  ctx_self : int;
  mutable handler : 'm handler;
  mutable base : Vtime.t;
  mutable elapsed : Vtime.t;
}

let external_source = -1
let no_source = min_int

let unregistered ctx _ =
  failwith (Printf.sprintf "Engine: no handler registered for site %d" ctx.ctx_self)

let create ?(message_latency = Vtime.of_ms 9) ?failure_timeout ?(trace = false) ~num_sites () =
  if num_sites <= 0 then invalid_arg "Engine.create: num_sites must be positive";
  if message_latency < 0 then invalid_arg "Engine.create: negative latency";
  let failure_timeout =
    match failure_timeout with Some t -> t | None -> 3 * message_latency
  in
  if failure_timeout < message_latency then
    invalid_arg "Engine.create: failure_timeout below message_latency";
  let t =
    {
      num_sites;
      message_latency;
      failure_timeout;
      queue = Heap.Prio.create ();
      dsts = [||];
      sents = [||];
      events = [||];
      free = [||];
      free_top = 0;
      filler = None;
      last_src = no_source;
      last_slot = 0;
      alive = Array.make num_sites true;
      links = Array.make (num_sites * num_sites) true;
      latencies = Array.make (num_sites * num_sites) message_latency;
      clock = Vtime.zero;
      seq = 0;
      live =
        {
          live_sent = 0;
          live_delivered = 0;
          live_undeliverable = 0;
          live_timer_fired = 0;
          live_timer_discarded = 0;
        };
      trace_enabled = trace;
      trace_rev = [];
      ctxs = [||];
      probe = None;
      heap_high_water = 0;
    }
  in
  t.ctxs <-
    Array.init num_sites (fun i ->
        {
          engine = t;
          ctx_self = i;
          handler = unregistered;
          base = Vtime.zero;
          elapsed = Vtime.zero;
        });
  t

let register t site handler =
  if site < 0 || site >= t.num_sites then invalid_arg "Engine.register: bad site id";
  t.ctxs.(site).handler <- handler

let num_sites t = t.num_sites
let now t = t.clock
let message_latency t = t.message_latency

let check_site t site =
  if site < 0 || site >= t.num_sites then invalid_arg "Engine: bad site id"

(* Index of the a-b link in [links] and [latencies]. *)
let link t a b = (a * t.num_sites) + b

let set_alive t site up =
  check_site t site;
  t.alive.(site) <- up

let alive t site =
  check_site t site;
  t.alive.(site)

let set_link t a b ok =
  check_site t a;
  check_site t b;
  t.links.(link t a b) <- ok;
  t.links.(link t b a) <- ok

let link_ok t a b =
  check_site t a;
  check_site t b;
  a = b || t.links.(link t a b)

let set_link_latency t a b latency =
  check_site t a;
  check_site t b;
  if latency < 0 then invalid_arg "Engine.set_link_latency: negative latency";
  t.latencies.(link t a b) <- latency;
  t.latencies.(link t b a) <- latency

let link_latency t a b =
  check_site t a;
  check_site t b;
  t.latencies.(link t a b)

let set_probe t probe = t.probe <- probe
let heap_high_water t = t.heap_high_water

(* Double the pool when every slot is in use.  The pool never holds
   more slots than the queue's high water mark, rounded up to a power
   of two. *)
let grow_pool t event =
  let filler =
    match t.filler with
    | Some filler -> filler
    | None ->
      t.filler <- Some event;
      event
  in
  let used = Array.length t.events in
  let capacity = max 16 (2 * used) in
  let extend a filler =
    let b = Array.make capacity filler in
    Array.blit a 0 b 0 used;
    b
  in
  t.dsts <- extend t.dsts 0;
  t.sents <- extend t.sents Vtime.zero;
  t.events <- extend t.events filler;
  t.free <- Array.init capacity (fun i -> capacity - 1 - i);
  t.free_top <- capacity - used

let take_slot t event =
  if t.free_top = 0 then grow_pool t event;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

(* Schedule [event] in a free slot; returns the slot. *)
let schedule t at ~dst ~sent event =
  let at = max at t.clock in
  let slot = take_slot t event in
  t.dsts.(slot) <- dst;
  t.sents.(slot) <- sent;
  t.events.(slot) <- event;
  Heap.Prio.push t.queue ~at ~seq:t.seq slot;
  t.seq <- t.seq + 1;
  let depth = Heap.Prio.size t.queue in
  if depth > t.heap_high_water then t.heap_high_water <- depth;
  slot

let record_trace t ~time ~src ~dst ~payload ~outcome =
  if t.trace_enabled then
    t.trace_rev <-
      { trace_time = time; trace_src = src; trace_dst = dst; trace_payload = payload;
        trace_outcome = outcome }
      :: t.trace_rev

(* The [Message] event for [payload] from [src].  A fan-out sends one
   payload to many sites in a row, so when the same source sends the
   same (physically equal) payload as its previous message, that
   message's event is reused: one event per fan-out, not one per
   recipient.  The previous event is found through its slot, so the
   engine keeps no pointer to it; the slot may since have been freed or
   reused, and then holds some other event, which the match rejects.
   Events are immutable, so sharing one is invisible to handlers. *)
let message t ~src payload =
  if src = t.last_src then
    match t.events.(t.last_slot) with
    | Message m as last when m.src = src && m.payload == payload -> last
    | Message _ | Send_failed _ | Timer _ -> Message { src; payload }
  else Message { src; payload }

let submit t ~at ~src ~dst payload =
  check_site t dst;
  t.live.live_sent <- t.live.live_sent + 1;
  let latency = if src >= 0 then t.latencies.(link t src dst) else t.message_latency in
  let event = message t ~src payload in
  t.last_slot <- schedule t (Vtime.add at latency) ~dst ~sent:at event;
  t.last_src <- src

let inject t ~dst payload = submit t ~at:t.clock ~src:external_source ~dst payload

let self ctx = ctx.ctx_self
let time ctx = Vtime.add ctx.base ctx.elapsed

let work ctx cost =
  if cost < 0 then invalid_arg "Engine.work: negative cost";
  ctx.elapsed <- Vtime.add ctx.elapsed cost

let send ctx dst payload = submit ctx.engine ~at:(time ctx) ~src:ctx.ctx_self ~dst payload

let set_timer ctx delay payload =
  if delay < 0 then invalid_arg "Engine.set_timer: negative delay";
  ignore
    (schedule ctx.engine (Vtime.add (time ctx) delay) ~dst:ctx.ctx_self ~sent:Vtime.zero
       (Timer payload))

(* Handlers run one at a time (only [step] invokes them, and sends/timers
   merely schedule), so each site's scratch [ctx] can be reset and reused
   instead of allocating a fresh one per event; it carries the site's
   handler, so a delivery reads one record.  Every site id in the queue
   was checked when it was scheduled ([submit] checks [dst]; [src] and
   timer owners are handler contexts). *)
let invoke t ctx event =
  ctx.base <- t.clock;
  ctx.elapsed <- Vtime.zero;
  ctx.handler ctx event;
  (* After the handler returns, [ctx.elapsed] is the total virtual
     cost it accumulated through [work] — the per-event profile. *)
  match t.probe with
  | None -> ()
  | Some probe -> probe.on_event ~at:t.clock event ~cost:ctx.elapsed

let deliverable t ~src ~dst =
  t.alive.(dst) && (src < 0 || src = dst || t.links.(link t src dst))

let release t slot =
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* After [slot]'s event was handled: reset the slot to the filler unless
   a send or timer took it over (it is the top of the free stack until
   the next [take_slot]).  Most handlers send, so this skips most
   writes, each of which runs the write barrier. *)
let clear_if_free t slot =
  if t.free_top > 0 && t.free.(t.free_top - 1) = slot then
    match t.filler with Some filler -> t.events.(slot) <- filler | None -> ()

let step t =
  if Heap.Prio.is_empty t.queue then false
  else begin
    let at = Heap.Prio.min_at t.queue in
    let slot = Heap.Prio.pop_min t.queue in
    let dst = t.dsts.(slot) and sent = t.sents.(slot) in
    let event = t.events.(slot) in
    release t slot;
    t.clock <- at;
    (match event with
    | Message { src; payload } ->
      if deliverable t ~src ~dst then begin
        t.live.live_delivered <- t.live.live_delivered + 1;
        record_trace t ~time:at ~src ~dst ~payload ~outcome:Delivered;
        invoke t t.ctxs.(dst) event
      end
      else begin
        t.live.live_undeliverable <- t.live.live_undeliverable + 1;
        record_trace t ~time:at ~src ~dst ~payload ~outcome:Undeliverable;
        if src >= 0 then
          (* The sender times out [failure_timeout] after the actual send
             time, independent of the link's latency.  Deliverability is
             only evaluated at arrival, so on a link slower than the
             timeout the notification is clamped to the arrival time by
             [schedule] (never earlier than the failure is detectable). *)
          ignore
            (schedule t (Vtime.add sent t.failure_timeout) ~dst:src ~sent:Vtime.zero
               (Send_failed { dst; payload }))
      end
    | Send_failed _ -> if t.alive.(dst) then invoke t t.ctxs.(dst) event
    | Timer _ ->
      if t.alive.(dst) then begin
        t.live.live_timer_fired <- t.live.live_timer_fired + 1;
        invoke t t.ctxs.(dst) event
      end
      else t.live.live_timer_discarded <- t.live.live_timer_discarded + 1);
    clear_if_free t slot;
    (match t.probe with None -> () | Some probe -> probe.on_advance ~at:t.clock);
    true
  end

let run ?(max_events = 10_000_000) t =
  (* The emptiness check comes before the budget check: an already
     quiescent engine returns cleanly even with [max_events = 0]. *)
  let rec loop remaining =
    if not (Heap.Prio.is_empty t.queue) then
      if remaining = 0 then
        failwith
          (Format.asprintf
             "Engine.run: max_events (%d) exceeded (livelock?): stuck at virtual time %a with %d \
              pending events"
             max_events Vtime.pp t.clock (Heap.Prio.size t.queue))
      else begin
        ignore (step t);
        loop (remaining - 1)
      end
  in
  loop max_events

let pending_events t = Heap.Prio.size t.queue

let counters t =
  {
    sent = t.live.live_sent;
    delivered = t.live.live_delivered;
    undeliverable = t.live.live_undeliverable;
    timer_fired = t.live.live_timer_fired;
    timer_discarded = t.live.live_timer_discarded;
  }

let trace t = List.rev t.trace_rev
