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

(* Internal scheduled actions.  [Arrive] evaluates deliverability at
   arrival time and carries the send time so a failed delivery can be
   notified exactly [failure_timeout] after the send regardless of the
   link's latency; [Notify_failure] is the sender-side timeout; [Fire] is
   a local timer.  The [(at, seq)] ordering keys live unboxed inside
   [Heap.Prio]; no per-event wrapper record is allocated. *)
type 'm action =
  | Arrive of { src : int; dst : int; payload : 'm; sent : Vtime.t }
  | Notify_failure of { src : int; dst : int; payload : 'm }
  | Fire of { dst : int; payload : 'm }

type 'm t = {
  num_sites : int;
  message_latency : Vtime.t;
  failure_timeout : Vtime.t;
  queue : 'm action Heap.Prio.t;
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

let schedule t at action =
  let at = max at t.clock in
  Heap.Prio.push t.queue ~at ~seq:t.seq action;
  t.seq <- t.seq + 1;
  let depth = Heap.Prio.size t.queue in
  if depth > t.heap_high_water then t.heap_high_water <- depth

let record_trace t ~time ~src ~dst ~payload ~outcome =
  if t.trace_enabled then
    t.trace_rev <-
      { trace_time = time; trace_src = src; trace_dst = dst; trace_payload = payload;
        trace_outcome = outcome }
      :: t.trace_rev

let submit t ~at ~src ~dst payload =
  check_site t dst;
  t.live.live_sent <- t.live.live_sent + 1;
  let latency = if src >= 0 then t.latencies.(link t src dst) else t.message_latency in
  schedule t (Vtime.add at latency) (Arrive { src; dst; payload; sent = at })

let inject t ~dst payload = submit t ~at:t.clock ~src:external_source ~dst payload

let self ctx = ctx.ctx_self
let time ctx = Vtime.add ctx.base ctx.elapsed

let work ctx cost =
  if cost < 0 then invalid_arg "Engine.work: negative cost";
  ctx.elapsed <- Vtime.add ctx.elapsed cost

let send ctx dst payload = submit ctx.engine ~at:(time ctx) ~src:ctx.ctx_self ~dst payload

let set_timer ctx delay payload =
  if delay < 0 then invalid_arg "Engine.set_timer: negative delay";
  schedule ctx.engine (Vtime.add (time ctx) delay) (Fire { dst = ctx.ctx_self; payload })

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

let step t =
  if Heap.Prio.is_empty t.queue then false
  else begin
    let at = Heap.Prio.min_at t.queue in
    let action = Heap.Prio.pop_min t.queue in
    t.clock <- at;
    (match action with
    | Arrive { src; dst; payload; sent } ->
      if deliverable t ~src ~dst then begin
        t.live.live_delivered <- t.live.live_delivered + 1;
        record_trace t ~time:at ~src ~dst ~payload ~outcome:Delivered;
        invoke t t.ctxs.(dst) (Message { src; payload })
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
          schedule t (Vtime.add sent t.failure_timeout)
            (Notify_failure { src; dst; payload })
      end
    | Notify_failure { src; dst; payload } ->
      if t.alive.(src) then invoke t t.ctxs.(src) (Send_failed { dst; payload })
    | Fire { dst; payload } ->
      if t.alive.(dst) then begin
        t.live.live_timer_fired <- t.live.live_timer_fired + 1;
        invoke t t.ctxs.(dst) (Timer payload)
      end
      else t.live.live_timer_discarded <- t.live.live_timer_discarded + 1);
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
