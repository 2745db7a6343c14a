(** Deterministic discrete-event message-passing engine.

    This is the repository's substitute for mini-RAID's substrate: "database
    sites were implemented as Unix processes (on one processor with one
    process per site)" with "a reliable message passing facility: no
    messages were lost; messages arrived and were processed in the order
    that they were sent" (paper §1.2).  Sites are message-driven state
    machines; every message between live sites is delivered exactly once,
    after one fixed latency — the paper's uniform cost of "a single
    communication from one site to another" (§2.1) — in send order (FIFO
    per link, global order fixed by a sequence number), so a run is a pure
    function of the initial state and injected inputs.

    Failure model: a site can be marked down ([set_alive]); a message
    arriving at a down site (or over a severed link) is not delivered, and
    the sender instead receives a [Send_failed] notification three
    latencies after the send — modelling the sender-side timeout that
    Appendix A's "site is now down" branches rely on.  Virtual processing
    cost is modelled by [work], which delays the site's subsequent sends. *)

type 'm event =
  | Message of { src : int; payload : 'm }
      (** Normal delivery.  [src] is [external_source] for injected
          messages (the managing site). *)
  | Send_failed of { dst : int; payload : 'm }
      (** The message this site sent to [dst] could not be delivered; the
          notification arrives three latencies after the send, so two
          after the failed arrival. *)
  | Timer of 'm
      (** A timer set by this site has fired. *)

type 'm t
(** An engine instance, generic in the message payload type. *)

type 'm ctx
(** Handler context: identifies the receiving site and accumulates the
    virtual processing cost of handling the current event. *)

type 'm handler = 'm ctx -> 'm event -> unit

val external_source : int
(** Pseudo site id ([-1]) used as [src] for injected messages. *)

val create : ?message_latency:Vtime.t -> num_sites:int -> unit -> 'm t
(** [message_latency] defaults to 9 ms, the paper's measured cost of "a
    single communication from one site to another" (§2.1); the sender-side
    wait before a [Send_failed] notification is three times it.
    All sites start alive, fully connected and with no handler.
    @raise Invalid_argument on non-positive [num_sites] or a negative
    latency. *)

val register : 'm t -> int -> 'm handler -> unit
(** [register t site handler] installs [handler]; replaces any previous
    handler.  Events delivered to a site with no handler raise
    [Failure]. *)

val now : _ t -> Vtime.t
(** Time of the most recently processed event (zero initially). *)

val set_alive : _ t -> int -> bool -> unit
(** Mark a site up or down.  Pending deliveries to a down site fail at
    their arrival time; a down site's timers are discarded when they
    fire. *)

val alive : _ t -> int -> bool

val set_link : _ t -> int -> int -> bool -> unit
(** [set_link t a b ok] sets bidirectional connectivity between [a] and
    [b] (used to model network partitions).  Links default to connected.
    A site is always connected to itself. *)

val link_ok : _ t -> int -> int -> bool

val inject : 'm t -> dst:int -> 'm -> unit
(** Schedule a message from the managing site ([external_source]) to
    [dst], subject to the same latency and failure rules (a failed
    injection is silently counted, not notified). *)

(** {2 Handler context operations} *)

val time : _ ctx -> Vtime.t
(** Current virtual time inside the handler: arrival time plus the cost
    accumulated through [work] so far. *)

val work : _ ctx -> Vtime.t -> unit
(** Model [cost] of local processing; delays this handler's subsequent
    sends and timers. *)

val send : 'm ctx -> int -> 'm -> unit
(** Send a message from the handling site; it leaves at [time ctx]. *)

val set_timer : 'm ctx -> Vtime.t -> 'm -> unit
(** Deliver [payload] back to this site as a [Timer] event after the
    given delay (measured from [time ctx]). *)

(** {2 Execution} *)

val step : 'm t -> bool
(** Process one event; [false] when the queue is empty. *)

val run : ?max_events:int -> 'm t -> unit
(** Process events until quiescent.  @raise Failure if more than
    [max_events] (default 10_000_000) events are processed — a guard
    against protocol livelock in tests; the message reports the stuck
    virtual time and the pending-event count.  An already quiescent
    engine returns cleanly for any budget, including [max_events:0]. *)

val pending_events : _ t -> int

(** {2 Profiling hooks}

    The engine cannot depend on the observability layer (the dependency
    points the other way), so profiling and message tracing are exposed
    as one generic probe the owner installs; {!Raid_core.Cluster} wires
    it into a telemetry registry, a message sink of the typed trace, or
    both.  The engine keeps no record of its own.  With no probe
    installed each hook costs one [None] branch. *)

type 'm probe = {
  on_arrival : at:Vtime.t -> src:int -> dst:int -> delivered:bool -> 'm -> unit;
      (** Every [Message] arrival, before its handler runs: [src] is
          [external_source] for an injection, and [delivered] is false
          when [dst] is down or the link is cut (no handler runs then,
          and the sender is notified later).  Calls come in arrival
          order, which is the engine's processing order. *)
  on_event : at:Vtime.t -> 'm event -> cost:Vtime.t -> unit;
      (** After each handled event: the event, its processing time and
          the virtual cost the handler accumulated through [work].
          Not called for undeliverable arrivals or discarded timers
          (no handler ran). *)
  on_advance : at:Vtime.t -> unit;
      (** After every processed queue entry (including undeliverable /
          discarded ones), with the engine clock — the natural place to
          drive virtual-time sampling. *)
}

val set_probe : 'm t -> 'm probe option -> unit
(** Install or remove the probe (at most one; [None] removes). *)

val heap_high_water : _ t -> int
(** Highest event-queue depth observed since creation (tracked
    unconditionally; one integer comparison per scheduled event). *)

(** {2 Accounting} *)

type counters = {
  sent : int;  (** messages submitted, including injected *)
  delivered : int;
  undeliverable : int;  (** arrivals at a dead site / severed link *)
  timer_fired : int;
  timer_discarded : int;  (** timers that fired at a down site *)
}

val counters : _ t -> counters
(** Immutable snapshot of the running totals (the engine keeps them in
    mutable fields internally; this copies). *)
