(** Serialize a protocol trace as JSONL or Chrome trace-event JSON.

    The Chrome format ({{:https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU}trace-event spec})
    loads directly in Perfetto / [chrome://tracing]: the export lays out
    one track (thread) per site, draws each coordinated transaction as a
    complete ("X") span with its copy / prepare / commit phases as spans
    nested inside it, each answered vote and copier fetch as a span of
    its own, and renders everything else (fail-lock transitions, session
    changes, control transactions, engine-level message deliveries) as
    instant events on the relevant site's track.  The spans are not
    paired here: they are {!Span.assemble}'s, the same trees
    [raid explain] prints. *)

val entry_json : Trace.entry -> Json.t
(** One flat object: ["ts_us"], ["site"], ["kind"], then event fields. *)

val jsonl : Trace.t -> string
(** One compact JSON object per line, in emission order. *)

val chrome :
  num_sites:int ->
  label:('m -> string) ->
  messages:'m Raid_net.Engine.trace_entry list ->
  Trace.t ->
  string
(** A single JSON object [{"traceEvents": [...]}], pretty-printed.
    Every bar comes from the {!Span} trees of the collected entries and
    is emitted at the entry that ends it: a complete transaction with
    its phase windows at its commit or abort, a vote at the vote, a
    fetch at the copy reply.  A transaction whose begin or terminal is
    missing (e.g. lost to a coordinator crash) produces no transaction
    bar.
    [messages] (chronological, the network engine's own trace) adds a
    "msg" instant on the destination site's track per delivery attempt,
    named by [label] and marked when undeliverable. *)
