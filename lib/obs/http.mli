(** A minimal HTTP/1.1 layer over the stdlib [Unix] module.

    Just enough protocol for the live cluster-introspection API
    ({!Raid_sim.Soak}): a pure incremental request parser, a tiny
    pattern router, and a single-threaded non-blocking server whose
    event loop is {e pumped by the owner} ({!poll}) — the soak driver
    calls it between simulation steps, so handlers run on the same
    domain as the engine and need no locking.  No keep-alive (every
    response carries [Connection: close]), no chunked encoding, no TLS;
    curl and Prometheus both speak this subset happily.

    The parser and router are pure functions of strings, tested without
    sockets; only {!serve}/{!poll}/{!close_server} touch the network. *)

type request = {
  meth : string;  (** verb as sent, e.g. ["GET"] *)
  path : string;  (** percent-decoded path, query stripped *)
  query : (string * string) list;  (** decoded key/value pairs, in order *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type response = {
  status : int;
  content_type : string;
  extra_headers : (string * string) list;
  body : string;
}

val reason : int -> string
(** Reason phrase for the status codes this library emits;
    ["Unknown"] otherwise. *)

val text : string -> response
(** [text/plain] response, status 200. *)

val prom : string -> response
(** A Prometheus exposition body:
    [text/plain; version=0.0.4; charset=utf-8]. *)

val json : Json.t -> response
(** [application/json] response, status 200. *)

val error : int -> string -> response
(** JSON [{"error": message, "status": code}] with the given status. *)

(** {2 Parsing} *)

type parse =
  | Incomplete  (** valid so far; read more bytes *)
  | Bad of int * string  (** reject with this status (400/413/414/431/501/505) *)
  | Complete of request * int  (** parsed request and bytes consumed *)

val parse_request : string -> parse
(** Parse the (possibly still partial) bytes received so far.  A request
    line over 4096 bytes is [Bad 414]; a header section over 16384 bytes
    [Bad 431]; a [Content-Length] over 1 MiB [Bad 413].  [Content-Length]
    must be ASCII digits only (RFC 9110 §8.6).  A [Transfer-Encoding]
    request is [Bad 501]; a non-1.x version [Bad 505]; anything
    malformed [Bad 400]. *)

val percent_decode : string -> string
(** Decode [%XX] escapes and [+] as space (malformed escapes are kept
    verbatim). *)

(** {2 Routing} *)

type handler = params:(string * string) list -> request -> response

type route

val route : meth:string -> string -> handler -> route
(** [route ~meth:"POST" "/sites/:id/fail" handler]: the pattern is
    matched segment-wise, [:name] segments capture into [params]. *)

val dispatch : route list -> request -> response
(** First matching route wins.  A path that matches some route only
    under a different method yields [405] with an [Allow] header; an
    unmatched path [404].  A handler that raises yields [500]. *)

(** {2 Server} *)

type server

val serve : port:int -> (request -> response) -> server
(** Bind [127.0.0.1:port] ([port = 0] picks an ephemeral port — read it
    back with {!port}), listen, and return without blocking.  SIGPIPE is
    set to ignore (a dropped client must not kill the process).
    @raise Unix.Unix_error e.g. when the port is taken. *)

val port : server -> int

val poll : ?timeout:float -> server -> int
(** Run one pump iteration: wait up to [timeout] seconds (default 0)
    for sockets to become ready, then accept / read / respond until no
    socket is ready, and return the number of requests answered in this
    call.  With nothing ready, [poll] is the owner's sleep. *)

val requests_served : server -> int
(** Total requests answered since {!serve}. *)

val close_server : server -> unit
(** Close the listening socket and every open connection (idempotent). *)
