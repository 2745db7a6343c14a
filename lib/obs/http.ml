type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  content_type : string;
  extra_headers : (string * string) list;
  body : string;
}

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 414 -> "URI Too Long"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Unknown"

let text body =
  { status = 200; content_type = "text/plain; charset=utf-8"; extra_headers = []; body }

let prom body =
  { status = 200; content_type = "text/plain; version=0.0.4; charset=utf-8";
    extra_headers = []; body }

let json_with status value =
  { status; content_type = "application/json"; extra_headers = [];
    body = Json.to_string value ^ "\n" }

let json value = json_with 200 value

let error status message =
  json_with status (Json.Obj [ ("error", Json.Str message); ("status", Json.Int status) ])

(* {2 Parsing} *)

type parse =
  | Incomplete
  | Bad of int * string
  | Complete of request * int

let percent_decode s =
  let n = String.length s in
  let buffer = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char buffer ' '
    | '%' when !i + 2 < n -> (
      match (hex s.[!i + 1], hex s.[!i + 2]) with
      | Some hi, Some lo ->
        Buffer.add_char buffer (Char.chr ((hi lsl 4) lor lo));
        i := !i + 2
      | _ -> Buffer.add_char buffer '%')
    | c -> Buffer.add_char buffer c);
    incr i
  done;
  Buffer.contents buffer

let split_query target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some at ->
    let raw = String.sub target (at + 1) (String.length target - at - 1) in
    let pairs =
      List.filter_map
        (fun piece ->
          if piece = "" then None
          else
            match String.index_opt piece '=' with
            | None -> Some (percent_decode piece, "")
            | Some eq ->
              Some
                ( percent_decode (String.sub piece 0 eq),
                  percent_decode (String.sub piece (eq + 1) (String.length piece - eq - 1)) ))
        (String.split_on_char '&' raw)
    in
    (String.sub target 0 at, pairs)

(* Find the end of the header section; accepts CRLF (the only framing we
   send) and tolerates bare LF from hand-typed clients. *)
let find_head_end data =
  let n = String.length data in
  let rec scan i =
    if i + 1 >= n then None
    else if data.[i] = '\n' && data.[i + 1] = '\n' then Some (i + 2)
    else if i + 3 < n && data.[i] = '\r' && String.sub data i 4 = "\r\n\r\n" then Some (i + 4)
    else scan (i + 1)
  in
  scan 0

let header_lines head =
  String.split_on_char '\n' head
  |> List.map (fun line ->
         let n = String.length line in
         if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line)
  |> List.filter (fun line -> line <> "")

(* Bounds on the request line, the whole header section and the body. *)
let max_line = 4096
let max_head = 16384
let max_body = 1 lsl 20

let parse_request data =
  let n = String.length data in
  match find_head_end data with
  | None ->
    (* No terminator yet: reject early when the partial data already
       blows a bound, so a hostile peer cannot make us buffer forever. *)
    let first_line_len =
      match String.index_opt data '\n' with Some i -> i | None -> n
    in
    if first_line_len > max_line then Bad (414, "request line too long")
    else if n > max_head then Bad (431, "header section too large")
    else Incomplete
  | Some head_len ->
    if head_len > max_head then Bad (431, "header section too large")
    else begin
      match header_lines (String.sub data 0 head_len) with
      | [] -> Bad (400, "empty request")
      | request_line :: header_fields ->
        if String.length request_line > max_line then Bad (414, "request line too long")
        else begin
          match String.split_on_char ' ' request_line with
          | [ meth; target; version ]
            when meth <> "" && target <> "" ->
            if not (String.length version >= 7 && String.sub version 0 7 = "HTTP/1.") then
              Bad (505, "unsupported protocol version")
            else begin
              let headers = ref [] in
              let bad = ref None in
              List.iter
                (fun field ->
                  match String.index_opt field ':' with
                  | None | Some 0 -> if !bad = None then bad := Some "malformed header field"
                  | Some colon ->
                    let name = String.lowercase_ascii (String.sub field 0 colon) in
                    let value =
                      String.trim (String.sub field (colon + 1) (String.length field - colon - 1))
                    in
                    headers := (name, value) :: !headers)
                header_fields;
              match !bad with
              | Some message -> Bad (400, message)
              | None ->
                let headers = List.rev !headers in
                if List.mem_assoc "transfer-encoding" headers then
                  Bad (501, "transfer encodings not supported")
                else begin
                  (* RFC 9110 §8.6: 1*DIGIT, nothing else (no sign, no
                     0x/0b/0o prefix, no underscores).  Any digit string
                     past the bound, overflowing ones included, is 413. *)
                  let content_length =
                    match List.assoc_opt "content-length" headers with
                    | None -> Ok 0
                    | Some raw -> (
                      let raw = String.trim raw in
                      if raw = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') raw)
                      then Error (400, "malformed content-length")
                      else
                        match int_of_string_opt raw with
                        | Some len when len <= max_body -> Ok len
                        | _ -> Error (413, "request body too large"))
                  in
                  match content_length with
                  | Error (status, message) -> Bad (status, message)
                  | Ok len ->
                    if n - head_len < len then Incomplete
                    else begin
                      let path, query = split_query target in
                      Complete
                        ( {
                            meth;
                            path = percent_decode path;
                            query;
                            headers;
                            body = String.sub data head_len len;
                          },
                          head_len + len )
                    end
                end
            end
          | _ -> Bad (400, "malformed request line")
        end
    end

(* {2 Routing} *)

type handler = params:(string * string) list -> request -> response

type route = { r_meth : string; r_segments : string list; r_handler : handler }

let segments path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let route ~meth pattern handler =
  { r_meth = String.uppercase_ascii meth; r_segments = segments pattern; r_handler = handler }

(* [Some params] when the pattern's segments match the path's. *)
let match_segments pattern path =
  let rec walk acc = function
    | [], [] -> Some (List.rev acc)
    | p :: ps, s :: ss when String.length p > 0 && p.[0] = ':' ->
      walk ((String.sub p 1 (String.length p - 1), s) :: acc) (ps, ss)
    | p :: ps, s :: ss when p = s -> walk acc (ps, ss)
    | _ -> None
  in
  walk [] (pattern, path)

let dispatch routes request =
  let path = segments request.path in
  let meth = String.uppercase_ascii request.meth in
  let matching =
    List.filter_map
      (fun r -> Option.map (fun params -> (r, params)) (match_segments r.r_segments path))
      routes
  in
  match List.find_opt (fun (r, _) -> r.r_meth = meth) matching with
  | Some (r, params) -> (
    try r.r_handler ~params request
    with exn -> error 500 (Printexc.to_string exn))
  | None -> (
    match matching with
    | [] -> error 404 (Printf.sprintf "no route for %s" request.path)
    | allowed ->
      let methods =
        List.sort_uniq String.compare (List.map (fun (r, _) -> r.r_meth) allowed)
      in
      {
        (error 405 (Printf.sprintf "%s not allowed on %s" meth request.path)) with
        extra_headers = [ ("Allow", String.concat ", " methods) ];
      })

(* {2 Server} *)

type conn = { c_fd : Unix.file_descr; c_buf : Buffer.t }

type server = {
  listen_fd : Unix.file_descr;
  s_port : int;
  s_handler : request -> response;
  mutable conns : conn list;
  mutable served : int;
  mutable closed : bool;
}

let render_response (r : response) =
  let buffer = Buffer.create (String.length r.body + 256) in
  Buffer.add_string buffer (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status (reason r.status));
  Buffer.add_string buffer (Printf.sprintf "Content-Type: %s\r\n" r.content_type);
  Buffer.add_string buffer (Printf.sprintf "Content-Length: %d\r\n" (String.length r.body));
  List.iter
    (fun (name, value) -> Buffer.add_string buffer (Printf.sprintf "%s: %s\r\n" name value))
    r.extra_headers;
  Buffer.add_string buffer "Connection: close\r\n\r\n";
  Buffer.add_string buffer r.body;
  Buffer.contents buffer

(* Write the whole response, waiting (bounded) for writability on a
   non-blocking socket; a stalled or vanished client just loses the
   response — never the server. *)
let write_all fd data =
  let bytes = Bytes.of_string data in
  let total = Bytes.length bytes in
  let deadline_tries = 100 in
  let rec loop off tries =
    if off < total && tries > 0 then begin
      match Unix.write fd bytes off (total - off) with
      | written -> loop (off + written) tries
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ignore (Unix.select [] [ fd ] [] 0.05);
        loop off (tries - 1)
      | exception Unix.Unix_error _ -> ()
    end
  in
  loop 0 deadline_tries

let serve ~port handler =
  (* A broken pipe is an ordinary client disappearance here. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e -> Unix.close fd; raise e);
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  let actual_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { listen_fd = fd; s_port = actual_port; s_handler = handler; conns = [];
    served = 0; closed = false }

let port t = t.s_port
let requests_served t = t.served

let close_conn t conn =
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns

let respond t conn response =
  write_all conn.c_fd (render_response response);
  t.served <- t.served + 1;
  close_conn t conn

let handle_readable t conn =
  let chunk = Bytes.create 4096 in
  match Unix.read conn.c_fd chunk 0 4096 with
  | 0 -> close_conn t conn (* peer closed before completing a request *)
  | n ->
    Buffer.add_subbytes conn.c_buf chunk 0 n;
    (match parse_request (Buffer.contents conn.c_buf) with
    | Incomplete -> ()
    | Bad (status, message) -> respond t conn (error status message)
    | Complete (request, _consumed) ->
      let response =
        try t.s_handler request with exn -> error 500 (Printexc.to_string exn)
      in
      respond t conn response)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

let accept_pending t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | client, _addr ->
      Unix.set_nonblock client;
      t.conns <- { c_fd = client; c_buf = Buffer.create 512 } :: t.conns;
      loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ()

let poll ?(timeout = 0.0) t =
  if t.closed then 0
  else begin
    let before = t.served in
    let rec pump timeout =
      let watched = t.listen_fd :: List.map (fun c -> c.c_fd) t.conns in
      match Unix.select watched [] [] timeout with
      | [], _, _ -> ()
      | ready, _, _ ->
        if List.memq t.listen_fd ready then accept_pending t;
        List.iter
          (fun conn -> if List.memq conn.c_fd ready then handle_readable t conn)
          t.conns;
        (* Drain whatever became ready meanwhile, without sleeping again. *)
        pump 0.0
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    pump timeout;
    t.served - before
  end

let close_server t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun conn -> try Unix.close conn.c_fd with Unix.Unix_error _ -> ()) t.conns;
    t.conns <- [];
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end
