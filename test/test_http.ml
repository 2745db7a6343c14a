(* The HTTP layer without sockets: the incremental request parser (byte
   limits, partial reads, malformed input) and the pattern router.  The
   loopback server tests live in Test_serve. *)

module Http = Raid_obs.Http
module Json = Raid_obs.Json

let parse = Http.parse_request

let complete s =
  match parse s with
  | Http.Complete (req, consumed) -> (req, consumed)
  | Http.Incomplete -> Alcotest.failf "unexpectedly incomplete: %S" s
  | Http.Bad (status, m) -> Alcotest.failf "unexpectedly bad (%d %s): %S" status m s

let bad_status s =
  match parse s with
  | Http.Bad (status, _) -> status
  | Http.Incomplete -> Alcotest.failf "expected Bad, got Incomplete: %S" s
  | Http.Complete _ -> Alcotest.failf "expected Bad, got Complete: %S" s

let test_simple_get () =
  let req, consumed = complete "GET /health HTTP/1.1\r\nHost: x\r\n\r\n" in
  Alcotest.(check string) "meth" "GET" req.Http.meth;
  Alcotest.(check string) "path" "/health" req.Http.path;
  Alcotest.(check (list (pair string string))) "headers" [ ("host", "x") ] req.Http.headers;
  Alcotest.(check string) "no body" "" req.Http.body;
  Alcotest.(check int) "consumed everything" 33 consumed;
  (* Bare-LF line endings (netcat-style clients) are tolerated. *)
  let req, _ = complete "GET / HTTP/1.0\n\n" in
  Alcotest.(check string) "bare-LF path" "/" req.Http.path

let test_query_and_percent_decoding () =
  Alcotest.(check string) "plus and hex" "a b/c" (Http.percent_decode "a+b%2Fc");
  Alcotest.(check string) "malformed escape kept" "100%fun" (Http.percent_decode "100%fun");
  let req, _ = complete "GET /si%74es?a=1&b=x+y&flag HTTP/1.1\r\n\r\n" in
  Alcotest.(check string) "path decoded" "/sites" req.Http.path;
  Alcotest.(check (list (pair string string)))
    "query decoded in order"
    [ ("a", "1"); ("b", "x y"); ("flag", "") ]
    req.Http.query

let test_partial_reads () =
  let whole = "POST /load HTTP/1.1\r\nContent-Length: 4\r\n\r\n{} \n" in
  (* Every proper prefix must be Incomplete — no prefix may parse or
     reject: the server keeps buffering. *)
  for n = 0 to String.length whole - 1 do
    match parse (String.sub whole 0 n) with
    | Http.Incomplete -> ()
    | Http.Complete _ -> Alcotest.failf "prefix of %d bytes completed early" n
    | Http.Bad (status, m) -> Alcotest.failf "prefix of %d bytes rejected: %d %s" n status m
  done;
  let req, consumed = complete whole in
  Alcotest.(check string) "body" "{} \n" req.Http.body;
  Alcotest.(check int) "consumed" (String.length whole) consumed

let test_limits () =
  let long = String.make 5000 'a' in
  Alcotest.(check int) "oversized request line is 414" 414
    (bad_status ("GET /" ^ long ^ " HTTP/1.1\r\n\r\n"));
  (* The bound applies before CRLF arrives: a runaway first line is
     rejected without waiting for the terminator. *)
  Alcotest.(check int) "unterminated runaway line is 414" 414 (bad_status ("GET /" ^ long));
  let many_headers =
    String.concat "" (List.init 500 (fun i -> Printf.sprintf "X-H%d: %s\r\n" i (String.make 30 'v')))
  in
  Alcotest.(check int) "oversized header section is 431" 431
    (bad_status ("GET / HTTP/1.1\r\n" ^ many_headers ^ "\r\n"));
  Alcotest.(check int) "huge content-length is 413" 413
    (bad_status "POST / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n");
  Alcotest.(check int) "chunked is 501" 501
    (bad_status "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  Alcotest.(check int) "HTTP/2 preface is 505" 505 (bad_status "GET / HTTP/2.0\r\n\r\n");
  Alcotest.(check int) "garbage request line is 400" 400 (bad_status "what even\r\n\r\n");
  Alcotest.(check int) "negative content-length is 400" 400
    (bad_status "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
  (* Content-Length is 1*DIGIT: OCaml literal syntax is not accepted. *)
  List.iter
    (fun raw ->
      Alcotest.(check int)
        (Printf.sprintf "content-length %S is 400" raw)
        400
        (bad_status ("POST / HTTP/1.1\r\nContent-Length: " ^ raw ^ "\r\n\r\n")))
    [ "0x10"; "1_0"; "+5"; "0b11"; "0o7"; "1e3"; " " ];
  (* Past the bound is 413, also where the digits overflow an int. *)
  List.iter
    (fun raw ->
      Alcotest.(check int)
        (Printf.sprintf "content-length %s is 413" raw)
        413
        (bad_status ("POST / HTTP/1.1\r\nContent-Length: " ^ raw ^ "\r\n\r\n")))
    [ "1048577"; "99999999999999999999999"; "18446744073709551616" ];
  Alcotest.(check int) "leading zeros are digits" 5
    (String.length
       (fst (complete "POST / HTTP/1.1\r\nContent-Length: 005\r\n\r\nhello")).Http.body)

let dummy_req ?(meth = "GET") path =
  { Http.meth; path; query = []; headers = []; body = "" }

let router =
  Http.dispatch
    [
      Http.route ~meth:"GET" "/health" (fun ~params:_ _ -> Http.text "ok");
      Http.route ~meth:"POST" "/sites/:id/fail" (fun ~params _ ->
          Http.text (List.assoc "id" params));
      Http.route ~meth:"GET" "/sites" (fun ~params:_ _ -> Http.text "sites");
    ]

let test_router () =
  Alcotest.(check string) "exact match" "ok" (router (dummy_req "/health")).Http.body;
  Alcotest.(check string) "capture" "7"
    (router (dummy_req ~meth:"POST" "/sites/7/fail")).Http.body;
  Alcotest.(check int) "unknown path is 404" 404 (router (dummy_req "/nope")).Http.status;
  Alcotest.(check int) "deep mismatch is 404" 404
    (router (dummy_req ~meth:"POST" "/sites/7/explode")).Http.status;
  let wrong_method = router (dummy_req ~meth:"POST" "/health") in
  Alcotest.(check int) "wrong method is 405" 405 wrong_method.Http.status;
  Alcotest.(check (option string))
    "405 advertises the allowed method" (Some "GET")
    (List.assoc_opt "Allow" wrong_method.Http.extra_headers);
  let crash =
    Http.dispatch
      [ Http.route ~meth:"GET" "/boom" (fun ~params:_ _ -> failwith "handler bug") ]
  in
  Alcotest.(check int) "raising handler is 500" 500 (crash (dummy_req "/boom")).Http.status

let test_response_builders () =
  Alcotest.(check string) "reason" "Method Not Allowed" (Http.reason 405);
  let e = Http.error 409 "already down" in
  Alcotest.(check int) "error status" 409 e.Http.status;
  (match Json.parse e.Http.body with
  | Ok body ->
    Alcotest.(check bool) "error body carries the message" true
      (Json.member "error" body = Some (Json.Str "already down"))
  | Error m -> Alcotest.fail m);
  let p = Http.prom "x 1\n" in
  Alcotest.(check string) "prom content type" "text/plain; version=0.0.4; charset=utf-8"
    p.Http.content_type

let suite =
  [
    Alcotest.test_case "simple GET" `Quick test_simple_get;
    Alcotest.test_case "query and percent decoding" `Quick test_query_and_percent_decoding;
    Alcotest.test_case "partial reads stay incomplete" `Quick test_partial_reads;
    Alcotest.test_case "size and protocol limits" `Quick test_limits;
    Alcotest.test_case "router" `Quick test_router;
    Alcotest.test_case "response builders" `Quick test_response_builders;
  ]
