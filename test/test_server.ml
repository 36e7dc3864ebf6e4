(* Tests for the query server: the wire grammar, the watchdog and
   admission-queue state machines, the session layer, and — over real
   loopback TCP connections — the robustness contracts of the issue:
   result parity with the direct engine, the error-class mapping,
   budget clamping, queue-full and per-client-cap shedding, disconnect
   cancellation, and the graceful drain (no admitted response lost, new
   work shed, stragglers budget-cancelled after the grace period).

   A final gated test drives the real bin/serve executable through a
   SIGTERM drain (skipped when the binary is not around, e.g. when the
   test runs outside dune's dependency sandbox). *)

module P = Server.Protocol
module Budget = Basis.Budget
module Err = Basis.Err

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"

let mk_store () =
  let st = Xmldb.Doc_store.create () in
  let _ = Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml in
  st

(* -------------------------------------------------------------- protocol *)

let test_protocol_escaping () =
  let cases =
    [ ""; "plain"; "with space"; "line\nbreak"; "cr\rlf\n"; "back\\slash";
      "\\n literal"; "mix \\ \n \r end" ]
  in
  List.iter
    (fun s ->
       Alcotest.(check string) "escape round-trip" s (P.unescape (P.escape s));
       Alcotest.(check string) "item round-trip" s
         (P.unescape_item (P.escape_item s));
       Alcotest.(check bool) "escaped payload is line-safe" false
         (String.contains (P.escape s) '\n');
       Alcotest.(check bool) "escaped item is space-safe" false
         (String.contains (P.escape_item s) ' '))
    cases

let test_protocol_requests () =
  let rt req =
    match P.parse_request (P.render_request req) with
    | Ok r -> Alcotest.(check bool) "request round-trip" true (r = req)
    | Error m -> Alcotest.failf "round-trip failed to parse: %s" m
  in
  rt (P.Query { itemized = false; timeout_s = None; text = "1 + 1" });
  rt (P.Query { itemized = true; timeout_s = Some 0.25; text = "a b  c" });
  rt (P.Prepare { name = "q1"; text = "count(doc(\"t.xml\")//c)" });
  rt (P.Exec { itemized = false; timeout_s = Some 1.0; name = "q1" });
  rt (P.Exec { itemized = true; timeout_s = None; name = "q1" });
  rt (P.Load { timeout_s = None; uri = "m.xml"; xml = "<m>\n<x/></m>" });
  rt (P.Use "session");
  rt P.Stats;
  rt P.Ping;
  rt P.Quit;
  rt (P.Sleep { timeout_s = Some 0.1; ms = 50 });
  (match P.parse_request "NOSUCH x" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown verb must not parse");
  (match P.parse_request "" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty line must not parse")

let test_protocol_responses () =
  (* the wire mirrors the CLI exit codes exactly *)
  List.iter
    (fun kind ->
       match P.parse_response (P.err kind "boom") with
       | Ok (P.Resp_err { class_; code; message }) ->
         Alcotest.(check string) "class label" (Err.kind_label kind) class_;
         Alcotest.(check int) "code = exit code" (Err.exit_code kind) code;
         Alcotest.(check string) "message" "boom" message
       | _ -> Alcotest.fail "ERR did not parse")
    [ Err.Dynamic; Err.Static; Err.Resource; Err.Internal ];
  (match P.parse_response (P.ok_payload ~n:2 "1 2") with
   | Ok (P.Resp_ok (2, raw)) ->
     Alcotest.(check string) "payload" "1 2" (P.payload_of raw)
   | _ -> Alcotest.fail "OK payload did not parse");
  (match P.parse_response (P.ok_items [ "a b"; "c\nd" ]) with
   | Ok (P.Resp_ok (2, raw)) ->
     Alcotest.(check (list string)) "items" [ "a b"; "c\nd" ]
       (P.items_of ~n:2 raw)
   | _ -> Alcotest.fail "OK items did not parse");
  (* 0 items vs one empty item *)
  (match P.parse_response (P.ok_items []) with
   | Ok (P.Resp_ok (0, raw)) ->
     Alcotest.(check (list string)) "zero items" [] (P.items_of ~n:0 raw)
   | _ -> Alcotest.fail "empty OK did not parse");
  Alcotest.(check bool) "pong" true (P.parse_response P.pong = Ok P.Resp_pong);
  Alcotest.(check bool) "bye" true (P.parse_response P.bye = Ok P.Resp_bye)

(* -------------------------------------------------------------- watchdog *)

let test_watchdog_hysteresis () =
  let wd =
    Server.Watchdog.create ~threshold:4 ~degrade_after:3 ~recover_after:2 ()
  in
  let obs d = Server.Watchdog.observe wd d in
  (* two hot ticks are not enough *)
  Alcotest.(check bool) "hot 1" true (obs 10 = Server.Watchdog.Normal);
  Alcotest.(check bool) "hot 2" true (obs 4 = Server.Watchdog.Normal);
  (* a calm tick resets the streak *)
  Alcotest.(check bool) "calm resets" true (obs 3 = Server.Watchdog.Normal);
  Alcotest.(check bool) "hot 1'" true (obs 5 = Server.Watchdog.Normal);
  Alcotest.(check bool) "hot 2'" true (obs 5 = Server.Watchdog.Normal);
  Alcotest.(check bool) "hot 3' degrades" true
    (obs 5 = Server.Watchdog.Degraded);
  Alcotest.(check int) "one degradation" 1 (Server.Watchdog.degradations wd);
  (* recovery needs two consecutive calm ticks *)
  Alcotest.(check bool) "calm 1" true (obs 0 = Server.Watchdog.Degraded);
  Alcotest.(check bool) "hot resets recovery" true
    (obs 9 = Server.Watchdog.Degraded);
  Alcotest.(check bool) "calm 1'" true (obs 0 = Server.Watchdog.Degraded);
  Alcotest.(check bool) "calm 2' recovers" true
    (obs 0 = Server.Watchdog.Normal);
  Alcotest.(check int) "still one degradation" 1
    (Server.Watchdog.degradations wd);
  (match Server.Watchdog.create ~threshold:0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "non-positive threshold must be rejected")

(* ------------------------------------------------------------- admission *)

let test_admission_queue () =
  let q = Server.Admission.create ~capacity:2 in
  Alcotest.(check bool) "admit 1" true (Server.Admission.submit q 1 = `Admitted);
  Alcotest.(check bool) "admit 2" true (Server.Admission.submit q 2 = `Admitted);
  Alcotest.(check bool) "full sheds" true
    (Server.Admission.submit q 3 = `Queue_full);
  Alcotest.(check int) "depth" 2 (Server.Admission.depth q);
  Alcotest.(check bool) "fifo 1" true (Server.Admission.take q = Some 1);
  Alcotest.(check bool) "slot freed" true
    (Server.Admission.submit q 4 = `Admitted);
  Server.Admission.drain q;
  Alcotest.(check bool) "draining sheds" true
    (Server.Admission.submit q 5 = `Draining);
  (* the graceful-shutdown contract: everything admitted is still served *)
  Alcotest.(check bool) "fifo 2 after drain" true
    (Server.Admission.take q = Some 2);
  Alcotest.(check bool) "fifo 4 after drain" true
    (Server.Admission.take q = Some 4);
  Alcotest.(check bool) "empty + draining ends the worker" true
    (Server.Admission.take q = None);
  let s = Server.Admission.stats q in
  Alcotest.(check int) "admitted" 3 s.Server.Admission.admitted;
  Alcotest.(check int) "shed_full" 1 s.Server.Admission.shed_full;
  Alcotest.(check int) "shed_draining" 1 s.Server.Admission.shed_draining

(* --------------------------------------------------------------- session *)

let registry_with ?(name = "main") st =
  let r = Server.Session.Registry.create () in
  Server.Session.Registry.add r ~name st;
  r

let mk_session ?cache ?ceiling ?opts ?(store = "main") registry =
  match Server.Session.create ?cache ?ceiling ?opts ~registry ~store () with
  | Ok s -> s
  | Error m -> Alcotest.failf "session create failed: %s" m

let ser st items =
  List.map
    (function
      | Algebra.Value.Node n -> Xmldb.Serialize.node_to_string st n
      | v -> Algebra.Value.to_string v)
    items

let test_session_query_parity () =
  let st = mk_store () in
  let s = mk_session (registry_with st) in
  List.iter
    (fun q ->
       let direct_store = mk_store () in
       let expected =
         match Engine.run_result direct_store q with
         | Ok r -> ser direct_store r.Engine.items
         | Error e -> Alcotest.failf "direct run failed: %s" e.Engine.message
       in
       match Server.Session.query s q with
       | Ok reply ->
         Alcotest.(check (list string)) q expected
           reply.Server.Session.items
       | Error e -> Alcotest.failf "session run failed: %s" e.Engine.message)
    [ "1 + 1";
      "count(doc(\"t.xml\")//c)";
      "doc(\"t.xml\")//b/c";
      "for $v in (1, 2, 3) return $v * 2";
      "<r>{ count(doc(\"t.xml\")//*) }</r>" ]

let test_session_unknown_store () =
  let st = mk_store () in
  let r = registry_with st in
  (match Server.Session.create ~registry:r ~store:"nope" () with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown store must be rejected");
  let s = mk_session r in
  (match Server.Session.use s (`Shared "nope") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "use of unknown store must be rejected");
  Alcotest.(check string) "current unchanged" "main"
    (Server.Session.current_store s)

let test_session_prepare_exec () =
  let st = mk_store () in
  let s = mk_session (registry_with st) in
  (match Server.Session.prepare s ~name:"c2" "count(doc(\"t.xml\")//c)" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "prepare failed: %s" e.Engine.message);
  (match Server.Session.exec s "c2" with
   | Ok r ->
     Alcotest.(check (list string)) "exec result" [ "2" ]
       r.Server.Session.items
   | Error e -> Alcotest.failf "exec failed: %s" e.Engine.message);
  (match Server.Session.exec s "missing" with
   | Error { Engine.kind = Err.Dynamic; _ } -> ()
   | _ -> Alcotest.fail "unknown statement must be a dynamic error");
  (* static errors surface at prepare time, not first exec *)
  (match Server.Session.prepare s ~name:"bad" ")(" with
   | Error { Engine.kind = Err.Static; _ } -> ()
   | _ -> Alcotest.fail "prepare of a syntax error must fail statically")

let test_session_ceiling_clamps () =
  let st = mk_store () in
  let ceiling = Budget.limits ~timeout_s:0.05 () in
  let s = mk_session ~ceiling (registry_with st) in
  (* the client wishes for 10s; the ceiling says 50ms *)
  (match Server.Session.sleep ~timeout_s:10.0 s ~ms:5000 with
   | Error { Engine.kind = Err.Resource; _ } -> ()
   | Ok () -> Alcotest.fail "ceiling did not clamp the client wish"
   | Error e -> Alcotest.failf "wrong error class: %s" e.Engine.message)

let test_session_cancel_inflight () =
  let st = mk_store () in
  let s = mk_session (registry_with st) in
  let result = ref (Ok ()) in
  let th =
    Thread.create (fun () -> result := Server.Session.sleep s ~ms:30_000) ()
  in
  Thread.delay 0.1;
  Server.Session.cancel_inflight s;
  Thread.join th;
  (match !result with
   | Error { Engine.kind = Err.Resource; _ } -> ()
   | Ok () -> Alcotest.fail "cancellation did not interrupt the request"
   | Error e -> Alcotest.failf "wrong error class: %s" e.Engine.message)

let test_session_private_store () =
  let st = mk_store () in
  let r = registry_with st in
  let s1 = mk_session r and s2 = mk_session r in
  (match Server.Session.load s1 ~uri:"mine.xml" "<m><x/><x/></m>" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "load failed: %s" e.Engine.message);
  (match Server.Session.use s1 `Private with
   | Ok () -> ()
   | Error m -> Alcotest.failf "use private failed: %s" m);
  Alcotest.(check string) "private store label" "session"
    (Server.Session.current_store s1);
  (match Server.Session.query s1 "count(doc(\"mine.xml\")//x)" with
   | Ok reply ->
     Alcotest.(check (list string)) "private doc visible" [ "2" ]
       reply.Server.Session.items
   | Error e -> Alcotest.failf "private query failed: %s" e.Engine.message);
  (* another session's private store is its own: the document is absent *)
  ignore (Server.Session.use s2 `Private);
  (match Server.Session.query s2 "count(doc(\"mine.xml\")//x)" with
   | Error { Engine.kind = Err.Dynamic; _ } -> ()
   | Ok _ -> Alcotest.fail "private stores must be isolated per session"
   | Error e -> Alcotest.failf "wrong error class: %s" e.Engine.message)

(* ------------------------------------------------------ wire integration *)

let with_server ?(workers = 2) ?(queue_capacity = 8) ?(client_cap = 4)
    ?ceiling ?(debug = true) f =
  let st = mk_store () in
  let cfg =
    Server.config ~port:0 ?ceiling ~workers ~queue_capacity ~client_cap
      ~debug ~stores:[ ("main", st) ] ()
  in
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop ~grace_s:5. t) (fun () -> f t)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd Unix.(ADDR_INET (inet_addr_loopback, Server.port t));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = input_line c.ic

let rpc c line = send c line; recv c

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let expect_err ?substring kind resp =
  match P.parse_response resp with
  | Ok (P.Resp_err { class_; code; message }) ->
    Alcotest.(check string) "error class" (Err.kind_label kind) class_;
    Alcotest.(check int) "error code" (Err.exit_code kind) code;
    (match substring with
     | None -> ()
     | Some sub ->
       Alcotest.(check bool)
         (Printf.sprintf "message %S mentions %S" message sub)
         true
         (Astring.String.is_infix ~affix:sub message))
  | _ -> Alcotest.failf "expected ERR, got %s" resp

let stats_field resp key =
  match P.parse_response resp with
  | Ok (P.Resp_ok (_, raw)) ->
    let kvs =
      List.filter_map
        (fun f ->
           match String.index_opt f '=' with
           | Some i ->
             Some
               ( String.sub f 0 i,
                 String.sub f (i + 1) (String.length f - i - 1) )
           | None -> None)
        (String.split_on_char ' ' raw)
    in
    (try List.assoc key kvs
     with Not_found -> Alcotest.failf "no %s in stats %s" key resp)
  | _ -> Alcotest.failf "STATS did not parse: %s" resp

let test_wire_roundtrip () =
  with_server (fun t ->
    let c = connect t in
    Alcotest.(check string) "ping" P.pong (rpc c "PING");
    List.iter
      (fun q ->
         let direct = mk_store () in
         let expected =
           match Engine.run_result direct q with
           | Ok r -> ser direct r.Engine.items
           | Error e -> Alcotest.failf "direct run failed: %s" e.Engine.message
         in
         match P.parse_response (rpc c ("QI " ^ q)) with
         | Ok (P.Resp_ok (n, raw)) ->
           Alcotest.(check (list string)) q expected (P.items_of ~n raw)
         | _ -> Alcotest.failf "QI %s did not return OK" q)
      [ "1 + 1";
        "doc(\"t.xml\")//c";
        "(doc(\"t.xml\")//e)[1]/@k";
        "for $v in (1 to 4) return $v * $v";
        "<r>{ 6 * 7 }</r>" ];
    Alcotest.(check string) "bye" P.bye (rpc c "QUIT");
    close_client c)

let test_wire_error_classes () =
  with_server (fun t ->
    let c = connect t in
    expect_err Err.Dynamic (rpc c "Q 1 idiv 0");
    expect_err Err.Static (rpc c "Q )(bad");
    expect_err Err.Static ~substring:"protocol" (rpc c "BOGUS verb");
    expect_err Err.Resource ~substring:"deadline"
      (rpc c "SLEEP t=60 5000");
    expect_err Err.Dynamic ~substring:"unknown prepared"
      (rpc c "E missing");
    expect_err Err.Dynamic ~substring:"unknown store" (rpc c "U missing");
    (* the connection survives every class of request failure *)
    Alcotest.(check string) "still alive" P.pong (rpc c "PING");
    close_client c)

let test_wire_prepare_exec_and_stores () =
  with_server (fun t ->
    let c = connect t in
    Alcotest.(check string) "prepare" P.ok_unit
      (rpc c "P c2 count(doc(\"t.xml\")//c)");
    (match P.parse_response (rpc c "E c2") with
     | Ok (P.Resp_ok (1, raw)) ->
       Alcotest.(check string) "exec payload" "2" (P.payload_of raw)
     | _ -> Alcotest.fail "E c2 failed");
    Alcotest.(check string) "load" P.ok_unit
      (rpc c "L mine.xml <m><x>7</x><x>8</x></m>");
    Alcotest.(check string) "use session" P.ok_unit (rpc c "U session");
    Alcotest.(check string) "session store in stats" "session"
      (stats_field (rpc c "STATS") "store");
    (match P.parse_response (rpc c "QI doc(\"mine.xml\")//x/text()") with
     | Ok (P.Resp_ok (n, raw)) ->
       Alcotest.(check (list string)) "private doc" [ "7"; "8" ]
         (P.items_of ~n raw)
     | _ -> Alcotest.fail "private query failed");
    Alcotest.(check string) "back to main" P.ok_unit (rpc c "U main");
    expect_err Err.Dynamic (rpc c "Q count(doc(\"mine.xml\")//x)");
    close_client c)

let test_wire_queue_full_shed () =
  with_server ~workers:1 ~queue_capacity:1 ~client_cap:8 (fun t ->
    let a = connect t and b = connect t in
    (* occupy the single worker... *)
    send a "SLEEP 400";
    Thread.delay 0.15;
    (* ...fill the queue... *)
    send a "SLEEP 100";
    Thread.delay 0.05;
    (* ...and the next request must shed, immediately, with the
       documented class — not buffer behind the queue *)
    let t0 = Unix.gettimeofday () in
    expect_err Err.Resource ~substring:"queue full" (rpc b "Q 1");
    Alcotest.(check bool) "shed is immediate" true
      (Unix.gettimeofday () -. t0 < 0.2);
    (* the admitted work still completes *)
    Alcotest.(check string) "sleep 1 served" P.ok_unit (recv a);
    Alcotest.(check string) "sleep 2 served" P.ok_unit (recv a);
    Alcotest.(check string) "shed counted" "1"
      (stats_field (rpc b "STATS") "shed_full");
    close_client a;
    close_client b)

let test_wire_client_cap_shed () =
  with_server ~workers:1 ~queue_capacity:8 ~client_cap:1 (fun t ->
    let c = connect t in
    send c "SLEEP 300";
    Thread.delay 0.1;
    (* one in flight is the cap: the second request sheds... *)
    expect_err Err.Resource ~substring:"cap" (rpc c "Q 1");
    Alcotest.(check string) "first request still served" P.ok_unit (recv c);
    (* ...and the slot frees once the first completes *)
    (match P.parse_response (rpc c "Q 2 + 2") with
     | Ok (P.Resp_ok (1, raw)) ->
       Alcotest.(check string) "after completion" "4" (P.payload_of raw)
     | _ -> Alcotest.fail "query after cap release failed");
    Alcotest.(check string) "cap shed counted" "1"
      (stats_field (rpc c "STATS") "shed_cap");
    close_client c)

let test_wire_disconnect_cancels () =
  with_server ~workers:1 (fun t ->
    let a = connect t in
    send a "SLEEP t=60000 30000";
    Thread.delay 0.2;
    (* the client vanishes mid-query: the worker must be freed well
       before the 30s sleep — the disconnect trips the budget switch *)
    close_client a;
    let b = connect t in
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec freed () =
      if stats_field (rpc b "STATS") "executing" = "0" then true
      else if Unix.gettimeofday () > deadline then false
      else begin
        Thread.delay 0.05;
        freed ()
      end
    in
    Alcotest.(check bool) "worker freed by disconnect" true (freed ());
    Alcotest.(check string) "request accounted as completed" "1"
      (stats_field (rpc b "STATS") "completed");
    close_client b)

let test_wire_drain_no_lost_responses () =
  with_server ~workers:1 (fun t ->
    let c = connect t in
    (* one executing, one queued *)
    send c "SLEEP 300";
    send c "Q 40 + 2";
    Thread.delay 0.1;
    let stopper = Thread.create (fun () -> Server.stop ~grace_s:10. t) () in
    Thread.delay 0.1;
    (* new work is refused while draining... *)
    expect_err Err.Resource ~substring:"draining" (rpc c "Q 1");
    (* ...but every admitted response still arrives, in order *)
    Alcotest.(check string) "in-flight sleep served" P.ok_unit (recv c);
    (match P.parse_response (recv c) with
     | Ok (P.Resp_ok (1, raw)) ->
       Alcotest.(check string) "queued query served" "42" (P.payload_of raw)
     | _ -> Alcotest.fail "queued response lost in drain");
    Thread.join stopper;
    close_client c)

let test_wire_drain_grace_cancels_stragglers () =
  with_server ~workers:1 (fun t ->
    let c = connect t in
    send c "SLEEP t=60000 30000";
    Thread.delay 0.1;
    let t0 = Unix.gettimeofday () in
    Server.stop ~grace_s:0.3 t;
    let elapsed = Unix.gettimeofday () -. t0 in
    Alcotest.(check bool) "stop returned promptly (not after 30s)" true
      (elapsed < 5.0);
    (* the straggler was budget-cancelled, and its error response was
       still flushed before the socket closed *)
    expect_err Err.Resource (recv c);
    close_client c)

(* ----------------------------------------------- bin/serve under SIGTERM *)

(* The full-executable drain: boot bin/serve, give it in-flight work, hit
   it with SIGTERM, and require every response plus a clean exit 0. *)
let test_serve_sigterm_drain () =
  let bin =
    match Sys.getenv_opt "XRQ_SERVE_BIN" with
    | Some p -> p
    | None -> "../bin/serve.exe"
  in
  if not (Sys.file_exists bin) then
    Alcotest.skip ()
  else begin
    let doc = Filename.temp_file "serve_test" ".xml" in
    let och = open_out doc in
    output_string och doc_xml;
    close_out och;
    let out_r, out_w = Unix.pipe () in
    let pid =
      Unix.create_process bin
        [| bin; "-d"; "t.xml=" ^ doc; "--port"; "0"; "--debug";
           "--workers"; "1"; "--grace"; "10" |]
        Unix.stdin out_w Unix.stderr
    in
    Unix.close out_w;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        (try Unix.close out_r with Unix.Unix_error _ -> ());
        Sys.remove doc)
      (fun () ->
        let ic = Unix.in_channel_of_descr out_r in
        let ready = input_line ic in
        let port =
          match String.rindex_opt ready ':' with
          | Some i ->
            int_of_string
              (String.sub ready (i + 1) (String.length ready - i - 1))
          | None -> Alcotest.failf "unexpected readiness line: %s" ready
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd Unix.(ADDR_INET (inet_addr_loopback, port));
        let cic = Unix.in_channel_of_descr fd
        and coc = Unix.out_channel_of_descr fd in
        (* in-flight and queued work at the moment the signal lands *)
        output_string coc "SLEEP 300\nQ count(doc(\"t.xml\")//c)\n";
        flush coc;
        Thread.delay 0.1;
        Unix.kill pid Sys.sigterm;
        Alcotest.(check string) "in-flight response survives SIGTERM"
          P.ok_unit (input_line cic);
        (match P.parse_response (input_line cic) with
         | Ok (P.Resp_ok (1, raw)) ->
           Alcotest.(check string) "queued response survives SIGTERM" "2"
             (P.payload_of raw)
         | _ -> Alcotest.fail "queued response lost");
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, Unix.WEXITED n -> Alcotest.failf "serve exited %d" n
        | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
          Alcotest.failf "serve killed by signal %d" n)
  end

(* A SIGTERM sent the moment the readiness line appears must still take
   the drain path: exit 0 with the final-stats line, not death by signal
   (the handlers are installed before the line is printed). *)
let test_serve_sigterm_at_readiness () =
  let bin =
    match Sys.getenv_opt "XRQ_SERVE_BIN" with
    | Some p -> p
    | None -> "../bin/serve.exe"
  in
  if not (Sys.file_exists bin) then
    Alcotest.skip ()
  else begin
    let doc = Filename.temp_file "serve_test" ".xml" in
    let och = open_out doc in
    output_string och doc_xml;
    close_out och;
    let out_r, out_w = Unix.pipe () in
    let err_r, err_w = Unix.pipe () in
    let pid =
      Unix.create_process bin
        [| bin; "-d"; "t.xml=" ^ doc; "--port"; "0"; "--workers"; "1" |]
        Unix.stdin out_w err_w
    in
    Unix.close out_w;
    Unix.close err_w;
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        (try Unix.close out_r with Unix.Unix_error _ -> ());
        (try Unix.close err_r with Unix.Unix_error _ -> ());
        Sys.remove doc)
      (fun () ->
        let ready = input_line (Unix.in_channel_of_descr out_r) in
        Unix.kill pid Sys.sigterm;
        Alcotest.(check bool) "readiness line" true
          (String.length ready >= 12 && String.sub ready 0 12 = "listening on");
        let log = In_channel.input_all (Unix.in_channel_of_descr err_r) in
        (match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ()
         | _, Unix.WEXITED n -> Alcotest.failf "serve exited %d" n
         | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
           Alcotest.failf "serve killed by signal %d" n);
        Alcotest.(check bool) "final-stats line printed" true
          (Astring.String.is_infix ~affix:"serve: final stats:" log))
  end

(* ------------------------------------------------------------------ main *)

let () =
  Alcotest.run "server"
    [ ( "protocol",
        [ Alcotest.test_case "escaping" `Quick test_protocol_escaping;
          Alcotest.test_case "requests" `Quick test_protocol_requests;
          Alcotest.test_case "responses" `Quick test_protocol_responses ] );
      ( "watchdog",
        [ Alcotest.test_case "hysteresis" `Quick test_watchdog_hysteresis ] );
      ( "admission",
        [ Alcotest.test_case "bounded queue" `Quick test_admission_queue ] );
      ( "session",
        [ Alcotest.test_case "query parity" `Quick test_session_query_parity;
          Alcotest.test_case "unknown store" `Quick test_session_unknown_store;
          Alcotest.test_case "prepare/exec" `Quick test_session_prepare_exec;
          Alcotest.test_case "ceiling clamps wishes" `Quick
            test_session_ceiling_clamps;
          Alcotest.test_case "cancel in-flight" `Quick
            test_session_cancel_inflight;
          Alcotest.test_case "private stores" `Quick
            test_session_private_store ] );
      ( "wire",
        [ Alcotest.test_case "roundtrip parity" `Quick test_wire_roundtrip;
          Alcotest.test_case "error classes" `Quick test_wire_error_classes;
          Alcotest.test_case "prepare/exec/stores" `Quick
            test_wire_prepare_exec_and_stores;
          Alcotest.test_case "queue-full shed" `Quick
            test_wire_queue_full_shed;
          Alcotest.test_case "client-cap shed" `Quick
            test_wire_client_cap_shed;
          Alcotest.test_case "disconnect cancels" `Quick
            test_wire_disconnect_cancels;
          Alcotest.test_case "drain loses nothing" `Quick
            test_wire_drain_no_lost_responses;
          Alcotest.test_case "grace cancels stragglers" `Quick
            test_wire_drain_grace_cancels_stragglers ] );
      ( "bin/serve",
        [ Alcotest.test_case "SIGTERM drain" `Quick
            test_serve_sigterm_drain;
          Alcotest.test_case "SIGTERM at readiness" `Quick
            test_serve_sigterm_at_readiness ] );
    ]
