(* serve — the query-serving daemon over persistently loaded documents.

     serve [-d uri=file.xml ...] [--xmark F] [--port P] [options]

   Documents given with -d are loaded once, at startup, into the shared
   store "main"; --xmark adds a generated XMark instance as the store
   "xmark" (document URI auction.xml). Clients speak the line protocol of
   lib/server/protocol.mli; each session starts on the first loaded store
   and may switch with U.

   Robustness knobs mirror Server.config: a bounded admission queue with
   explicit shedding (--queue-cap), a per-client in-flight cap
   (--client-cap), a per-request budget ceiling (--timeout, --max-rows,
   --max-bytes, --max-ops) that
   clamps client deadline wishes, and the overload watchdog that degrades
   query parallelism to serial under sustained domain-pool contention.

   SIGTERM and SIGINT drain gracefully: stop admitting, finish (or after
   --grace seconds budget-cancel) in-flight work, flush every admitted
   response, then exit 0 with the final stats on stderr. *)

open Cmdliner

let docs_arg =
  let doc = "Load an XML document into the shared store 'main' (uri=path)." in
  Arg.(value & opt_all string [] & info [ "d"; "doc" ] ~docv:"URI=FILE" ~doc)

let xmark_arg =
  Arg.(value & opt (some float) None
       & info [ "xmark" ] ~docv:"F"
           ~doc:"Also serve a generated XMark instance at scale $(docv), \
                 as the store 'xmark' (document URI auction.xml).")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(value & opt int 7077
       & info [ "p"; "port" ] ~docv:"PORT"
           ~doc:"TCP port (0 picks an ephemeral port; the bound port is \
                 printed either way).")

let workers_arg =
  Arg.(value & opt int 4
       & info [ "workers" ] ~docv:"N" ~doc:"Executing worker threads.")

let queue_cap_arg =
  Arg.(value & opt int 64
       & info [ "queue-cap" ] ~docv:"N"
           ~doc:"Admission queue bound; a full queue sheds new requests \
                 with a wire-level resource error instead of buffering \
                 them.")

let client_cap_arg =
  Arg.(value & opt int 4
       & info [ "client-cap" ] ~docv:"N"
           ~doc:"Per-client in-flight request cap.")

let plan_cache_arg =
  Arg.(value & opt int 128
       & info [ "plan-cache" ] ~docv:"N"
           ~doc:"Capacity of the shared prepared-plan LRU cache.")

let timeout_arg =
  Arg.(value & opt float 10.
       & info [ "timeout" ] ~docv:"S"
           ~doc:"Per-request wall-clock ceiling in seconds; client t= \
                 wishes are clamped below it (<= 0 disarms).")

let max_rows_arg =
  Arg.(value & opt (some int) None
       & info [ "max-rows" ] ~docv:"N" ~doc:"Per-request row ceiling.")

let max_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "max-bytes" ] ~docv:"N" ~doc:"Per-request byte ceiling.")

let max_ops_arg =
  Arg.(value & opt (some int) None
       & info [ "max-ops" ] ~docv:"N"
           ~doc:"Per-request operator-evaluation ceiling.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Morsel-parallel execution width per query (default: \
                 XRQ_JOBS, else 1). The overload watchdog degrades this \
                 to 1 under sustained pool contention.")

let grace_arg =
  Arg.(value & opt float 5.
       & info [ "grace" ] ~docv:"S"
           ~doc:"Drain grace period: in-flight work still running $(docv) \
                 seconds after SIGTERM is budget-cancelled.")

let debug_arg =
  Arg.(value & flag & info [ "debug" ]
         ~doc:"Enable the SLEEP test request (holds a worker; used by the \
               test suite and load experiments).")

let wd_threshold_arg =
  Arg.(value & opt int 4
       & info [ "wd-threshold" ] ~docv:"N"
           ~doc:"Watchdog: pool-contention delta per tick that counts as \
                 a hot tick.")

let wd_degrade_arg =
  Arg.(value & opt int 3
       & info [ "wd-degrade-after" ] ~docv:"N"
           ~doc:"Watchdog: consecutive hot ticks before degrading to \
                 serial execution.")

let wd_recover_arg =
  Arg.(value & opt int 5
       & info [ "wd-recover-after" ] ~docv:"N"
           ~doc:"Watchdog: consecutive calm ticks before recovering.")

let tick_arg =
  Arg.(value & opt float 0.1
       & info [ "tick" ] ~docv:"S" ~doc:"Watchdog sampling period.")

let load_documents store specs =
  List.iter
    (fun spec ->
       match String.index_opt spec '=' with
       | Some i ->
         let uri = String.sub spec 0 i in
         let path = String.sub spec (i + 1) (String.length spec - i - 1) in
         ignore (Xmldb.Xml_parser.load_file store ~uri path)
       | None ->
         ignore
           (Xmldb.Xml_parser.load_file store ~uri:(Filename.basename spec)
              spec))
    specs

let serve docs xmark host port workers queue_cap client_cap plan_cache
    timeout max_rows max_bytes max_ops jobs grace debug wd_threshold
    wd_degrade wd_recover tick =
  let stores = ref [] in
  if docs <> [] || xmark = None then begin
    let main = Xmldb.Doc_store.create () in
    load_documents main docs;
    stores := [ ("main", main) ]
  end;
  (match xmark with
   | None -> ()
   | Some scale ->
     let st = Xmldb.Doc_store.create () in
     let _, bytes = Xmark.Xmark_gen.load ~scale st in
     Printf.eprintf "xmark: auction.xml, %.2f MB, %d nodes\n%!"
       (float_of_int bytes /. 1e6) (Xmldb.Doc_store.total_nodes st);
     stores := !stores @ [ ("xmark", st) ]);
  let ceiling =
    { Basis.Budget.unlimited with
      Basis.Budget.timeout_s = (if timeout > 0. then Some timeout else None);
      max_rows; max_bytes; max_ops }
  in
  let opts =
    { Engine.default_opts with
      Engine.jobs =
        (match jobs with
         | Some j -> max 1 j
         | None -> Engine.default_opts.Engine.jobs) }
  in
  let cfg =
    Server.config ~host ~port ~ceiling ~opts ~workers
      ~queue_capacity:queue_cap ~client_cap ~cache_capacity:plan_cache ~debug
      ~wd_threshold ~wd_degrade_after:wd_degrade ~wd_recover_after:wd_recover
      ~tick_s:tick ~stores:!stores ()
  in
  let t = Server.start cfg in
  (* the handlers go in before the readiness line: a SIGTERM sent the
     moment a client sees it must drain, not kill *)
  let stop_requested = Atomic.make false in
  let request_stop _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  (* the readiness line scripts and CI wait for — keep the format stable *)
  Printf.printf "listening on %s:%d\n%!" host (Server.port t);
  while not (Atomic.get stop_requested) do
    Thread.delay 0.05
  done;
  Printf.eprintf "serve: draining (grace %gs)...\n%!" grace;
  Server.stop ~grace_s:grace t;
  (* the flushed final counters: shed/admitted/completed survive in the
     process log even when no client asked for STATS *)
  Printf.eprintf "serve: final stats: %s\n%!"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ v) (Server.stats t)));
  0

let () =
  let info =
    Cmd.info "serve" ~version:"1.0.0"
      ~doc:"Concurrent XQuery server with admission control and load \
            shedding"
  in
  let term =
    Term.(const serve $ docs_arg $ xmark_arg $ host_arg $ port_arg
          $ workers_arg $ queue_cap_arg $ client_cap_arg $ plan_cache_arg
          $ timeout_arg $ max_rows_arg $ max_bytes_arg $ max_ops_arg
          $ jobs_arg $ grace_arg $ debug_arg $ wd_threshold_arg
          $ wd_degrade_arg $ wd_recover_arg $ tick_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
