(* The end-to-end benchmark program: one process runs one workload and
   prints one JSON result line (see README.md for the workloads, the
   metrics and why each was chosen).

     xbench <workload> --seed N --seconds S --trace 0|1

   Run from the root of a built checkout (serve-mixed starts
   _build/default/bin/serve.exe and keeps its files in .perfbench/).

   Workloads: xmark-adhoc, xmark-analytic (closed loop, in process) and
   serve-mixed (open loop against a bin/serve subprocess). With
   --trace 0 the result carries the end-to-end metrics, measured
   untraced; with --trace 1 it carries the per-layer metrics, taken by
   calling each layer's public functions in Engine.run's order and
   timing every call from here. Nothing inside lib/ is instrumented. *)

module Clock = Basis.Clock
module Prng = Basis.Prng
module Plan = Algebra.Plan
module P = Server.Protocol
module Session = Server.Session

let now = Clock.now

(* CPU time of this process, user + system. The closed-loop workloads
   run on one domain and time with it: on a shared host the wall clock
   also counts the time the process was runnable but not running (other
   tenants, hypervisor steal), which moves from run to run by more than
   any regression worth catching. CPU-clock figures are means, not
   medians: they have no scheduling outliers, and the host's speed flips
   between levels for seconds at a time, where a median jumps from one
   level to the other and a mean moves in proportion. *)
let cpu = Sys.time

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("xbench: " ^ m); exit 2) fmt

(* ------------------------------------------------------------ statistics *)

let sorted l = List.sort Float.compare l

let median l =
  match sorted l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* The highest percentile, at most p99, that has at least ten samples
   beyond it; the maximum when there are too few samples for that. *)
let tail l =
  match sorted l with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let p99 = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
    a.(if n - 11 < 0 then n - 1 else max 0 (min p99 (n - 11)))

let geomean = function
  | [] -> 0.
  | l ->
    exp
      (List.fold_left (fun acc x -> acc +. log (Float.max x 1e-9)) 0. l
       /. float_of_int (List.length l))

(* Per-template latency samples, in seconds, kept in first-seen order so
   reports list templates stably. *)
module Samples = struct
  type t = { tbl : (string, float list ref) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 32; order = [] }

  let add t name x =
    match Hashtbl.find_opt t.tbl name with
    | Some r -> r := x :: !r
    | None ->
      Hashtbl.add t.tbl name (ref [ x ]);
      t.order <- t.order @ [ name ]

  let per_template t f =
    List.map (fun n -> (n, f !(Hashtbl.find t.tbl n))) t.order

  (* geometric mean over templates of a per-template statistic, in ms *)
  let geomean_ms t f = 1000. *. geomean (List.map snd (per_template t f))

  let all t = List.concat_map (fun n -> !(Hashtbl.find t.tbl n)) t.order

  (* The tail of every sample over its own template's median, pooled. A
     closed loop has too few samples of one template for a tail of its
     own, and a percentile over the raw mix would land between two
     templates and flip between them from run to run; scaled by the
     geomean of the medians, this gives a tail weighted like it. *)
  let tail_ratio t =
    tail
      (List.concat_map
         (fun n ->
            let l = !(Hashtbl.find t.tbl n) in
            let m = median l in
            List.map (fun x -> x /. m) l)
         t.order)
end

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* -------------------------------------------------------------- outcome *)

(* Every operation the run attempted, and the ones that failed: errors,
   sheds, wrong outputs, and check mismatches. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

let fail_msg fmt =
  Printf.ksprintf (fun m -> prerr_endline ("xbench: FAIL " ^ m)) fmt

(* ------------------------------------------------------------ templates *)

type template = {
  name : string;
  text : string;
  slots : (string * string array) list;
      (* literal in [text] -> the values a request may put in its place *)
  unordered : bool;  (* ordering mode unordered: compare as multisets *)
}

let ints lo hi step =
  Array.of_list
    (List.init (((hi - lo) / step) + 1) (fun i -> string_of_int (lo + (i * step))))

let quoted a = Array.map (Printf.sprintf "\"%s\"") a
let persons = quoted (Array.init 50 (Printf.sprintf "person%d"))
let regions = [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]
let words = quoted [| "gold"; "silver"; "great"; "understand"; "shakespeare"; "preserver"; "honour" |]

(* Literal slots of the XMark texts. Queries without a literal of their
   own (Q8, Q10, Q15-Q17, Q19) differ per request only by their leading
   request comment, which the plan cache keys on because the texts
   contain direct constructors. *)
let xmark_slots = function
  | "Q1" -> [ ({|"person0"|}, persons) ]
  | "Q2" -> [ ("bidder[1]", Array.map (Printf.sprintf "bidder[%s]") (ints 1 6 1)) ]
  | "Q3" -> [ ("* 2 <=", Array.map (Printf.sprintf "* %s <=") (ints 1 6 1)) ]
  | "Q4" -> [ ({|"person2"|}, persons); ({|"person5"|}, persons) ]
  | "Q5" -> [ (">= 40", Array.map (( ^ ) ">= ") (ints 10 150 10)) ]
  | "Q6" ->
    [ ("//site/regions return",
       Array.map (Printf.sprintf "//site/regions/%s return") regions) ]
  | "Q7" ->
    [ ("count($p//emailaddress)",
       Array.map (Printf.sprintf "count($p//%s)")
         [| "emailaddress"; "keyword"; "listitem"; "parlist"; "mail";
            "bidder"; "interest"; "watch" |]) ]
  | "Q9" -> [ ("regions/europe/item", Array.map (Printf.sprintf "regions/%s/item") regions) ]
  | "Q11" -> [ ("5000 *", Array.map (fun v -> v ^ " *") (ints 1000 9000 1000)) ]
  | "Q12" ->
    [ ("5000 *", Array.map (fun v -> v ^ " *") (ints 1000 9000 1000));
      ("> 50000", Array.map (( ^ ) "> ") (ints 20000 90000 10000)) ]
  | "Q13" ->
    [ ("regions/australia/item", Array.map (Printf.sprintf "regions/%s/item") regions) ]
  | "Q14" -> [ ({|"gold"|}, words) ]
  | "Q18" -> [ ("2.20371", [| "2.20371"; "1.5"; "0.9"; "3.14159"; "1.1"; "4.25"; "0.5" |]) ]
  | "Q20" -> [ ("100000", ints 70000 140000 10000); ("30000", ints 20000 45000 5000) ]
  | _ -> []

(* The corpus queries that target auction.xml, read from queries/. *)
let corpus =
  [ ("existential_join",
     [ ("closed_auction/buyer",
        Array.map (Printf.sprintf "closed_auction[price >= %s]/buyer") (ints 0 90 10)) ]);
    ("gold_items", [ ({|"gold"|}, words) ]);
    ("income_histogram",
     [ ("100000", ints 70000 140000 10000); ("30000", ints 20000 45000 5000) ]);
    ("paper_q11", [ ("5000 *", Array.map (fun v -> v ^ " *") (ints 1000 9000 1000)) ]);
    ("paper_q6",
     [ ("//site/regions return",
        Array.map (Printf.sprintf "//site/regions/%s return") regions) ]);
    ("quantifier_semijoin",
     [ ("2 * zero-or-one", Array.map (fun v -> v ^ " * zero-or-one") (ints 1 6 1)) ]);
    ("top_sellers", []);
    ("xpath_existentials", []) ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let replace_all ~needle ~by s =
  let n = String.length s and m = String.length needle in
  let b = Buffer.create (n + 16) in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = needle then begin
      Buffer.add_string b by;
      i := !i + m
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let make_template name text slots =
  List.iter
    (fun (needle, _) ->
       if not (contains text needle) then
         die "template %s: literal %S not found in its text" name needle)
    slots;
  { name; text; slots; unordered = contains text "declare ordering unordered" }

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> die "%s" m
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))

let xmark_templates () =
  List.map (fun (n, q) -> make_template n q (xmark_slots n)) Xmark.Xmark_queries.all

let corpus_templates () =
  List.map
    (fun (n, slots) -> make_template n (read_file ("queries/" ^ n ^ ".xq")) slots)
    corpus

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [k] request texts of a template: variant [i] takes entry [i] of a
   seeded permutation of each slot's values, so variants differ in their
   literals (every slot has at least [k] values), and carries a request
   comment naming its template. *)
let variants rng ~k t =
  let perms = List.map (fun (needle, vals) -> (needle, shuffle rng vals)) t.slots in
  Array.init k (fun i ->
      let body =
        List.fold_left
          (fun s (needle, vals) ->
             replace_all ~needle ~by:vals.(i mod Array.length vals) s)
          t.text perms
      in
      Printf.sprintf "(: request %s/%d :)\n%s" t.name i body)

(* ------------------------------------------------------------ documents *)

type setup = { store : Xmldb.Doc_store.t; xml : string; gen_s : float; parse_s : float }

(* Generate + parse + freeze an XMark document from the seed. *)
let build_store ?(clock = now) ~seed ~scale () =
  let t0 = clock () in
  let xml = Xmark.Xmark_gen.generate ~seed ~scale () in
  let t1 = clock () in
  let store = Xmldb.Doc_store.create () in
  ignore (Xmldb.Xml_parser.load_document store ~uri:"auction.xml" xml);
  let t2 = clock () in
  { store; xml; gen_s = t1 -. t0; parse_s = t2 -. t1 }

(* Set up repeatedly -- at least five times, until two seconds have been
   spent or 60 set-ups were made; [f] returns a result and its set-up
   time. Returns the last result and every set-up time; earlier results
   are dropped as soon as the next one exists. *)
let repeat_setup f =
  let rec go last times total n =
    if n >= 5 && (total >= 2.0 || n >= 60) then (Option.get last, times)
    else begin
      let x, dt = f () in
      go (Some x) (dt :: times) (total +. dt) (n + 1)
    end
  in
  go None [] 0. 0

(* Returns the store and the mean set-up, generate and parse times, on
   the CPU clock. *)
let timed_setup ~seed ~scale =
  let gens = ref [] and parses = ref [] in
  let s, times =
    repeat_setup (fun () ->
        Gc.compact ();
        let s = build_store ~clock:cpu ~seed ~scale () in
        gens := s.gen_s :: !gens;
        parses := s.parse_s :: !parses;
        (s, s.gen_s +. s.parse_s))
  in
  Gc.compact ();
  (s, mean times, mean !gens, mean !parses)

(* -------------------------------------------------------------- checks *)

let interp_output store ~unordered items =
  if unordered then
    String.concat "\n"
      (List.sort compare (List.map (fun it -> Interp.Xdm.serialize store [ it ]) items))
  else Interp.Xdm.serialize store items

(* The reference interpreter's answer for [text], in the form that the
   engine's answer must equal. *)
let reference store ~unordered text =
  interp_output store ~unordered (Interp.Interpreter.run store text)

(* Check every text against the reference interpreter on [store]. *)
let check_against_interp ~opts store texts =
  List.iter
    (fun (t, text) ->
       let ok =
         match Engine.run ~opts store text with
         | r ->
           let got =
             if t.unordered then interp_output store ~unordered:true r.Engine.items
             else r.Engine.serialized
           in
           got = reference store ~unordered:t.unordered text
         | exception e ->
           fail_msg "%s: engine raised %s" t.name (Printexc.to_string e);
           false
       in
       if not ok then fail_msg "%s: engine output differs from the interpreter" t.name;
       attempt ok)
    texts

(* On a timed document every repetition of a text must answer what its
   first run answered. *)
let firsts : (string, Digest.t) Hashtbl.t = Hashtbl.create 256

let same_as_first ~name text serialized =
  let d = Digest.string serialized in
  match Hashtbl.find_opt firsts text with
  | None -> Hashtbl.add firsts text d; true
  | Some d0 ->
    if d0 <> d then fail_msg "%s: output differs from its first run" name;
    d0 = d

(* ------------------------------------------------------------- metrics *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 128
let put = Hashtbl.replace metrics

let print_result ~correct ~names =
  let fmt_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit) ->
            let v = Option.value ~default:0. (Hashtbl.find_opt metrics name) in
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_float v) unit)
         names)
  in
  List.iter
    (fun (name, unit) ->
       match Hashtbl.find_opt metrics name with
       | Some v -> Printf.eprintf "  %-36s %14.4f %s\n" name v unit
       | None -> ())
    names;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 tally.attempted) tally.failed body

let end_to_end =
  [ ("setup_s", "s"); ("queries_per_s", "1/s"); ("geomean_query_ms", "ms");
    ("goodput_qps", "1/s"); ("peak_rss_mb", "MB") ]

let buckets =
  [ ("path steps", "physical.path_steps_ms"); ("join", "physical.join_ms");
    ("order (rownum %)", "physical.order_ms");
    ("construction", "physical.construction_ms");
    ("aggregation", "physical.aggregation_ms");
    ("arithmetic/comparison", "physical.arith_cmp_ms");
    ("selection", "physical.selection_ms");
    ("duplicate elimination", "physical.distinct_ms");
    ("plumbing", "physical.plumbing_ms") ]

let template_names =
  List.map fst Xmark.Xmark_queries.all @ List.map fst corpus

let per_layer =
  [ ("xquery.parse_ms", "ms"); ("xquery.normalize_ms", "ms");
    ("core.compile_ms", "ms"); ("core.cda_ms", "ms");
    ("core.plan_ops_raw", "count"); ("core.plan_ops_optimized", "count");
    ("rewrite.ms", "ms"); ("rewrite.rule_fires", "count"); ("lower.ms", "ms");
    ("physical.exec_ms", "ms") ]
  @ List.map (fun (_, m) -> (m, "ms")) buckets
  @ [ ("physical.other_ms", "ms"); ("physical.kernels", "count");
      ("physical.rows_out", "count"); ("physical.mat_forced", "count");
      ("physical.sorts_to_merges", "count"); ("physical.code_preds", "count");
      ("physical.late_materializations", "count");
      ("xmldb.bulk_decodes", "count"); ("xmldb.nodes_appended", "count") ]
  @ List.map (fun n -> ("xmldb.nodes_appended." ^ n, "count")) template_names
  @ [ ("xmldb.generate_s", "s"); ("xmldb.parse_s", "s"); ("serialize.ms", "ms");
      ("engine.unattributed_ms", "ms"); ("engine.traced_ms", "ms");
      ("trace.overhead_ms", "ms"); ("e2e.latency_p50_ms", "ms");
      ("e2e.latency_p99_ms", "ms"); ("plan_cache.hit_ratio", "ratio");
      ("pool.contended", "count"); ("pool.parallel_speedup", "ratio");
      ("e2e.wall_queries_per_s", "1/s"); ("e2e.wall_geomean_query_ms", "ms");
      ("session.query_ms", "ms");
      ("server.overhead_ms", "ms"); ("server.admitted", "count");
      ("server.completed", "count"); ("server.shed_full", "count");
      ("server.degradations", "count"); ("server.startup_sigterm_lost", "count");
      ("loadgen.late_p99_ms", "ms");
      ("paper.fig12_speedup_geomean", "ratio") ]
  @ List.map (fun (n, _) -> ("paper.fig12_speedup." ^ n, "ratio")) Xmark.Xmark_queries.all

(* ------------------------------------------------------ traced pipeline *)

(* Per-query phase accumulators of the traced run, in seconds. *)
type acc = {
  mutable queries : int;
  mutable compiles : int;
  mutable parse : float;
  mutable normalize : float;
  mutable compile : float;
  mutable cda : float;
  mutable rewrite : float;
  mutable lower : float;
  mutable exec : float;
  mutable serialize : float;
  mutable wall : float;
  mutable ops_raw : int;
  mutable ops_opt : int;
  mutable fires : int;
  mutable bulk : int;
  mutable appended : int;
  phys : Algebra.Profile.phys;
  bucket_s : (string, float) Hashtbl.t;
  appended_by : (string, int list) Hashtbl.t;
}

let new_acc () =
  { queries = 0; compiles = 0; parse = 0.; normalize = 0.; compile = 0.; cda = 0.;
    rewrite = 0.; lower = 0.; exec = 0.; serialize = 0.; wall = 0.; ops_raw = 0;
    ops_opt = 0; fires = 0; bulk = 0; appended = 0;
    phys = Algebra.Profile.phys (Algebra.Profile.create ());
    bucket_s = Hashtbl.create 16; appended_by = Hashtbl.create 32 }

(* Engine.run's profile buckets (the labels of the paper's Table 2). *)
let label_plan root =
  List.iter
    (fun (n : Plan.node) ->
       if n.Plan.label = "" then
         Plan.set_label n
           (match n.Plan.op with
            | Plan.Step _ | Plan.Doc _ | Plan.Id_lookup _ -> "path steps"
            | Plan.Rownum _ -> "order (rownum %)"
            | Plan.Join _ | Plan.Thetajoin _ | Plan.Cross _ | Plan.Semijoin _
            | Plan.Antijoin _ -> "join"
            | Plan.Elem _ | Plan.Attr _ | Plan.Textnode _ | Plan.Commentnode _
            | Plan.Pinode _ | Plan.Textify _ -> "construction"
            | Plan.Aggr _ -> "aggregation"
            | Plan.Fun1 _ | Plan.Fun2 _ | Plan.Fun3 _ -> "arithmetic/comparison"
            | Plan.Select _ -> "selection"
            | Plan.Distinct _ -> "duplicate elimination"
            | Plan.Project _ | Plan.Attach _ | Plan.Rowid _ | Plan.Lit _
            | Plan.Union _ | Plan.Range _ -> "plumbing"))
    (Plan.topo_order root)

let items_of_table ~pos_sorted t =
  let n = Algebra.Table.nrows t in
  if pos_sorted then List.init n (fun i -> Algebra.Table.get t "item" i)
  else
    List.init n (fun i ->
        (Algebra.Value.int_value (Algebra.Table.get t "pos" i), Algebra.Table.get t "item" i))
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd

type prepared = { physical : Algebra.Physical.pnode; pos_sorted : bool }

(* One query through the public functions of each layer, in Engine.run's
   order: parse -> normalize -> compile -> CDA -> rewrite -> CDA ->
   rewrite -> CDA -> lower -> execute -> root sort -> serialize. With
   [plans] the prepared plan is reused as the plan cache would, so only
   the first run of a text pays the front end. Returns the serialized
   result. *)
let traced_run acc ~clock ~(opts : Engine.opts) ?plans store text =
  let t_start = clock () in
  let timed add f =
    let t0 = clock () in
    let r = f () in
    add (clock () -. t0);
    r
  in
  let compile () =
    acc.compiles <- acc.compiles + 1;
    let q = timed (fun d -> acc.parse <- acc.parse +. d) (fun () -> Xquery.Parser.parse_query text) in
    let core =
      timed (fun d -> acc.normalize <- acc.normalize +. d) (fun () ->
          Xquery.Normalize.normalize_query ?mode_override:opts.Engine.mode q)
    in
    let cfg =
      { (Exrquy.Compile.default_cfg ()) with
        Exrquy.Compile.unordered_rules = opts.Engine.unordered_rules;
        hoist = opts.Engine.hoist; join_rec = opts.Engine.join_rec;
        join_isolation = opts.Engine.join_isolation }
    in
    let _, raw =
      timed (fun d -> acc.compile <- acc.compile +. d) (fun () ->
          Exrquy.Compile.compile_core ~cfg core)
    in
    let cda p =
      if opts.Engine.cda then
        timed (fun d -> acc.cda <- acc.cda +. d) (fun () ->
            Exrquy.Icols.optimize cfg.Exrquy.Compile.b p)
      else p
    in
    let stats = Engine.stats_of_store store in
    let rewrite p =
      let p', s =
        timed (fun d -> acc.rewrite <- acc.rewrite +. d) (fun () ->
            Algebra.Rewrite.optimize ~order_props:opts.Engine.order_props
              ~join_isolation:opts.Engine.join_isolation ~stats cfg.Exrquy.Compile.b p)
      in
      acc.fires <- acc.fires + Algebra.Rewrite.total_fires s;
      if p'.Plan.id <> p.Plan.id then cda p' else p'
    in
    let optimized = cda raw in
    let optimized =
      if opts.Engine.rewrite then rewrite (rewrite optimized) else optimized
    in
    acc.ops_raw <- acc.ops_raw + Plan.count_ops raw;
    acc.ops_opt <- acc.ops_opt + Plan.count_ops optimized;
    label_plan optimized;
    let physical =
      timed (fun d -> acc.lower <- acc.lower +. d) (fun () ->
          Engine.lower_physical ~stats ~order_props:opts.Engine.order_props optimized)
    in
    let pos_sorted =
      opts.Engine.order_props
      && Algebra.Order.satisfies (Algebra.Order.make ()) optimized [ ("pos", Plan.Asc) ]
    in
    { physical; pos_sorted }
  in
  let p =
    match plans with
    | None -> compile ()
    | Some tbl ->
      (match Hashtbl.find_opt tbl text with
       | Some p -> p
       | None ->
         let p = compile () in
         Hashtbl.add tbl text p;
         p)
  in
  let profile = Algebra.Profile.create () in
  let bulk0 = Xmldb.Doc_store.Stats.bulk_decodes () in
  let nodes0 = Xmldb.Doc_store.total_nodes store in
  let table =
    timed (fun d -> acc.exec <- acc.exec +. d) (fun () ->
        Algebra.Physical.run ~profile ~step_impl:opts.Engine.step_impl
          ~mode:opts.Engine.eval_mode ~jobs:opts.Engine.jobs
          ~code_eval:opts.Engine.code_eval store p.physical)
  in
  acc.bulk <- acc.bulk + (Xmldb.Doc_store.Stats.bulk_decodes () - bulk0);
  let items = items_of_table ~pos_sorted:p.pos_sorted table in
  let out =
    timed (fun d -> acc.serialize <- acc.serialize +. d) (fun () ->
        Interp.Xdm.serialize store items)
  in
  acc.wall <- acc.wall +. (clock () -. t_start);
  acc.queries <- acc.queries + 1;
  (* counted after the clock stops: appended nodes, profile fold-in *)
  acc.appended <- acc.appended + (Xmldb.Doc_store.total_nodes store - nodes0);
  let ph = Algebra.Profile.phys profile and a = acc.phys in
  a.Algebra.Profile.kernels <- a.Algebra.Profile.kernels + ph.Algebra.Profile.kernels;
  a.rows_out <- a.rows_out + ph.rows_out;
  a.mat_forced <- a.mat_forced + ph.mat_forced;
  a.sorts_to_merges <- a.sorts_to_merges + ph.sorts_to_merges;
  a.code_preds <- a.code_preds + ph.code_preds;
  a.late_materializations <- a.late_materializations + ph.late_materializations;
  List.iter
    (fun (label, s) ->
       let prev = Option.value ~default:0. (Hashtbl.find_opt acc.bucket_s label) in
       Hashtbl.replace acc.bucket_s label (prev +. s))
    (Algebra.Profile.rows profile);
  (out, Xmldb.Doc_store.total_nodes store - nodes0)

let note_appended acc name n =
  let prev = Option.value ~default:[] (Hashtbl.find_opt acc.appended_by name) in
  Hashtbl.replace acc.appended_by name (n :: prev)

(* Per-query means of the traced phases; they add up to engine.traced_ms. *)
let report_acc acc =
  let q = float_of_int (max 1 acc.queries) in
  let ms x = 1000. *. x /. q and per x = float_of_int x /. q in
  let c = float_of_int (max 1 acc.compiles) in
  put "xquery.parse_ms" (ms acc.parse);
  put "xquery.normalize_ms" (ms acc.normalize);
  put "core.compile_ms" (ms acc.compile);
  put "core.cda_ms" (ms acc.cda);
  put "core.plan_ops_raw" (float_of_int acc.ops_raw /. c);
  put "core.plan_ops_optimized" (float_of_int acc.ops_opt /. c);
  put "rewrite.ms" (ms acc.rewrite);
  put "rewrite.rule_fires" (float_of_int acc.fires /. c);
  put "lower.ms" (ms acc.lower);
  put "physical.exec_ms" (ms acc.exec);
  let known = List.map fst buckets in
  List.iter
    (fun (label, m) ->
       put m (ms (Option.value ~default:0. (Hashtbl.find_opt acc.bucket_s label))))
    buckets;
  put "physical.other_ms"
    (ms (Hashtbl.fold
           (fun l s tot -> if List.mem l known then tot else tot +. s)
           acc.bucket_s 0.));
  let a = acc.phys in
  put "physical.kernels" (per a.Algebra.Profile.kernels);
  put "physical.rows_out" (per a.rows_out);
  put "physical.mat_forced" (per a.mat_forced);
  put "physical.sorts_to_merges" (per a.sorts_to_merges);
  put "physical.code_preds" (per a.code_preds);
  put "physical.late_materializations" (per a.late_materializations);
  put "xmldb.bulk_decodes" (per acc.bulk);
  put "xmldb.nodes_appended" (per acc.appended);
  Hashtbl.iter
    (fun name l ->
       put ("xmldb.nodes_appended." ^ name) (median (List.map float_of_int l)))
    acc.appended_by;
  put "serialize.ms" (ms acc.serialize);
  let phases =
    acc.parse +. acc.normalize +. acc.compile +. acc.cda +. acc.rewrite +. acc.lower
    +. acc.exec +. acc.serialize
  in
  put "engine.unattributed_ms" (ms (acc.wall -. phases));
  put "engine.traced_ms" (ms acc.wall)

(* ------------------------------------------------------ Fig. 12 (paper) *)

(* Execution time under the ordered baseline over execution time with
   order indifference exploited, per XMark query, on [store]. A query
   whose baseline run exceeds the budget is left out (reported as 0). *)
let fig12 ~clock ~jobs store =
  let budget =
    Some { Basis.Budget.unlimited with
           Basis.Budget.timeout_s = Some 5.0; max_rows = Some 20_000_000 }
  in
  let unordered =
    { Engine.default_opts with
      Engine.mode = Some Xquery.Ast.Unordered; jobs; budget }
  in
  let baseline = { Engine.ordered_baseline with Engine.jobs; budget } in
  let exec_time opts q =
    let _, run = Engine.prepare ~opts store q in
    let once () =
      let t0 = clock () in
      ignore (run ());
      clock () -. t0
    in
    let first = once () in
    if first > 1.0 then first else median [ first; once (); once () ]
  in
  let speedups =
    List.filter_map
      (fun (name, q) ->
         match exec_time baseline q, exec_time unordered q with
         | tb, tu ->
           let s = tb /. Float.max tu 1e-9 in
           put ("paper.fig12_speedup." ^ name) s;
           Some s
         | exception e ->
           Printf.eprintf "xbench: fig12 %s skipped (%s)\n%!" name (Printexc.to_string e);
           None)
      Xmark.Xmark_queries.all
  in
  put "paper.fig12_speedup_geomean" (geomean speedups)

(* ---------------------------------------------------- closed-loop runs *)

type closed = {
  label : string;
  scale : float;
  check_scale : float;
  jobs : int;
  reuse_plans : bool;  (* the traced run reuses plans: the cache is warm *)
  pool_probe : bool;   (* the traced run also times a pass at jobs=2 *)
  limit_s : float;     (* latency limit for goodput *)
  pass : int -> (template * string) array;  (* the requests of pass [i] *)
  check_texts : (template * string) list;
}

let engine_opts jobs = { Engine.default_opts with Engine.jobs }

(* Run whole passes until [seconds] of wall time have elapsed (at least
   one), timing each Engine.run from text to serialized string on the
   CPU clock and on the wall clock. [on_pass] sees the index of each
   completed pass. Returns the CPU and wall latencies of the correct
   queries, and the number within the latency limit. *)
let closed_loop w ~opts ~cache ~seconds ~first_pass ~on_pass store =
  let lat = Samples.create () and wall_lat = Samples.create () in
  let good = ref 0 in
  let t_start = now () in
  let i = ref first_pass in
  while !i = first_pass || now () -. t_start < seconds do
    Array.iter
      (fun (t, text) ->
         let w0 = now () and t0 = cpu () in
         let res = match Engine.run ~cache ~opts store text with
           | r -> Ok r | exception e -> Error e in
         let dt = cpu () -. t0 and wall_dt = now () -. w0 in
         let fine =
           match res with
           | Ok r ->
             r.Engine.degraded = None && same_as_first ~name:t.name text r.Engine.serialized
           | Error e ->
             fail_msg "%s: %s" t.name (Printexc.to_string e);
             false
         in
         attempt fine;
         if fine then begin
           if dt <= w.limit_s then incr good;
           Samples.add lat t.name dt;
           Samples.add wall_lat t.name wall_dt
         end)
      (w.pass !i);
    on_pass !i;
    incr i
  done;
  (lat, wall_lat, !good)

(* One pass of the workload's fixed texts, timed on the wall clock.
   Outputs must equal the first ones. *)
let wall_pass w ~opts ~cache store =
  let t0 = now () in
  Array.iter
    (fun (t, text) ->
       attempt
         (match Engine.run ~cache ~opts store text with
          | r -> r.Engine.degraded = None && same_as_first ~name:t.name text r.Engine.serialized
          | exception e ->
            fail_msg "%s (jobs=%d): %s" t.name opts.Engine.jobs (Printexc.to_string e);
            false))
    (w.pass 0);
  now () -. t0

(* The morsel-parallel path through Basis.Pool: a pass at jobs=2, on a
   cache of its own, against a serial pass on the same store. The first
   parallel pass spawns the pool's domains and fills the cache; the
   second is timed. Returns serial over parallel wall time. *)
let parallel_speedup w ~cache store =
  let serial = wall_pass w ~opts:(engine_opts 1) ~cache store in
  let opts = engine_opts 2 and cache = Engine.create_cache () in
  ignore (wall_pass w ~opts ~cache store);
  serial /. wall_pass w ~opts ~cache store

let run_closed w ~seed ~seconds ~trace =
  let check = build_store ~seed ~scale:w.check_scale () in
  let opts = engine_opts w.jobs in
  check_against_interp ~opts check.store w.check_texts;
  let s, setup_s, gen_s, parse_s = timed_setup ~seed ~scale:w.scale in
  let store = s.store in
  let cache = Engine.create_cache () in
  (* warm-up pass: fills the plan cache where texts repeat, and records
     the first output of every text *)
  let _ = closed_loop w ~opts ~cache ~seconds:0. ~first_pass:0 ~on_pass:ignore store in
  let rss = ref 0. in
  let seconds = if trace then seconds /. 2. else seconds in
  let c0 = Engine.cache_stats cache in
  let w0 = now () in
  let lat, wall_lat, good =
    closed_loop w ~opts ~cache ~seconds ~first_pass:1
      ~on_pass:(fun i -> if i = 1 then rss := vm_hwm_mb "self") store
  in
  let wall_s = now () -. w0 in
  let all = Samples.all lat in
  let n = float_of_int (List.length all) and cpu_s = List.fold_left ( +. ) 0. all in
  let c1 = Engine.cache_stats cache in
  let geo = Samples.geomean_ms lat mean in
  let p50 = Samples.geomean_ms lat median in
  put "setup_s" setup_s;
  put "queries_per_s" (n /. cpu_s);
  put "geomean_query_ms" geo;
  put "goodput_qps" (float_of_int good /. cpu_s);
  put "peak_rss_mb" !rss;
  put "e2e.latency_p50_ms" p50;
  put "e2e.latency_p99_ms" (p50 *. Samples.tail_ratio lat);
  put "e2e.wall_queries_per_s" (n /. wall_s);
  put "e2e.wall_geomean_query_ms" (Samples.geomean_ms wall_lat median);
  Printf.eprintf "%s: %d queries over %d templates; per-template mean CPU ms:\n" w.label
    (List.length all) (List.length lat.Samples.order);
  List.iter
    (fun (n, m) -> Printf.eprintf "  %-22s %10.3f\n" n (1000. *. m))
    (Samples.per_template lat mean);
  if trace then begin
    put "xmldb.generate_s" gen_s;
    put "xmldb.parse_s" parse_s;
    let hits = c1.Engine.Plan_cache.hits - c0.Engine.Plan_cache.hits in
    let misses = c1.Engine.Plan_cache.misses - c0.Engine.Plan_cache.misses in
    put "plan_cache.hit_ratio"
      (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    let acc = new_acc () in
    let plans = if w.reuse_plans then Some (Hashtbl.create 64) else None in
    let traced = Samples.create () in
    let t_start = now () in
    let i = ref 1 in
    while !i = 1 || now () -. t_start < seconds do
      Array.iter
        (fun (t, text) ->
           let t0 = cpu () in
           let fine =
             match traced_run acc ~clock:cpu ~opts ?plans store text with
             | out, appended ->
               Samples.add traced t.name (cpu () -. t0);
               note_appended acc t.name appended;
               (* equal to Engine.run's output for the same text *)
               same_as_first ~name:t.name text out
             | exception e ->
               fail_msg "%s (traced): %s" t.name (Printexc.to_string e);
               false
           in
           attempt fine)
        (w.pass !i);
      incr i
    done;
    report_acc acc;
    put "trace.overhead_ms" (Samples.geomean_ms traced mean -. geo);
    fig12 ~clock:cpu ~jobs:w.jobs store;
    if w.pool_probe then begin
      let contended0 = Basis.Pool.contended (Basis.Pool.get ()) in
      put "pool.parallel_speedup" (parallel_speedup w ~cache store);
      put "pool.contended"
        (float_of_int (Basis.Pool.contended (Basis.Pool.get ()) - contended0))
    end
  end

let adhoc ~seed =
  let rng = Prng.create (seed * 2 + 1) in
  let k = 6 in
  let templates = xmark_templates () @ corpus_templates () in
  let vs = List.map (fun t -> (t, variants rng ~k t)) templates |> Array.of_list in
  let order_rng = Prng.create (seed * 2 + 2) in
  (* pass i: every template once, in a seeded order, using variant i mod k;
     a text recurs after k passes (k x 28 requests > the 64-entry cache) *)
  let pass i =
    Array.map (fun (t, v) -> (t, v.(i mod k))) (shuffle order_rng vs)
  in
  { label = "xmark-adhoc"; scale = 0.005; check_scale = 0.002; jobs = 1;
    reuse_plans = false; pool_probe = false; limit_s = 0.25; pass;
    check_texts =
      Array.to_list vs
      |> List.concat_map (fun (t, v) -> List.map (fun x -> (t, x)) (Array.to_list v)) }

let analytic ~seed =
  let templates = Array.of_list (xmark_templates ()) in
  let order_rng = Prng.create (seed * 2 + 2) in
  let pass _ = Array.map (fun t -> (t, t.text)) (shuffle order_rng templates) in
  { label = "xmark-analytic"; scale = 0.05; check_scale = 0.002; jobs = 1;
    reuse_plans = true; pool_probe = true; limit_s = 5.0; pass;
    check_texts = Array.to_list (Array.map (fun t -> (t, t.text)) templates) }

(* --------------------------------------------------------- serve-mixed *)

let serve_scale = 0.02
let serve_rate = 50.        (* requests per second, open loop *)
let serve_limit_s = 0.1     (* latency limit for goodput *)

(* One scheduled request: its template label, wire line, and the reply
   payload it must get (None: an ingest, answered with OK 0). *)
type sreq = {
  kind : string;
  line : string;
  qtext : string;  (* query text ("" for an ingest) *)
  expect : string option;
}

let ingest_xml rng i =
  let b = Buffer.create 1024 in
  Printf.bprintf b "<batch n=\"%d\">" i;
  for r = 0 to 19 do
    Printf.bprintf b "<rec id=\"r%d\"><v>%d</v><w>%s</w></rec>" r (Prng.int rng 100000)
      (if Prng.bool rng then "alpha" else "beta")
  done;
  Buffer.add_string b "</batch>";
  Buffer.contents b

let statement_names = [ "Q1"; "Q5"; "Q6"; "Q7"; "Q14"; "Q18"; "existential_join"; "paper_q6" ]
let adhoc_names = [ "Q1"; "Q4"; "Q5"; "Q14"; "Q18"; "existential_join" ]
let writer_names = [ "Q2"; "Q13"; "Q17"; "Q20" ]

(* The mix, from the seed: Poisson arrivals at [serve_rate]; 70% prepared
   read-only statements (E), 15% ad-hoc queries (Q), 10% constructing
   queries that take the store's write lock (Q), 5% ingests into the
   session-private store (L). Replies are checked against the reference
   interpreter on the same document. *)
let serve_mix ~seed ~seconds store =
  let rng = Prng.create (seed * 2 + 3) in
  let by_name = Hashtbl.create 32 in
  List.iter (fun t -> Hashtbl.replace by_name t.name t) (xmark_templates () @ corpus_templates ());
  let tmpl n = Hashtbl.find by_name n in
  let refs = Hashtbl.create 64 in
  let expect t text =
    match Hashtbl.find_opt refs text with
    | Some r -> r
    | None ->
      let r = reference store ~unordered:t.unordered text in
      Hashtbl.add refs text r;
      r
  in
  let statements = List.map (fun n -> ("s_" ^ n, tmpl n)) statement_names in
  let pool names =
    Array.of_list
      (List.concat_map
         (fun n -> let t = tmpl n in Array.to_list (Array.map (fun v -> (t, v)) (variants rng ~k:6 t)))
         names)
  in
  let adhoc_pool = pool adhoc_names and writer_pool = pool writer_names in
  let stmts = Array.of_list statements in
  let n = int_of_float (serve_rate *. seconds) in
  let t = ref 0. in
  let reqs =
    Array.init n (fun i ->
        t := !t +. (-. log (1. -. Prng.float rng) /. serve_rate);
        let u = Prng.float rng in
        let r =
          if u < 0.70 then
            let name, tm = Prng.pick rng stmts in
            { kind = "E:" ^ tm.name;
              line = P.render_request (P.Exec { itemized = false; timeout_s = None; name });
              qtext = tm.text; expect = Some (expect tm tm.text) }
          else if u < 0.95 then
            let tm, text = Prng.pick rng (if u < 0.85 then adhoc_pool else writer_pool) in
            { kind = "Q:" ^ tm.name;
              line = P.render_request (P.Query { itemized = false; timeout_s = None; text });
              qtext = text; expect = Some (expect tm text) }
          else
            let xml = ingest_xml rng i in
            { kind = "L";
              line =
                P.render_request
                  (P.Load { timeout_s = None; uri = Printf.sprintf "ingest%d.xml" i; xml });
              qtext = ""; expect = None }
        in
        (!t, r))
  in
  (* rescaled so that the last request is due at [seconds]: every seed
     offers exactly [serve_rate] requests per second *)
  let span = !t in
  (statements, Array.map (fun (at, r) -> (at *. seconds /. span, r)) reqs)

let reply_ok (r : sreq) line =
  match P.parse_response line, r.expect with
  | Ok (P.Resp_ok (0, _)), None -> true
  | Ok (P.Resp_ok (_, field)), Some want -> P.payload_of field = want
  | _ -> false

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable inflight : (sreq * float * float) option;  (* request, due, sent *)
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Buffer.create 4096; inflight = None }

let chunk = Bytes.create 65536

(* Read what is available; return the complete lines received. *)
let read_lines c =
  let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if k = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf chunk 0 k;
  let rec has_newline i = i < k && (Bytes.get chunk i = '\n' || has_newline (i + 1)) in
  if not (has_newline 0) then []
  else begin
    let s = Buffer.contents c.buf in
    let last = String.rindex s '\n' in
    Buffer.clear c.buf;
    Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)
  end

(* Blocking request/response for set-up traffic (PING, P, STATS). *)
let call c line =
  write_all c.fd (line ^ "\n");
  let rec wait () = match read_lines c with [] -> wait () | l :: _ -> l in
  wait ()

type server = { pid : int; port : int; out : in_channel; log : string }

(* Servers still running; killed at exit, whatever ends the program. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let serve_exe = "_build/default/bin/serve.exe"
let work = ".perfbench"

let start_server ~doc ~log =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process serve_exe
      [| serve_exe; "-d"; "auction.xml=" ^ doc; "--port"; "0"; "--jobs"; "1" |]
      Unix.stdin out_w err
  in
  live := pid :: !live;
  Unix.close out_w;
  Unix.close err;
  let out = Unix.in_channel_of_descr out_r in
  let line = try input_line out with End_of_file -> die "serve exited during start-up (see %s)" log in
  let port =
    match String.rindex_opt line ':' with
    | Some i -> int_of_string (String.sub line (i + 1) (String.length line - i - 1))
    | None -> die "unexpected serve banner %S" line
  in
  let c = connect port in
  if call c "PING" <> "PONG" then die "serve did not answer PING";
  let setup = now () -. t0 in
  Unix.close c.fd;
  ({ pid; port; out; log }, setup)

(* SIGTERM, then wait (bounded) for a clean drain: exit 0 and the final
   stats line in the server's log. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.02; wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid);
      Error "no exit within 20 s of SIGTERM"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED c -> Error (Printf.sprintf "exit code %d" c)
    | _, (Unix.WSIGNALED g | Unix.WSTOPPED g) ->
      Error (Printf.sprintf "ended by signal %d" g)
  in
  let exited = wait () in
  live := List.filter (( <> ) s.pid) !live;
  close_in_noerr s.out;
  match exited with
  | Ok () when contains (read_file s.log) "final stats" -> Ok ()
  | Ok () -> Error "no final stats line"
  | Error _ as e -> e

let run_serve ~seed ~seconds ~trace =
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let check = build_store ~seed ~scale:serve_scale () in
  let doc = Filename.concat work (Printf.sprintf "serve-%d.xml" seed) in
  let oc = open_out_bin doc in
  output_string oc check.xml;
  close_out oc;
  let statements, reqs = serve_mix ~seed ~seconds check.store in
  let log = Filename.concat work "serve.log" in
  (* Servers started only to time start-up are stopped as soon as they
     answer PONG. serve prints its readiness line before it installs its
     SIGTERM handler, so such a server is sometimes killed outright
     instead of draining; that is counted (server.startup_sigterm_lost)
     rather than failed. The measured server's drain is checked below. *)
  let lost = ref 0 in
  let prev = ref None in
  let s, starts =
    repeat_setup (fun () ->
        Option.iter
          (fun p ->
             match stop_server p with
             | Ok () -> ()
             | Error why ->
               incr lost;
               Printf.eprintf "xbench: set-up server did not drain: %s\n%!" why)
          !prev;
        let s, dt = start_server ~doc ~log in
        prev := Some s;
        (s, dt))
  in
  let conns = [| connect s.port; connect s.port |] in
  Array.iter
    (fun c ->
       List.iter
         (fun (name, t) ->
            let line = call c (P.render_request (P.Prepare { name; text = t.text })) in
            if line <> P.ok_unit then die "prepare %s failed: %s" name line)
         statements)
    conns;
  (* open loop: request i is due at t0 + its arrival time and goes out on
     a free connection (one request in flight per connection); latency
     runs from when it was due *)
  let lat = Samples.create () and svc = Samples.create () in
  let all_lat = ref [] and late = ref [] in
  let ok = ref 0 and good = ref 0 in
  let next = ref 0 and done_ = ref 0 in
  let n = Array.length reqs in
  let t0 = now () +. 0.05 in
  let hard_stop = t0 +. seconds +. 60. in
  while !done_ < n && now () < hard_stop do
    let tnow = now () in
    Array.iter
      (fun c ->
         if c.inflight = None && !next < n && t0 +. fst reqs.(!next) <= tnow then begin
           let due, r = reqs.(!next) in
           incr next;
           let sent = now () in
           write_all c.fd (r.line ^ "\n");
           c.inflight <- Some (r, t0 +. due, sent);
           late := (sent -. (t0 +. due)) :: !late
         end)
      conns;
    let busy = List.filter (fun c -> c.inflight <> None) (Array.to_list conns) in
    let timeout =
      if !next < n && List.length busy < Array.length conns then
        Float.max 0. (t0 +. fst reqs.(!next) -. now ())
      else 0.5
    in
    let ready, _, _ =
      try Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
         if List.mem c.fd ready then
           match read_lines c, c.inflight with
           | line :: _, Some (r, due, sent) ->
             let t = now () in
             c.inflight <- None;
             incr done_;
             let fine = reply_ok r line in
             if not fine then
               fail_msg "%s: bad reply %S" r.kind
                 (if String.length line > 120 then String.sub line 0 120 else line);
             attempt fine;
             if fine then begin
               incr ok;
               if t -. due <= serve_limit_s then incr good;
               Samples.add lat r.kind (t -. due);
               Samples.add svc r.kind (t -. sent);
               all_lat := (due -. t0, t -. due) :: !all_lat
             end
           | _ -> ())
      busy
  done;
  let elapsed = Float.max (now () -. t0) 1e-3 in
  (* requests never answered before the hard stop count as failed *)
  for _ = !done_ + 1 to n do attempt false done;
  let stats_line = call conns.(0) "STATS" in
  let stats =
    match P.parse_response stats_line with
    | Ok (P.Resp_ok (_, field)) ->
      List.filter_map
        (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
           | None -> None)
        (String.split_on_char ' ' (P.payload_of field))
    | _ -> die "bad STATS reply %S" stats_line
  in
  let rss = vm_hwm_mb (string_of_int s.pid) in
  Array.iter (fun c -> Unix.close c.fd) conns;
  let drained = stop_server s in
  Result.iter_error (fail_msg "serve did not drain cleanly on SIGTERM: %s") drained;
  attempt (drained = Ok ());
  (try Sys.remove doc with Sys_error _ -> ());
  let geo = Samples.geomean_ms lat median in
  put "setup_s" (median starts);
  put "queries_per_s" (float_of_int !ok /. elapsed);
  put "geomean_query_ms" geo;
  (* the tail of each 5-second window of due times, median over windows:
     one burst of interference from outside moves one window only *)
  let windows = Hashtbl.create 16 in
  List.iter
    (fun (at, l) ->
       let w = min (int_of_float (at /. 5.)) (int_of_float (seconds /. 5.) - 1) in
       Hashtbl.replace windows w (l :: Option.value ~default:[] (Hashtbl.find_opt windows w)))
    !all_lat;
  put "e2e.latency_p50_ms" (1000. *. median (List.map snd !all_lat));
  put "e2e.latency_p99_ms" (1000. *. median (Hashtbl.fold (fun _ l acc -> tail l :: acc) windows []));
  put "goodput_qps" (float_of_int !good /. elapsed);
  put "peak_rss_mb" rss;
  Printf.eprintf
    "serve-mixed: %d requests at %.0f/s; p50 %.3f ms, p99 %.3f ms; generator \
     lateness p50 %.3f ms, max %.3f ms; failed_ratio %.4f\n"
    n serve_rate (Hashtbl.find metrics "e2e.latency_p50_ms")
    (Hashtbl.find metrics "e2e.latency_p99_ms") (1000. *. median !late)
    (1000. *. List.fold_left Float.max 0. !late)
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
  List.iter
    (fun (k, m) -> Printf.eprintf "  %-24s %10.3f ms\n" k (1000. *. m))
    (Samples.per_template lat median);
  if trace then begin
    let stat k = try float_of_string (List.assoc k stats) with Not_found | Failure _ -> 0. in
    put "server.admitted" (stat "admitted");
    put "server.completed" (stat "completed");
    put "server.shed_full" (stat "shed_full");
    put "server.degradations" (stat "degradations");
    put "server.startup_sigterm_lost" (float_of_int !lost);
    put "loadgen.late_p99_ms" (1000. *. tail !late);
    put "xmldb.generate_s" check.gen_s;
    put "xmldb.parse_s" check.parse_s;
    (* the same mix through Session in process, closed loop: what the
       session layer costs without the wire, admission and queueing *)
    let registry = Session.Registry.create () in
    Session.Registry.add registry ~name:"main" check.store;
    let cache = Engine.create_cache ~capacity:128 () in
    let sess =
      match Session.create ~cache ~registry ~store:"main" () with
      | Ok s -> s
      | Error m -> die "session: %s" m
    in
    List.iter
      (fun (name, t) ->
         match Session.prepare sess ~name t.text with
         | Ok () -> ()
         | Error e -> die "prepare %s: %s" name e.Engine.message)
      statements;
    let sl = Samples.create () in
    let budget_s = seconds /. 4. in
    let t_start = now () in
    Array.iteri
      (fun i (_, r) ->
         if i < 200 || now () -. t_start < budget_s then begin
           let t1 = now () in
           let res =
             match r.kind.[0], P.parse_request r.line with
             | 'L', Ok (P.Load { uri; xml; _ }) ->
               Result.map (fun () -> None) (Session.load sess ~uri xml)
             | 'E', Ok (P.Exec { name; _ }) ->
               Result.map (fun (x : Session.reply) -> Some x.Session.serialized)
                 (Session.exec sess name)
             | _ ->
               Result.map (fun (x : Session.reply) -> Some x.Session.serialized)
                 (Session.query sess r.qtext)
           in
           let dt = now () -. t1 in
           let fine =
             match res, r.expect with
             | Ok None, None -> true
             | Ok (Some got), Some want -> got = want
             | _ -> false
           in
           if not fine then fail_msg "%s: in-process session reply differs" r.kind;
           attempt fine;
           Samples.add sl r.kind dt
         end)
      reqs;
    let session_ms = Samples.geomean_ms sl median in
    put "session.query_ms" session_ms;
    put "server.overhead_ms" (Samples.geomean_ms svc median -. session_ms);
    (* phase split over the query texts of the mix, plans reused as the
       server's cache does *)
    let acc = new_acc () and plans = Hashtbl.create 64 in
    let opts = engine_opts 1 in
    let traced = Samples.create () in
    let t_start = now () in
    Array.iteri
      (fun i (_, r) ->
         if r.expect <> None && (i < 200 || now () -. t_start < budget_s) then begin
           let t0 = now () in
           let fine =
             match traced_run acc ~clock:now ~opts ~plans check.store r.qtext with
             | out, appended ->
               Samples.add traced r.kind (now () -. t0);
               note_appended acc (String.sub r.kind 2 (String.length r.kind - 2)) appended;
               Some out = r.expect
             | exception e ->
               fail_msg "%s (traced): %s" r.kind (Printexc.to_string e);
               false
           in
           attempt fine
         end)
      reqs;
    report_acc acc;
    (* untraced here is the session path over the same query kinds *)
    let kinds = List.filter (Hashtbl.mem sl.Samples.tbl) traced.Samples.order in
    let geo_of (t : Samples.t) =
      1000. *. geomean (List.map (fun k -> median !(Hashtbl.find t.Samples.tbl k)) kinds)
    in
    put "trace.overhead_ms" (geo_of traced -. geo_of sl);
    let c = Engine.cache_stats cache in
    put "plan_cache.hit_ratio"
      (float_of_int c.Engine.Plan_cache.hits
       /. float_of_int (max 1 (c.Engine.Plan_cache.hits + c.Engine.Plan_cache.misses)));
    fig12 ~clock:now ~jobs:1 check.store
  end

(* ----------------------------------------------------------------- main *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let workload, rest =
    match args with w :: rest -> (w, rest) | [] -> die "usage: xbench <workload> ..."
  in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %S" x
  in
  let kv = opts [] rest in
  let get k d = Option.value ~default:d (List.assoc_opt k kv) in
  let seed = int_of_string (get "seed" "1") in
  let seconds = float_of_string (get "seconds" "10") in
  let trace = get "trace" "0" = "1" in
  (match workload with
   | "xmark-adhoc" -> run_closed (adhoc ~seed) ~seed ~seconds ~trace
   | "xmark-analytic" -> run_closed (analytic ~seed) ~seed ~seconds ~trace
   | "serve-mixed" ->
     run_serve ~seed ~seconds ~trace
   | w -> die "unknown workload %S" w);
  print_result ~correct:(tally.failed = 0)
    ~names:(if trace then per_layer else end_to_end)
