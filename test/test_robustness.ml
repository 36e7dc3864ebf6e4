(* Resource governance and graceful degradation, end to end:

     - every budget axis (deadline / rows / bytes / op count) and
       cooperative cancellation raise Err.Resource_error from BOTH
       backends — never a crash, never a partial result;
     - a generous budget is semantically transparent;
     - deterministic fault injection at every operator boundary of the
       paper's Figure-10 query engages the interpreter fallback and still
       yields the correct answer;
     - front-end errors (malformed XML, query syntax errors) carry
       position info and classify as static errors. *)

open Basis
module Value = Algebra.Value

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"

let mk_store () =
  let st = Xmldb.Doc_store.create () in
  let _ = Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml in
  st

(* serialize each item separately so sequences compare item-wise *)
let ser st items =
  List.map
    (fun it ->
       match it with
       | Value.Node n -> Xmldb.Serialize.node_to_string st n
       | v -> Value.to_string v)
    items

let backends = [ ("compiled", Engine.Compiled); ("interpreted", Engine.Interpreted) ]

let run_with ~backend spec q =
  let opts = { Engine.default_opts with Engine.backend; budget = Some spec } in
  Engine.run_result ~opts (mk_store ()) q

let expect_resource name r =
  match r with
  | Error { Engine.kind = Err.Resource; _ } -> ()
  | Ok _ -> Alcotest.failf "%s: expected Resource_error, got a result" name
  | Error { Engine.kind; message } ->
    Alcotest.failf "%s: expected a resource error, got %s error: %s" name
      (Err.kind_label kind) message

(* enough work that every budget axis has something to exhaust *)
let heavy = "count(for $v in 1 to 200 for $w in 1 to 200 return $v * $w)"
let stringy =
  "string-join(for $v in 1 to 200 return \"xxxxxxxxxxxxxxxxxxxx\", \",\")"

(* ----------------------------------------------------- budget exhaustion *)

let test_deadline () =
  List.iter
    (fun (name, backend) ->
       expect_resource (name ^ "/deadline")
         (run_with ~backend (Budget.limits ~timeout_s:0.0 ()) heavy))
    backends

let test_row_budget () =
  List.iter
    (fun (name, backend) ->
       expect_resource (name ^ "/rows")
         (run_with ~backend (Budget.limits ~max_rows:500 ()) heavy))
    backends

let test_byte_budget () =
  List.iter
    (fun (name, backend) ->
       expect_resource (name ^ "/bytes")
         (run_with ~backend (Budget.limits ~max_bytes:2048 ()) stringy))
    backends

let test_op_budget () =
  List.iter
    (fun (name, backend) ->
       expect_resource (name ^ "/ops")
         (run_with ~backend (Budget.limits ~max_ops:5 ()) heavy))
    backends

let test_cancellation () =
  (* cooperative cancellation: the switch is flipped before evaluation
     reaches its first operator boundary, so the run is interrupted
     mid-query (after parse/compile, inside evaluation) *)
  List.iter
    (fun (name, backend) ->
       let c = Budget.cancel_switch () in
       Budget.cancel c;
       expect_resource (name ^ "/cancel")
         (run_with ~backend (Budget.limits ~cancel:c ()) heavy))
    backends

let test_generous_budget_transparent () =
  (* a budget the query fits into must not change its meaning *)
  let spec =
    Budget.limits ~timeout_s:30.0 ~max_rows:2_000_000
      ~max_bytes:200_000_000 ~max_ops:2_000_000 ()
  in
  let queries =
    [ heavy; stringy; "doc(\"t.xml\")//c"; "(1,2.5,\"s\")";
      "for $v in doc(\"t.xml\")//* return local-name($v)" ]
  in
  List.iter
    (fun (name, backend) ->
       List.iter
         (fun q ->
            let plain =
              Engine.run
                ~opts:{ Engine.default_opts with Engine.backend }
                (mk_store ()) q
            in
            match run_with ~backend spec q with
            | Ok budgeted ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s" name q)
                plain.Engine.serialized budgeted.Engine.serialized
            | Error { Engine.kind; message } ->
              Alcotest.failf "%s: %s: generous budget tripped: %s error: %s"
                name q (Err.kind_label kind) message)
         queries)
    backends

(* ------------------------------------------------------- fault injection *)

let fig10 = "let $t := doc(\"t.xml\") return unordered { $t//(c|d) }"

let multiset items = List.sort compare items

let count_boundaries st q =
  let _, _, optimized = Engine.plans_of ~opts:Engine.default_opts q in
  let g = Budget.start Budget.unlimited in
  ignore (Algebra.Eval.run ~guard:g st optimized);
  Budget.ops g

let test_fault_sweep_fig10 () =
  let st = mk_store () in
  let reference =
    Engine.run
      ~opts:{ Engine.default_opts with Engine.backend = Engine.Interpreted }
      st fig10
  in
  let expected = multiset (ser st reference.Engine.items) in
  let n = count_boundaries st fig10 in
  if n < 3 then Alcotest.failf "suspiciously few operator boundaries (%d)" n;
  for k = 1 to n do
    let opts =
      { Engine.default_opts with
        Engine.budget = Some (Budget.limits ~fault_at:k ()) }
    in
    match Engine.run ~opts st fig10 with
    | r ->
      (match r.Engine.degraded with
       | Some _ -> ()
       | None ->
         Alcotest.failf "fault at boundary %d/%d: fallback did not engage" k n);
      let got = multiset (ser st r.Engine.items) in
      if got <> expected then
        Alcotest.failf "fault at boundary %d/%d: degraded result differs" k n
    | exception e ->
      Alcotest.failf "fault at boundary %d/%d escaped the fallback: %s" k n
        (Printexc.to_string e)
  done

let test_fault_without_fallback () =
  let st = mk_store () in
  let opts =
    { Engine.default_opts with
      Engine.budget = Some (Budget.limits ~fault_at:1 ());
      Engine.fallback = false }
  in
  match Engine.run ~opts st fig10 with
  | exception Err.Internal_error _ -> ()
  | _ -> Alcotest.fail "with fallback disabled the injected fault must surface"

let test_fault_seeded_determinism () =
  (* boundaries picked by a seeded Prng: the same seed must produce the
     same degradation behavior and the same answer, twice *)
  let queries =
    [ fig10; heavy; "doc(\"t.xml\")//c"; "sum(for $v in 1 to 9 return $v)" ]
  in
  let outcome k q =
    let st = mk_store () in
    let opts =
      { Engine.default_opts with
        Engine.budget = Some (Budget.limits ~fault_at:k ()) }
    in
    let r = Engine.run ~opts st q in
    (Option.is_some r.Engine.degraded, multiset (ser st r.Engine.items))
  in
  let prng = Prng.create 0xFA17 in
  List.iter
    (fun q ->
       let k = 1 + Prng.int prng 40 in
       let a = outcome k q and b = outcome k q in
       if a <> b then
         Alcotest.failf "fault at %d not deterministic for %s" k q)
    queries

(* ------------------------------------------- memoization and budgets *)

module P = Algebra.Plan
module Eval = Algebra.Eval

(* a let-bound sequence consumed twice: loop-lifting shares the binding's
   subplan between both consumers, so DAG and tree costs diverge *)
let shared_q =
  "let $v := (for $x in 1 to 50 return $x * $x) return (count($v), sum($v))"

let eval_mode mode = { Engine.default_opts with Engine.eval_mode = mode }

let ops_in mode q =
  let st = mk_store () in
  let _, _, optimized = Engine.plans_of ~opts:Engine.default_opts q in
  let g = Budget.start Budget.unlimited in
  ignore (Eval.run ~guard:g ~mode st optimized);
  Budget.ops g

let test_budget_memoization_aware () =
  (* the budget charges a node's cost once per *unique* node: an op budget
     of exactly the DAG cost admits the memoizing executor and refuses the
     sharing-oblivious tree walk of the very same plan *)
  let dag_ops = ops_in Eval.Dag shared_q in
  let tree_ops = ops_in Eval.Tree shared_q in
  if tree_ops <= dag_ops then
    Alcotest.failf "no sharing to observe (dag %d ops, tree %d ops)" dag_ops
      tree_ops;
  let spec = Budget.limits ~max_ops:dag_ops () in
  (match
     Engine.run_result
       ~opts:{ (eval_mode Eval.Dag) with Engine.budget = Some spec }
       (mk_store ()) shared_q
   with
   | Ok _ -> ()
   | Error { Engine.kind; message } ->
     Alcotest.failf "DAG mode under its own op budget tripped: %s error: %s"
       (Err.kind_label kind) message);
  expect_resource "tree walk under the DAG budget"
    (Engine.run_result
       ~opts:{ (eval_mode Eval.Tree) with Engine.budget = Some spec }
       (mk_store ()) shared_q)

let test_tiny_budget_mode_identical () =
  (* a budget even a single walk of the shared subtree exceeds fails
     identically with memoization on and off *)
  List.iter
    (fun (name, mode) ->
       expect_resource (name ^ "/tiny ops")
         (Engine.run_result
            ~opts:
              { (eval_mode mode) with
                Engine.budget = Some (Budget.limits ~max_ops:3 ()) }
            (mk_store ()) shared_q))
    [ ("dag", Eval.Dag); ("tree", Eval.Tree) ]

let test_evals_counters () =
  (* the executor's work counter is exact in both modes *)
  let st = mk_store () in
  let _, _, optimized = Engine.plans_of ~opts:Engine.default_opts shared_q in
  let check_mode name mode expected =
    let ctx = Eval.create ~mode st in
    ignore (Eval.eval ctx optimized);
    Alcotest.(check int) name expected (Eval.evals ctx)
  in
  check_mode "dag evals = unique ops" Eval.Dag (P.count_ops optimized);
  check_mode "tree evals = tree nodes" Eval.Tree (P.count_tree_nodes optimized)

let test_cancel_mid_dag_walk () =
  (* cancellation lands mid-walk: warm the cache for a shared node, flip
     the switch, then evaluate a root above it — the memoized child is
     free (cache hits are never boundaries) but the remaining operators
     are, and the walk must still die with a resource error *)
  let st = mk_store () in
  let b = P.builder () in
  let base =
    P.lit b
      [| "iter"; "pos"; "item" |]
      [ [| Value.Int 1; Value.Int 1; Value.Int 7 |];
        [| Value.Int 1; Value.Int 2; Value.Int 9 |] ]
  in
  let shared = P.rownum b base "r" [ ("pos", P.Asc) ] None in
  let left = P.project b shared [ ("x", "item") ] in
  let right = P.project b shared [ ("x", "r") ] in
  let root = P.union b left right in
  let c = Budget.cancel_switch () in
  let guard = Budget.start (Budget.limits ~cancel:c ()) in
  let ctx = Eval.create ~guard st in
  (match Eval.eval ctx shared with
   | _ -> ()
   | exception e ->
     Alcotest.failf "warming the shared node failed: %s" (Printexc.to_string e));
  Budget.cancel c;
  match Eval.eval ctx root with
  | _ -> Alcotest.fail "cancellation ignored above a memoized child"
  | exception Err.Resource_error _ -> ()

(* ------------------------------------------- front-end error classification *)

let test_malformed_xml () =
  let check_static src =
    let st = Xmldb.Doc_store.create () in
    match Xmldb.Xml_parser.load_document st ~uri:"bad.xml" src with
    | exception e ->
      (match Engine.classify_error e with
       | Some { Engine.kind = Err.Static; message } ->
         if not (Astring.String.is_infix ~affix:"offset" message) then
           Alcotest.failf "no position info in %S" message
       | Some { Engine.kind; _ } ->
         Alcotest.failf "%S classified as %s" src (Err.kind_label kind)
       | None -> Alcotest.failf "%S not classified" src)
    | _ -> Alcotest.failf "expected a parse error for %S" src
  in
  List.iter check_static
    [ "<a>"; "<a></b>"; "<a attr></a>"; "<a>&unknown;</a>"; "<a/><b/>"; "" ]

let test_query_syntax_positions () =
  let pos_of src =
    match Xquery.Parser.parse_query src with
    | exception Xquery.Parser.Syntax_error (_, pos) -> pos
    | _ -> Alcotest.failf "expected a syntax error for %S" src
  in
  List.iter
    (fun src ->
       let p = pos_of src in
       if p < 0 || p > String.length src then
         Alcotest.failf "offset %d out of range for %S" p src)
    [ "1 +"; "for $x in"; "let $y :="; "if (1) then 2"; "1 =" ];
  (* classification folds the position into a static error message *)
  (match Xquery.Parser.parse_query "1 +" with
   | exception e ->
     (match Engine.classify_error e with
      | Some { Engine.kind = Err.Static; message } ->
        if not (Astring.String.is_infix ~affix:"offset" message) then
          Alcotest.failf "no position info in %S" message
      | _ -> Alcotest.fail "syntax error not classified static")
   | _ -> Alcotest.fail "expected a syntax error")

let test_resource_error_not_degraded () =
  (* budget exhaustion must NOT trigger the interpreter fallback: the
     fallback is for our bugs, not for refused work *)
  let st = mk_store () in
  let opts =
    { Engine.default_opts with
      Engine.budget = Some (Budget.limits ~max_rows:100 ()) }
  in
  match Engine.run ~opts st heavy with
  | exception Err.Resource_error _ -> ()
  | r ->
    (match r.Engine.degraded with
     | Some _ -> Alcotest.fail "resource exhaustion engaged the fallback"
     | None -> Alcotest.fail "row budget did not trip")

(* ------------------------------------- constructed fragments on exit *)

(* A run is one construction scope: whatever way it ends, the store keeps
   exactly the fragments its result references. Intermediate and
   abandoned fragments leave zero-length tombstones, so [total_nodes]
   after a run is its value before plus the rows of the kept result
   fragments — and exactly its value before when the run raised. *)

let constructing =
  "for $b in doc(\"t.xml\")//b \
   return <r n=\"{count($b/*)}\"><w>{$b}</w>{$b/c}</r>"

let kept_rows st items =
  let fids =
    List.sort_uniq compare
      (List.filter_map
         (function Value.Node n -> Some (Xmldb.Node_id.frag n) | _ -> None)
         items)
  in
  List.fold_left
    (fun acc fid ->
       acc + Xmldb.Doc_store.frag_length (Xmldb.Doc_store.frag st fid))
    0 fids

let check_exit name st before outcome =
  let after = Xmldb.Doc_store.total_nodes st in
  match outcome with
  | Ok items ->
    let want = before + kept_rows st items in
    if after <> want then
      Alcotest.failf "%s: total_nodes %d after the run, want %d + kept %d" name
        after before (want - before)
  | Error e ->
    if after <> before then
      Alcotest.failf "%s: run raised (%s) but total_nodes went %d -> %d" name
        (Printexc.to_string e) before after

let run_items ?(opts = Engine.default_opts) st q =
  match Engine.run ~opts st q with
  | r -> Ok r.Engine.items
  | exception e -> Error e

let physical_opts = [ ("physical", `On); ("boxed", `Off) ]

(* Row budgets from "trips at the first kernel" up to "never trips": some
   trip after the constructors ran, and none may leave fragments. *)
let test_release_on_row_budget () =
  List.iter
    (fun (name, physical) ->
       let tripped = ref 0 in
       for k = 1 to 40 do
         let st = mk_store () in
         let before = Xmldb.Doc_store.total_nodes st in
         let opts =
           { Engine.default_opts with
             Engine.physical;
             budget = Some (Budget.limits ~max_rows:k ()) }
         in
         let outcome = run_items ~opts st constructing in
         (match outcome with Error _ -> incr tripped | Ok _ -> ());
         check_exit (Printf.sprintf "%s max_rows %d" name k) st before outcome
       done;
       if !tripped = 0 then Alcotest.failf "%s: no row budget tripped" name)
    physical_opts

let test_release_on_dynamic_error () =
  let q = "let $e := <a><b>x</b></a> return $e + 1" in
  List.iter
    (fun (name, opts) ->
       let st = mk_store () in
       let before = Xmldb.Doc_store.total_nodes st in
       let outcome = run_items ~opts st q in
       (match outcome with
        | Error (Err.Dynamic_error _) -> ()
        | _ -> Alcotest.failf "%s: expected a dynamic error" name);
       check_exit name st before outcome)
    [ ("physical", Engine.default_opts);
      ("boxed", { Engine.default_opts with Engine.physical = `Off });
      ("interpreted",
       { Engine.default_opts with Engine.backend = Engine.Interpreted }) ]

(* An injected internal error at any kernel boundary: the compiled run's
   fragments go, the interpreter's answer keeps only its result. *)
let test_release_before_fallback () =
  (* the boxed plan's boundary count bounds the physical kernel count *)
  let n = count_boundaries (mk_store ()) constructing in
  let degraded = ref 0 in
  for k = 1 to n do
    let st = mk_store () in
    let before = Xmldb.Doc_store.total_nodes st in
    let opts =
      { Engine.default_opts with
        Engine.budget = Some (Budget.limits ~fault_at:k ()) }
    in
    match Engine.run ~opts st constructing with
    | r ->
      if r.Engine.degraded <> None then incr degraded;
      check_exit (Printf.sprintf "fault at %d/%d" k n) st before
        (Ok r.Engine.items)
    | exception e ->
      Alcotest.failf "fault at %d/%d escaped: %s" k n (Printexc.to_string e)
  done;
  if !degraded < 3 then
    Alcotest.failf "the fallback engaged at only %d of %d boundaries"
      !degraded n

let () =
  Alcotest.run "robustness"
    [ ( "budgets",
        [ Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "row budget" `Quick test_row_budget;
          Alcotest.test_case "byte budget" `Quick test_byte_budget;
          Alcotest.test_case "op budget" `Quick test_op_budget;
          Alcotest.test_case "cancellation" `Quick test_cancellation;
          Alcotest.test_case "generous budget transparent" `Quick
            test_generous_budget_transparent;
          Alcotest.test_case "no fallback on resource errors" `Quick
            test_resource_error_not_degraded ] );
      ( "fault injection",
        [ Alcotest.test_case "every boundary of Figure 10" `Quick
            test_fault_sweep_fig10;
          Alcotest.test_case "no fallback surfaces the fault" `Quick
            test_fault_without_fallback;
          Alcotest.test_case "seeded determinism" `Quick
            test_fault_seeded_determinism ] );
      ( "memoization",
        [ Alcotest.test_case "budgets charge unique nodes once" `Quick
            test_budget_memoization_aware;
          Alcotest.test_case "tiny budgets fail identically" `Quick
            test_tiny_budget_mode_identical;
          Alcotest.test_case "evals counters exact" `Quick test_evals_counters;
          Alcotest.test_case "cancellation mid-DAG-walk" `Quick
            test_cancel_mid_dag_walk ] );
      ( "fragment release",
        [ Alcotest.test_case "released on a row-budget trip" `Quick
            test_release_on_row_budget;
          Alcotest.test_case "released on a dynamic error" `Quick
            test_release_on_dynamic_error;
          Alcotest.test_case "released before the fallback" `Quick
            test_release_before_fallback ] );
      ( "front-end errors",
        [ Alcotest.test_case "malformed XML" `Quick test_malformed_xml;
          Alcotest.test_case "syntax error positions" `Quick
            test_query_syntax_positions ] );
    ]
