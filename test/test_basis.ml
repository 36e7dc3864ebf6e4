(* Tests for the foundation library: growable vectors, string interning,
   the error discipline, and the deterministic PRNG. *)

open Basis

(* ------------------------------------------------------------------- vec *)

let test_vec_basic () =
  let v = Vec.create 0 in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 1 to 100 do Vec.push v i done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 41);
  Vec.set v 41 7;
  Alcotest.(check int) "set" 7 (Vec.get v 41);
  Alcotest.(check int) "last" 100 (Vec.last v);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  let a = Vec.to_array v in
  Alcotest.(check int) "snapshot length" 99 (Array.length a);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_vec_bounds () =
  (* out-of-bounds access is a broken invariant of ours, not a user
     error: the uniform taxonomy reports it as Err.Internal_error *)
  let v = Vec.create 0 in
  Vec.push v 1;
  (match Vec.get v 1 with
   | exception Err.Internal_error _ -> ()
   | _ -> Alcotest.fail "get out of bounds");
  (match Vec.get v (-1) with
   | exception Err.Internal_error _ -> ()
   | _ -> Alcotest.fail "negative index");
  let empty = Vec.create 0 in
  (match Vec.pop empty with
   | exception Err.Internal_error _ -> ()
   | _ -> Alcotest.fail "pop of empty")

let test_vec_iteration () =
  let v = Vec.of_array 0 [| 1; 2; 3 |] in
  Alcotest.(check int) "fold" 6 (Vec.fold_left ( + ) 0 v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 3 (List.length !acc);
  let w = Vec.create 0 in
  Vec.append w v;
  Vec.append w v;
  Alcotest.(check int) "append" 6 (Vec.length w)

let vec_growth_prop =
  QCheck2.Test.make ~count:100 ~name:"vec: to_array round-trips any pushes"
    QCheck2.Gen.(list int)
    (fun xs ->
       let v = Vec.create 0 in
       List.iter (Vec.push v) xs;
       Array.to_list (Vec.to_array v) = xs)

(* ----------------------------------------------------------- string pool *)

let test_pool () =
  let p = String_pool.create () in
  let a = String_pool.intern p "hello" in
  let b = String_pool.intern p "world" in
  let a' = String_pool.intern p "hello" in
  Alcotest.(check int) "stable ids" a a';
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "get" "hello" (String_pool.get p a);
  Alcotest.(check int) "size" 2 (String_pool.size p);
  Alcotest.(check (option int)) "find" (Some b) (String_pool.find_opt p "world");
  Alcotest.(check (option int)) "missing" None (String_pool.find_opt p "nope")

(* ------------------------------------------------------------------ prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create 43 in
  let diff = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then diff := true
  done;
  Alcotest.(check bool) "different seeds differ" true !diff

let test_prng_ranges () =
  let r = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of range";
    let f = Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of range";
    let z = Prng.zipf r 100 in
    if z < 0 || z >= 100 then Alcotest.fail "zipf out of range"
  done;
  (match Prng.int r 0 with
   | exception Err.Internal_error _ -> ()
   | _ -> Alcotest.fail "bound 0 must raise")

let test_prng_zipf_skew () =
  (* rank 0 must be (much) more likely than the median rank *)
  let r = Prng.create 1 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20000 do
    let z = Prng.zipf r 100 in
    counts.(z) <- counts.(z) + 1
  done;
  Alcotest.(check bool) "skewed toward 0" true (counts.(0) > counts.(50) * 3)

(* ------------------------------------------------------------------- err *)

let test_err () =
  (match Err.dynamic "boom %d" 1 with
   | exception Err.Dynamic_error "boom 1" -> ()
   | _ -> Alcotest.fail "dynamic");
  (match Err.static "s" with
   | exception Err.Static_error "s" -> ()
   | _ -> Alcotest.fail "static");
  Alcotest.(check string) "to_string"
    "dynamic error: x" (Err.to_string (Err.Dynamic_error "x"));
  (match Err.protect (fun () -> 42) with
   | Ok 42 -> ()
   | _ -> Alcotest.fail "protect ok");
  (match Err.protect (fun () -> Err.dynamic "no") with
   | Error m when m = "dynamic error: no" -> ()
   | _ -> Alcotest.fail "protect error");
  (match Err.resource "over %s" "budget" with
   | exception Err.Resource_error "over budget" -> ()
   | _ -> Alcotest.fail "resource");
  (match Err.protect (fun () -> Err.resource "slow") with
   | Error "resource error: slow" -> ()
   | _ -> Alcotest.fail "protect resource");
  (match Err.protect_kind (fun () -> Err.resource "slow") with
   | Error (Err.Resource, "slow") -> ()
   | _ -> Alcotest.fail "protect_kind resource");
  Alcotest.(check (list int)) "exit codes distinct"
    [ 1; 2; 3; 4 ]
    (List.map Err.exit_code [ Err.Dynamic; Err.Static; Err.Resource; Err.Internal ]);
  (match Err.classify (Err.Internal_error "bug") with
   | Some (Err.Internal, "bug") -> ()
   | _ -> Alcotest.fail "classify internal");
  Alcotest.(check bool) "classify foreign" true
    (Err.classify Exit = None)

(* ---------------------------------------------------------------- budget *)

let resource_raised f =
  match f () with
  | exception Err.Resource_error _ -> true
  | _ -> false

let test_budget_ops () =
  let g = Budget.start (Budget.limits ~max_ops:3 ()) in
  Budget.check g; Budget.check g; Budget.check g;
  Alcotest.(check int) "ops counted" 3 (Budget.ops g);
  Alcotest.(check bool) "4th check raises" true
    (resource_raised (fun () -> Budget.check g))

let test_budget_rows_bytes () =
  let g = Budget.start (Budget.limits ~max_rows:10 ()) in
  Budget.add_rows g 6;
  Budget.add_rows g 4;
  Alcotest.(check bool) "11th row raises" true
    (resource_raised (fun () -> Budget.add_rows g 1));
  let g = Budget.start (Budget.limits ~max_bytes:100 ()) in
  Alcotest.(check bool) "byte accounting armed" true (Budget.wants_bytes g);
  Budget.add_bytes g 99;
  Alcotest.(check bool) "101st byte raises" true
    (resource_raised (fun () -> Budget.add_bytes g 2));
  let unarmed = Budget.start Budget.unlimited in
  Alcotest.(check bool) "byte accounting unarmed" false
    (Budget.wants_bytes unarmed);
  (* unlimited guards never trip *)
  for _ = 1 to 1000 do Budget.check unarmed done;
  Budget.add_rows unarmed max_int;
  Budget.add_bytes unarmed max_int

let test_budget_deadline () =
  let g = Budget.start (Budget.limits ~timeout_s:0.0 ()) in
  Alcotest.(check bool) "expired deadline raises" true
    (resource_raised (fun () -> Budget.check g));
  let g = Budget.start (Budget.limits ~timeout_s:60.0 ()) in
  Budget.check g (* far deadline does not *)

let test_budget_cancel () =
  let c = Budget.cancel_switch () in
  let g = Budget.start (Budget.limits ~cancel:c ()) in
  Budget.check g;
  Alcotest.(check bool) "not yet cancelled" false (Budget.cancelled c);
  Budget.cancel c;
  Alcotest.(check bool) "cancelled" true (Budget.cancelled c);
  Alcotest.(check bool) "next boundary raises" true
    (resource_raised (fun () -> Budget.check g))

let test_budget_fault () =
  (* the injected fault is an internal error (a fake bug), not a
     resource error — it must engage the engine's fallback machinery *)
  let g = Budget.start (Budget.limits ~fault_at:3 ()) in
  Budget.check g; Budget.check g;
  (match Budget.check g with
   | exception Err.Internal_error m ->
     Alcotest.(check bool) "message names the boundary" true
       (m = "injected fault at operator boundary 3")
   | () -> Alcotest.fail "fault did not fire");
  (* deterministic: same spec, same boundary *)
  let g' = Budget.start (Budget.limits ~fault_at:3 ()) in
  Budget.check g'; Budget.check g';
  Alcotest.(check bool) "fires again at 3" true
    (match Budget.check g' with
     | exception Err.Internal_error _ -> true
     | () -> false)

(* ---------------------------------------------------- budget: clamping *)

let test_budget_clamp () =
  let c = Budget.cancel_switch () in
  let ceiling =
    Budget.limits ~timeout_s:10. ~max_rows:1000 ~fault_at:7
      ~cancel:(Budget.cancel_switch ()) ()
  in
  let wish = Budget.limits ~timeout_s:60. ~max_bytes:500 ~cancel:c () in
  let s = Budget.clamp ~ceiling wish in
  Alcotest.(check (option (float 1e-9))) "timeout: min wins"
    (Some 10.) s.Budget.timeout_s;
  Alcotest.(check (option int)) "rows: ceiling-only limit kept"
    (Some 1000) s.Budget.max_rows;
  Alcotest.(check (option int)) "bytes: spec-only limit kept"
    (Some 500) s.Budget.max_bytes;
  Alcotest.(check (option int)) "ops: unarmed stays unarmed"
    None s.Budget.max_ops;
  (* policy boundaries: the ceiling must not alias its cancel switch or
     fault hook into the clamped request *)
  Alcotest.(check bool) "cancel comes from the spec side" true
    (match s.Budget.cancel with Some x -> x == c | None -> false);
  Alcotest.(check (option int)) "ceiling fault_at is not inherited"
    None s.Budget.fault_at;
  let tighter =
    Budget.clamp ~ceiling (Budget.limits ~timeout_s:0.5 ~max_rows:10 ())
  in
  Alcotest.(check (option (float 1e-9))) "client may wish tighter"
    (Some 0.5) tighter.Budget.timeout_s;
  Alcotest.(check (option int)) "rows: min wins" (Some 10)
    tighter.Budget.max_rows

let test_budget_remaining () =
  let g = Budget.start (Budget.limits ~timeout_s:60. ()) in
  (match Budget.remaining_s g with
   | Some r -> Alcotest.(check bool) "remaining in (0, 60]" true (r > 0. && r <= 60.)
   | None -> Alcotest.fail "deadline armed but no remaining time");
  let unarmed = Budget.start Budget.unlimited in
  Alcotest.(check bool) "unarmed guard has no remaining" true
    (Budget.remaining_s unarmed = None)

let test_budget_interrupted () =
  let c = Budget.cancel_switch () in
  let g = Budget.start (Budget.limits ~cancel:c ~max_ops:100 ()) in
  Alcotest.(check bool) "live guard not interrupted" false
    (Budget.interrupted g);
  Budget.check_interrupted g;
  (* interruption probes are free: they must not eat the op budget *)
  Alcotest.(check int) "probes don't count ops" 0 (Budget.ops g);
  Budget.cancel c;
  Alcotest.(check bool) "cancelled guard is interrupted" true
    (Budget.interrupted g);
  Alcotest.(check bool) "check_interrupted raises" true
    (resource_raised (fun () -> Budget.check_interrupted g))

(* ------------------------------------------------------------------ pool *)

(* The hardening contract: nothing a task body or stop hook does — up to
   and including Stack_overflow — may wedge the pool. Every test reuses
   the pool after the failure to prove the workers survived. *)

let reusable p =
  let hits = Array.make 8 0 in
  Pool.run p ~jobs:2 8 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "pool reusable: every task ran once" true
    (Array.for_all (fun n -> n = 1) hits)

let test_pool_body_raises () =
  let p = Pool.create () in
  let ran = Array.make 6 false in
  (match
     Pool.run p ~jobs:2 6 (fun i ->
       ran.(i) <- true;
       if i = 2 then Err.dynamic "task %d failed" i)
   with
   | exception Err.Dynamic_error "task 2 failed" -> ()
   | () -> Alcotest.fail "exception swallowed");
  (* determinism: the remaining tasks still execute *)
  Alcotest.(check bool) "all tasks ran despite the failure" true
    (Array.for_all Fun.id ran);
  reusable p;
  Pool.shutdown p

let test_pool_lowest_failure_wins () =
  let p = Pool.create () in
  (match
     Pool.run p ~jobs:2 8 (fun i ->
       if i = 5 then Err.dynamic "later"
       else if i = 1 then Err.resource "earlier")
   with
   | exception Err.Resource_error "earlier" -> ()
   | exception e ->
     Alcotest.failf "wrong failure surfaced: %s" (Printexc.to_string e)
   | () -> Alcotest.fail "exception swallowed");
  reusable p;
  Pool.shutdown p

let test_pool_stack_overflow () =
  let p = Pool.create () in
  (* raised directly: growing a real 8MB+ fiber stack by copying takes
     ~10s on this class of host, and the pool's recovery path — catch,
     record, re-raise after the job, survive — is identical *)
  (match
     Pool.run p ~jobs:2 4 (fun i -> if i = 1 then raise Stack_overflow)
   with
   | exception Stack_overflow -> ()
   | exception e ->
     Alcotest.failf "expected Stack_overflow, got %s" (Printexc.to_string e)
   | () -> Alcotest.fail "overflow swallowed");
  reusable p;
  Pool.shutdown p

let test_pool_raising_stop () =
  let p = Pool.create () in
  (* a raising stop hook acts as a trip and surfaces its exception... *)
  (match
     Pool.run p ~jobs:2 16
       ~stop:(fun () -> Err.resource "budget mid-claim")
       (fun _ -> ())
   with
   | exception Err.Resource_error "budget mid-claim" -> ()
   | exception e ->
     Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
   | () -> Alcotest.fail "raising stop hook ignored");
  reusable p;
  (* ...unless a task body also failed: body failures carry lower
     indices (serial order), so they win. The hook only starts raising
     once the body failure has happened — a hook that raises on first
     check trips the run before any body executes. *)
  let body_failed = Atomic.make false in
  (match
     Pool.run p ~jobs:2 16
       ~stop:(fun () ->
         if Atomic.get body_failed then Err.resource "hook" else false)
       (fun i ->
         if i = 0 then begin
           Atomic.set body_failed true;
           Err.dynamic "body"
         end)
   with
   | exception Err.Dynamic_error "body" -> ()
   | exception e ->
     Alcotest.failf "body failure must win: %s" (Printexc.to_string e)
   | () -> Alcotest.fail "both failures swallowed");
  reusable p;
  Pool.shutdown p

let test_pool_contention_counter () =
  let p = Pool.create () in
  Alcotest.(check int) "fresh pool: no contention" 0 (Pool.contended p);
  (* a nested submission finds the job board occupied, degrades to
     inline serial execution, and is counted — the watchdog's signal *)
  let inner_ran = ref 0 in
  Pool.run p ~jobs:2 2 (fun _ ->
    Pool.run p ~jobs:2 2 (fun _ -> incr inner_ran));
  Alcotest.(check bool) "nested runs counted as contention" true
    (Pool.contended p >= 1);
  Alcotest.(check int) "degraded runs still execute every task" 4 !inner_ran;
  reusable p;
  Pool.shutdown p

(* ---------------------------------------------------------------- rwlock *)

let test_rwlock_basic () =
  let l = Rwlock.create () in
  Alcotest.(check int) "with_read returns" 1 (Rwlock.with_read l (fun () -> 1));
  Alcotest.(check int) "with_write returns" 2 (Rwlock.with_write l (fun () -> 2));
  (* exception safety: a raising section must release the lock *)
  (match Rwlock.with_write l (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "lock free after raising writer" 3
    (Rwlock.with_write l (fun () -> 3));
  (match Rwlock.with_read l (fun () -> failwith "boom") with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception swallowed");
  Alcotest.(check int) "lock free after raising reader" 4
    (Rwlock.with_write l (fun () -> 4))

let test_rwlock_readers_share () =
  let l = Rwlock.create () in
  Rwlock.lock_read l;
  (* a second reader gets in while the first still holds the lock *)
  let d = Domain.spawn (fun () -> Rwlock.with_read l (fun () -> 42)) in
  Alcotest.(check int) "concurrent reader admitted" 42 (Domain.join d);
  Rwlock.unlock_read l

let test_rwlock_writer_excludes () =
  let l = Rwlock.create () in
  let entered = Atomic.make false in
  Rwlock.lock_write l;
  let d =
    Domain.spawn (fun () ->
      Rwlock.with_read l (fun () -> Atomic.set entered true))
  in
  (* give the reader ample opportunity to (wrongly) slip past *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "reader blocked by writer" false (Atomic.get entered);
  Rwlock.unlock_write l;
  Domain.join d;
  Alcotest.(check bool) "reader admitted after release" true
    (Atomic.get entered)

let test_rwlock_writes_exclusive () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let bump () =
    for _ = 1 to 2_000 do
      Rwlock.with_write l (fun () -> counter := !counter + 1)
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn bump) in
  List.iter Domain.join ds;
  (* a plain ref: only writer exclusivity makes this count exact *)
  Alcotest.(check int) "no lost updates" 6_000 !counter

(* ------------------------------------------------------------ int index *)

(* Groups in first-seen key order, each chaining its rows ascending;
   a dense run takes the positional path with the same answers. *)
let int_index_prop =
  QCheck2.Test.make ~count:300 ~name:"int index groups = first-seen scan"
    QCheck2.Gen.(
      oneof
        [ list_size (int_bound 40) (int_range (-5) 5);
          (let* start = int_range (-100) 100 and* len = int_bound 40 in
           return (List.init len (fun i -> start + i))) ])
    (fun keys ->
       let a = Array.of_list keys in
       let n = Array.length a in
       let idx = Basis.Int_index.build n (Array.get a) in
       let firsts =
         List.fold_left (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
           [] keys
       in
       let rows_of k =
         List.filter (fun r -> a.(r) = k) (List.init n Fun.id)
       in
       let dense = n > 0 && List.for_all Fun.id (List.init n (fun i -> a.(i) = a.(0) + i)) in
       Basis.Int_index.groups idx = List.length firsts
       && Basis.Int_index.is_dense idx = dense
       && List.for_all
            (fun (g, k) ->
               Basis.Int_index.key idx g = k
               && Basis.Int_index.find idx k = g
               && Array.to_list (Basis.Int_index.group_rows idx g) = rows_of k
               && Basis.Int_index.size idx g = List.length (rows_of k)
               && List.for_all (fun r -> Basis.Int_index.group_of idx r = g)
                    (rows_of k))
            (List.mapi (fun g k -> (g, k)) firsts)
       && Basis.Int_index.find idx 1_000_000 = -1
       && Basis.Int_index.find idx (-1_000_000) = -1)

let () =
  Alcotest.run "basis"
    [ ( "vec",
        [ Alcotest.test_case "basics" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iteration" `Quick test_vec_iteration;
          QCheck_alcotest.to_alcotest vec_growth_prop ] );
      ( "int index", [ QCheck_alcotest.to_alcotest int_index_prop ] );
      ( "string pool", [ Alcotest.test_case "interning" `Quick test_pool ] );
      ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "zipf skew" `Quick test_prng_zipf_skew ] );
      ( "err", [ Alcotest.test_case "classes" `Quick test_err ] );
      ( "budget",
        [ Alcotest.test_case "op budget" `Quick test_budget_ops;
          Alcotest.test_case "row and byte budgets" `Quick test_budget_rows_bytes;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "cancellation" `Quick test_budget_cancel;
          Alcotest.test_case "fault injection" `Quick test_budget_fault;
          Alcotest.test_case "ceiling clamp" `Quick test_budget_clamp;
          Alcotest.test_case "remaining time" `Quick test_budget_remaining;
          Alcotest.test_case "interruption probes" `Quick
            test_budget_interrupted ] );
      ( "pool",
        [ Alcotest.test_case "task body raises" `Quick test_pool_body_raises;
          Alcotest.test_case "lowest failure wins" `Quick
            test_pool_lowest_failure_wins;
          Alcotest.test_case "stack overflow in body" `Quick
            test_pool_stack_overflow;
          Alcotest.test_case "raising stop hook" `Quick test_pool_raising_stop;
          Alcotest.test_case "contention counter" `Quick
            test_pool_contention_counter ] );
      ( "rwlock",
        [ Alcotest.test_case "basics and exception safety" `Quick
          test_rwlock_basic;
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes readers" `Quick
            test_rwlock_writer_excludes;
          Alcotest.test_case "writers mutually exclusive" `Quick
            test_rwlock_writes_exclusive ] );
    ]
