(* Staircase-join style XPath axis evaluation over the pre/size/level
   encoding (Grust/van Keulen/Teubner, VLDB 2003 — reference [12] of the
   paper). This is the implementation behind the algebraic step operator
   "⊘ ax::nt".

   The operator is loop-lifted: [lifted] takes the whole (iter, context)
   input of a step at once and returns, per iteration, the duplicate-free
   result set in document order. One call groups the rows by iter in
   first-seen order on a flat {!Basis.Int_index}, collects each group's
   contexts into shared scratch arrays, and shares one set of scan
   windows across all groups. [step] is its one-iteration case.

   The staircase tricks used, per (iteration, fragment):
     - contexts are sorted by (frag, pre) and deduplicated up front (a
       group that is already strictly ascending, such as any one-context
       group, is not sorted);
     - [descendant]/[descendant-or-self] prune context nodes whose subtree
       is covered by an earlier context ("pruning"), making the scan of
       the pre range emit each result exactly once, already sorted;
     - [following] only needs the earliest context per fragment;
     - [preceding] only needs the latest context per fragment;
   axes whose per-context results can interleave (parent, ancestor,
   siblings, child with nested contexts) fall back to sort +
   adjacent-dedup of that fragment's output, which is still
   O(out log out). *)

open Basis

(* Resolve the PI-target of a node test once per step call. *)
let resolve_test store (test : Node_test.t) =
  match test with
  | Node_test.Pi_target t ->
    Node_test.Name (Doc_store.name_test_id store (Qname.make t))
  | t -> t

let matches (f : Doc_store.frag) principal test pre =
  let k = Doc_store.kind_at f pre in
  match (test : Node_test.t) with
  | Node_test.Any_node -> true
  | Node_test.Kind k' -> Node_kind.equal k k'
  | Node_test.Name_wild -> Node_kind.equal k principal
  | Node_test.Name id ->
    Node_kind.equal k principal && Doc_store.name_at f pre = id
  | Node_test.Pi_target _ -> Err.internal "unresolved PI target test"

let principal_kind (axis : Axis.t) =
  match axis with
  | Axis.Attribute -> Node_kind.Attribute
  | _ -> Node_kind.Element

(* -- batched contiguous scans --------------------------------------------- *)

(* The three axes whose staircase form is one contiguous pre-range scan
   ([descendant](-or-self), [following], [preceding]) can consume the
   store's bulk range accessors: decode a window of the kind column (and
   the raw name-code column when the test is a name test) in one pass,
   then run a branch-light match loop over the scratch buffers. The node
   test is translated to the fragment's dictionary code once per
   (step, fragment), so a name test is an integer compare per row — no
   per-row dictionary expansion, no string in sight. Results are
   bit-identical to the scalar loops. *)

let window = 4096
let batch_threshold = 64 (* below this a windowed decode is pure overhead *)

type scratch = {
  kbuf : Node_kind.t array;  (* kinds of the current window *)
  cbuf : int array;          (* raw local name codes *)
  sbuf : int array;          (* subtree sizes (preceding only) *)
}

let mk_scratch () = {
  kbuf = Array.make window Node_kind.Text;
  cbuf = Array.make window 0;
  sbuf = Array.make window 0;
}

(* A node test translated against one fragment's dictionary. *)
type tr_test =
  | T_none                   (* cannot match any row of this fragment *)
  | T_any                    (* any non-attribute row *)
  | T_kind of Node_kind.t
  | T_wild                   (* principal (element) rows *)
  | T_name of int            (* element rows carrying this local code *)

let translate f (test : Node_test.t) : tr_test =
  match test with
  | Node_test.Any_node -> T_any
  | Node_test.Kind k ->
    (* the batched axes never yield attribute rows *)
    if Node_kind.equal k Node_kind.Attribute then T_none else T_kind k
  | Node_test.Name_wild -> T_wild
  | Node_test.Name id ->
    (match Doc_store.name_code_of_id f id with
     | Some c -> T_name c
     | None -> T_none)
  | Node_test.Pi_target _ -> Err.internal "unresolved PI target test"

(* Emit every p in [lo, hi] (inclusive) that is not an attribute row and
   satisfies [tr]; with [~before_ctx:(Some mc)], additionally require
   [p + size(p) < mc] (the [preceding] non-ancestor condition). *)
let scan_batched scr f tr lo hi ~before_ctx emit =
  let w0 = ref lo in
  while !w0 <= hi do
    let w1 = min (hi + 1) (!w0 + window) in (* exclusive *)
    Doc_store.kinds_range f !w0 w1 scr.kbuf;
    (match tr with
     | T_name _ -> Doc_store.name_codes_range f !w0 w1 scr.cbuf
     | _ -> ());
    (match before_ctx with
     | Some _ -> Doc_store.sizes_range f !w0 w1 scr.sbuf
     | None -> ());
    let base = !w0 in
    let len = w1 - base in
    for i = 0 to len - 1 do
      let k = Array.unsafe_get scr.kbuf i in
      if (not (Node_kind.equal k Node_kind.Attribute))
         && (match before_ctx with
             | None -> true
             | Some mc -> base + i + Array.unsafe_get scr.sbuf i < mc)
         && (match tr with
             | T_any -> true
             | T_kind k' -> Node_kind.equal k k'
             | T_wild -> Node_kind.equal k Node_kind.Element
             | T_name c ->
               Node_kind.equal k Node_kind.Element
               && Array.unsafe_get scr.cbuf i = c
             | T_none -> false)
      then emit (base + i)
    done;
    w0 := w1
  done

(* -- the lifted step's output ------------------------------------------- *)

(* Parallel growable int columns: one row per result node. [o_iter] is
   filled when a group is complete. *)
type out = {
  mutable o_iter : int array;
  mutable o_frag : int array;
  mutable o_pre : int array;
  mutable o_len : int;
}

let grow out =
  let cap = 2 * Array.length out.o_pre in
  let widen a = let b = Array.make cap 0 in Array.blit a 0 b 0 out.o_len; b in
  out.o_iter <- widen out.o_iter;
  out.o_frag <- widen out.o_frag;
  out.o_pre <- widen out.o_pre

let emit out frag pre =
  if out.o_len = Array.length out.o_pre then grow out;
  Array.unsafe_set out.o_frag out.o_len frag;
  Array.unsafe_set out.o_pre out.o_len pre;
  out.o_len <- out.o_len + 1

(* Sort + adjacent-dedup the pres emitted since [lo] (one fragment's
   segment, so the frag column is constant there). *)
let sort_dedup_segment out lo =
  let a = Array.sub out.o_pre lo (out.o_len - lo) in
  Array.sort Int.compare a;
  let k = ref lo in
  Array.iteri
    (fun i p ->
       if i = 0 || p <> a.(i - 1) then begin
         out.o_pre.(!k) <- p;
         incr k
       end)
    a;
  out.o_len <- !k

type evaluator = int -> int array -> int -> int -> out -> bool

(* The staircase evaluator of one (iteration, fragment) group: the
   sorted, duplicate-free context pres [ctxs.(lo .. hi-1)] of fragment
   [frag_id]. Emits into [out]; returns whether the emitted segment is
   already in document order and duplicate-free. *)
let staircase_evaluator ~batch store (axis : Axis.t) test : evaluator =
  let principal = principal_kind axis in
  (* one set of scan windows for the whole lifted call, made on first use;
     the node test's dictionary translation is cached per fragment *)
  let scr = lazy (mk_scratch ()) in
  let tr_frag = ref (-1) and tr_cache = ref T_none in
  let translated frag_id f =
    if !tr_frag <> frag_id then begin
      tr_cache := translate f test;
      tr_frag := frag_id
    end;
    !tr_cache
  in
  fun frag_id ctxs lo hi out ->
    let f = Doc_store.frag store frag_id in
    let n = Doc_store.frag_length f in
    let m pre = matches f principal test pre in
    let emit pre = emit out frag_id pre in
    let size_ pre = Doc_store.size_at f pre in
    let parent_ pre = Doc_store.parent_at f pre in
    let is_attr pre =
      Node_kind.equal (Doc_store.kind_at f pre) Node_kind.Attribute in
    (* Try the bulk-decoding scan for a contiguous range; false = caller
       falls back to the scalar loop (batching off, or range too small to
       amortize the window setup). *)
    let batched lo hi ~before_ctx =
      if batch && hi - lo >= batch_threshold then begin
        (match translated frag_id f with
         | T_none -> ()
         | t -> scan_batched (Lazy.force scr) f t lo hi ~before_ctx emit);
        true
      end
      else false
    in
    let each g = for i = lo to hi - 1 do g (Array.unsafe_get ctxs i) done in
    let sorted_output = ref true in
    (match axis with
     | Axis.Self -> each (fun pre -> if m pre then emit pre)
     | Axis.Child ->
       (* Nested contexts make per-context child runs interleave. *)
       let covered_end = ref (-1) in
       each (fun pre ->
           if pre <= !covered_end then sorted_output := false;
           covered_end := max !covered_end (pre + size_ pre);
           let p = ref (pre + 1) in
           let stop = pre + size_ pre in
           while !p <= stop do
             if is_attr !p then incr p
             else begin
               if m !p then emit !p;
               p := !p + size_ !p + 1
             end
           done)
     | Axis.Attribute ->
       each (fun pre ->
           if Node_kind.equal (Doc_store.kind_at f pre) Node_kind.Element
           then begin
             let p = ref (pre + 1) in
             while !p < n && is_attr !p do
               if m !p then emit !p;
               incr p
             done
           end)
     | Axis.Descendant | Axis.Descendant_or_self ->
       (* staircase pruning: skip the part of the scan already covered *)
       let covered_end = ref (-1) in
       each (fun pre ->
           if axis = Axis.Descendant_or_self && is_attr pre then begin
             (* an attribute context contributes only itself; it may land
                after nodes already emitted by a covering ancestor scan *)
             if pre <= !covered_end then sorted_output := false;
             if m pre then emit pre
           end else begin
             let lo =
               if axis = Axis.Descendant_or_self then pre else pre + 1 in
             let lo = max lo (!covered_end + 1) in
             let hi = pre + size_ pre in
             (* the context row itself is never an attribute here
                (attribute contexts took the special branch), so the
                batched scan's uniform skip-attributes rule coincides with
                the scalar or-self condition *)
             if not (batched lo hi ~before_ctx:None) then
               for p = lo to hi do
                 if (axis = Axis.Descendant_or_self && p = pre)
                 || not (is_attr p)
                 then (if m p then emit p)
               done;
             covered_end := max !covered_end hi
           end)
     | Axis.Parent ->
       sorted_output := false;
       each (fun pre ->
           let pa = parent_ pre in
           if pa >= 0 && m pa then emit pa)
     | Axis.Ancestor | Axis.Ancestor_or_self ->
       sorted_output := false;
       each (fun pre ->
           if axis = Axis.Ancestor_or_self && m pre then emit pre;
           let p = ref (parent_ pre) in
           while !p >= 0 do
             if m !p then emit !p;
             p := parent_ !p
           done)
     | Axis.Following_sibling ->
       sorted_output := false;
       each (fun pre ->
           if not (is_attr pre) && parent_ pre >= 0 then begin
             let parent = parent_ pre in
             let stop = parent + size_ parent in
             let p = ref (pre + size_ pre + 1) in
             while !p <= stop do
               if is_attr !p then incr p
               else begin
                 if m !p then emit !p;
                 p := !p + size_ !p + 1
               end
             done
           end)
     | Axis.Preceding_sibling ->
       sorted_output := false;
       each (fun pre ->
           if not (is_attr pre) && parent_ pre >= 0 then begin
             let parent = parent_ pre in
             let p = ref (parent + 1) in
             while !p < pre do
               if is_attr !p then incr p
               else begin
                 if m !p then emit !p;
                 p := !p + size_ !p + 1
               end
             done
           end)
     | Axis.Following ->
       (* only the earliest context matters: its following set covers all *)
       if hi > lo then begin
         let start = ref max_int in
         each (fun pre -> start := min !start (pre + size_ pre + 1));
         let start = !start in
         if not (batched start (n - 1) ~before_ctx:None) then
           for p = start to n - 1 do
             if (not (is_attr p)) && m p then emit p
           done
       end
     | Axis.Preceding ->
       (* p precedes some context iff it precedes the latest one and is
          not one of its ancestors: max_ctx > p + size(p) *)
       if hi > lo then begin
         let max_ctx = ctxs.(hi - 1) in
         if not (batched 0 (max_ctx - 1) ~before_ctx:(Some max_ctx)) then
           for p = 0 to max_ctx - 1 do
             if p + size_ p < max_ctx && (not (is_attr p)) && m p then emit p
           done
       end);
    !sorted_output

(* Sort + adjacent-dedup a Vec of node ids in place (returns fresh array). *)
let sort_dedup (v : Node_id.t Vec.t) =
  let a = Vec.to_array v in
  Array.sort Node_id.compare a;
  let out = Vec.create (Node_id.make ~frag:0 ~pre:0) ~capacity:(Array.length a) in
  Array.iter
    (fun n ->
       if Vec.length out = 0 || not (Node_id.equal (Vec.last out) n) then
         Vec.push out n)
    a;
  Vec.to_array out

type lifted = { iters : int array; frags : int array; pres : int array }

(* Sort group contexts [cf/cp.(0 .. k-1)] by (frag, pre) and drop
   duplicates; returns the new count. Skipped when already strictly
   ascending — always the case for one context. *)
let sort_dedup_contexts cf cp k =
  let ascending = ref true and i = ref 1 in
  while !ascending && !i < k do
    let c = Int.compare cf.(!i - 1) cf.(!i) in
    if c > 0 || (c = 0 && cp.(!i - 1) >= cp.(!i)) then ascending := false;
    incr i
  done;
  if !ascending then k
  else begin
    let perm = Array.init k (fun i -> i) in
    Array.sort
      (fun a b ->
         let c = Int.compare cf.(a) cf.(b) in
         if c <> 0 then c else Int.compare cp.(a) cp.(b))
      perm;
    let sf = Array.map (fun r -> cf.(r)) perm in
    let sp = Array.map (fun r -> cp.(r)) perm in
    let k' = ref 0 in
    for i = 0 to k - 1 do
      if i = 0 || sf.(i) <> sf.(i - 1) || sp.(i) <> sp.(i - 1) then begin
        cf.(!k') <- sf.(i);
        cp.(!k') <- sp.(i);
        incr k'
      end
    done;
    !k'
  end

let lifted ?(batch = true) ?eval store (axis : Axis.t) (test : Node_test.t)
    ~n ~(iter : int -> int) ~(frag : int -> int) ~(pre : int -> int) =
  let test = resolve_test store test in
  let eval =
    match eval with
    | Some e -> e
    | None -> staircase_evaluator ~batch store axis test
  in
  let idx = Int_index.build n iter in
  let ng = Int_index.groups idx in
  let widest = ref 0 in
  for g = 0 to ng - 1 do
    widest := max !widest (Int_index.size idx g)
  done;
  let cf = Array.make !widest 0 and cp = Array.make !widest 0 in
  let cap = max 16 n in
  let out =
    { o_iter = Array.make cap 0; o_frag = Array.make cap 0;
      o_pre = Array.make cap 0; o_len = 0 }
  in
  for g = 0 to ng - 1 do
    (* contexts in ascending row order: a non-node context raises at the
       first such row of the first group holding one *)
    let k = ref 0 and r = ref (Int_index.first idx g) in
    while !r >= 0 do
      cf.(!k) <- frag !r;
      cp.(!k) <- pre !r;
      incr k;
      r := Int_index.next idx !r
    done;
    let k = sort_dedup_contexts cf cp !k in
    let group_lo = out.o_len in
    let i = ref 0 in
    while !i < k do
      let f = cf.(!i) in
      let j = ref !i in
      while !j < k && cf.(!j) = f do incr j done;
      let seg = out.o_len in
      if not (eval f cp !i !j out) then sort_dedup_segment out seg;
      i := !j
    done;
    Array.fill out.o_iter group_lo (out.o_len - group_lo) (Int_index.key idx g)
  done;
  let len = out.o_len in
  { iters = Array.sub out.o_iter 0 len;
    frags = Array.sub out.o_frag 0 len;
    pres = Array.sub out.o_pre 0 len }

let step ?batch ?eval store (axis : Axis.t) (test : Node_test.t)
    (contexts : Node_id.t array) =
  let r =
    lifted ?batch ?eval store axis test ~n:(Array.length contexts)
      ~iter:(fun _ -> 0)
      ~frag:(fun i -> Node_id.frag contexts.(i))
      ~pre:(fun i -> Node_id.pre contexts.(i))
  in
  Array.init (Array.length r.pres) (fun i ->
      Node_id.make ~frag:r.frags.(i) ~pre:r.pres.(i))
