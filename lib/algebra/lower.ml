(* Lowering: compile the hash-consed logical Plan DAG into the physical
   operator DAG that [Physical] executes.

   The one non-trivial decision made here is kernel fusion: a maximal
   chain of adjacent Attach / Fun1 / Fun2 / Fun3 / Select operators is
   folded into a single [K_pipe] kernel that runs the whole chain in one
   pass. A chain may only swallow a node whose result no one else needs,
   i.e. whose parent count in the DAG is exactly 1 — shared subplans keep
   their own kernel (and their own memo slot), so the sharing the
   hash-consing found is preserved intact. The chain's head node CAN be
   shared: the fused kernel is memoized under the head's id.

   Everything else maps 1:1 onto a physical kernel — typed where
   [Physical] has a typed implementation (including the step operator ⊘,
   which lowers to the loop-lifted [K_step], and the node constructors,
   which lower to [K_construct]; there is no [boxed:⊘] or [boxed:elem]),
   [K_boxed] (the boxed kernel called through table conversions) where
   it does not. Lowering is
   strictly post-logical: it never changes plan shapes, so the logical
   optimizer's output (and its golden tests) are untouched.

   Static column-type hints come in through [types] — a function rather
   than a direct [Properties] call because the property inference lives
   in a layer above this one. Hints only annotate the physical plan for
   dumps; execution re-detects types dynamically.

   Lowering also decides which kernels are licensed to fan out over
   morsels ([ppar]) — the plan-shape story of the paper, mapped onto the
   executor: Rowid is the [#] shape (order immaterial — dense renumbering
   at the end), Rownum is the [%] shape (an order the query can observe),
   so pipes, join and semijoin probes and the order-indifferent
   aggregates (count/sum/min/max) parallelize, while Rownum — and
   everything whose matching logic is inherently sequential (Distinct's
   first-wins dedup, any hash build that is itself the output, Union's
   append, the step's single lifted pass) or boxed — stays serial. *)

type chain = Physical.chain_op list

(* Parent (reference) counts over the DAG: how many operators consume
   each node's result. Each node visited once thanks to hash-consing. *)
let parent_counts root =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (n : Plan.node) ->
       List.iter
         (fun (c : Plan.node) ->
            Hashtbl.replace counts c.id
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts c.id)))
         (Plan.children n.op))
    (Plan.topo_order root);
  counts

let chain_op_of (op : Plan.op) : (Physical.chain_op * Plan.node) option =
  match op with
  | Plan.Select { input; col } -> Some (Physical.F_select col, input)
  | Plan.Attach { input; res; value } ->
    Some (Physical.F_attach (res, value), input)
  | Plan.Fun1 { input; res; f; arg } ->
    Some (Physical.F_fun1 (res, f, arg), input)
  | Plan.Fun2 { input; res; f; arg1; arg2 } ->
    Some (Physical.F_fun2 (res, f, arg1, arg2), input)
  | Plan.Fun3 { input; res; f; arg1; arg2; arg3 } ->
    Some (Physical.F_fun3 (res, f, arg1, arg2, arg3), input)
  | _ -> None

let label_of (n : Plan.node) =
  if n.Plan.label = "" then Plan.op_symbol n.Plan.op else n.Plan.label

(* Order-indifference licence per kernel (see the module comment). A
   build-left join runs serial: its accumulation order is the build of
   the output itself, not a probe that can be sliced into morsels.
   A standalone [#] stamp fans out: the dense path is O(1) and the
   scattered path writes disjoint, index-determined slots per morsel —
   this is what makes sort-elision (% becoming #) widen the ∥ fraction
   of the plan, not just remove a sort. *)
let parallelizable (pop : Physical.pop) =
  match pop with
  | Physical.K_join { build_left = true; _ }
  | Physical.K_semijoin { build_left = true; _ } -> false
  | Physical.K_pipe _ | Physical.K_join _ | Physical.K_thetajoin _
  | Physical.K_semijoin _ | Physical.K_rowid _ -> true
  | Physical.K_aggr { agg; _ } -> (
    match agg with
    | Plan.A_count | Plan.A_sum | Plan.A_min | Plan.A_max -> true
    | _ -> false)
  | Physical.K_project _ | Physical.K_distinct | Physical.K_union
  | Physical.K_rownum _ | Physical.K_step _ | Physical.K_construct _
  | Physical.K_boxed _ -> false

let lower ?(types = fun (_ : Plan.node) -> ([] : (string * Column.ty) list))
    ?card ?(merge_hint = fun (_ : Plan.node) -> (None : int option))
    (root : Plan.node) : Physical.pnode =
  (* Cardinality estimates pick the hash-join build side: build on the
     left when it is estimated (with margin) smaller than the right. A
     wrong estimate costs time, never correctness — both builds emit the
     same pair order. *)
  let build_left_of left right =
    match card with
    | None -> false
    | Some est -> 2 * est left < est right
  in
  let parents = parent_counts root in
  let parent_count (n : Plan.node) =
    Option.value ~default:0 (Hashtbl.find_opt parents n.Plan.id)
  in
  let memo : (int, Physical.pnode) Hashtbl.t = Hashtbl.create 256 in
  let rec go (n : Plan.node) : Physical.pnode =
    match Hashtbl.find_opt memo n.Plan.id with
    | Some p -> p
    | None ->
      let mk pop pinputs pfused =
        { Physical.pid = n.Plan.id;
          pop;
          pinputs;
          pfused;
          plabel = label_of n;
          ptypes = types n;
          ppar = parallelizable pop }
      in
      let p =
        match chain_op_of n.Plan.op with
        | Some (op, input) ->
          (* grow the chain downward while the next node is chainable and
             consumed by this chain alone *)
          let rec grow acc fused (cur : Plan.node) =
            match chain_op_of cur.Plan.op with
            | Some (op', input') when parent_count cur = 1 ->
              grow (op' :: acc) (fused + 1) input'
            | _ -> (acc, fused, cur)
          in
          let ops, fused, src = grow [ op ] 1 input in
          mk (Physical.K_pipe ops) [ go src ] fused
        | None -> (
          match n.Plan.op with
          | Plan.Project { input; cols } ->
            mk (Physical.K_project cols) [ go input ] 1
          | Plan.Distinct { input } -> mk Physical.K_distinct [ go input ] 1
          | Plan.Union { left; right } ->
            mk Physical.K_union [ go left; go right ] 1
          | Plan.Rowid { input; res } ->
            mk (Physical.K_rowid res) [ go input ] 1
          | Plan.Rownum { input; res; order; part } ->
            mk
              (Physical.K_rownum
                 { res; order; part; merge_hint = merge_hint n })
              [ go input ] 1
          | Plan.Join { left; right; lcol; rcol } ->
            mk
              (Physical.K_join
                 { lcol; rcol; build_left = build_left_of left right })
              [ go left; go right ] 1
          | Plan.Thetajoin { left; right; lcol; cmp; rcol } ->
            mk
              (Physical.K_thetajoin { lcol; cmp; rcol })
              [ go left; go right ] 1
          | Plan.Semijoin { left; right; on } ->
            mk
              (Physical.K_semijoin
                 { anti = false; on; build_left = build_left_of left right })
              [ go left; go right ] 1
          | Plan.Antijoin { left; right; on } ->
            mk
              (Physical.K_semijoin
                 { anti = true; on; build_left = build_left_of left right })
              [ go left; go right ] 1
          | Plan.Aggr { input; res; agg; arg; part; order } ->
            mk (Physical.K_aggr { res; agg; arg; part; order }) [ go input ] 1
          | Plan.Step { input; axis; test } ->
            mk (Physical.K_step { axis; test }) [ go input ] 1
          | Plan.Elem { qnames; content } ->
            mk (Physical.K_construct Physical.C_elem)
              [ go qnames; go content ] 1
          | Plan.Attr { qnames; values } ->
            mk (Physical.K_construct Physical.C_attr)
              [ go qnames; go values ] 1
          | Plan.Textnode { input } ->
            mk (Physical.K_construct Physical.C_text) [ go input ] 1
          | Plan.Commentnode { input } ->
            mk (Physical.K_construct Physical.C_comment) [ go input ] 1
          | Plan.Pinode { input } ->
            mk (Physical.K_construct Physical.C_pi) [ go input ] 1
          | Plan.Textify { input } ->
            mk (Physical.K_construct Physical.C_textify) [ go input ] 1
          | op ->
            (* Lit, Cross, Range, Id_lookup, Doc: boxed kernels over
               converted inputs *)
            mk (Physical.K_boxed op) (List.map go (Plan.children op)) 1)
      in
      Hashtbl.add memo n.Plan.id p;
      p
  in
  go root

(* Distinct kernels in the physical DAG (each shared kernel counted once). *)
let count_kernels (root : Physical.pnode) =
  let seen = Hashtbl.create 64 in
  let rec go (p : Physical.pnode) =
    if not (Hashtbl.mem seen p.Physical.pid) then begin
      Hashtbl.add seen p.Physical.pid ();
      List.iter go p.Physical.pinputs
    end
  in
  go root;
  Hashtbl.length seen

(* Logical operators covered (the sum of fusion widths). *)
let count_covered (root : Physical.pnode) =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  let rec go (p : Physical.pnode) =
    if not (Hashtbl.mem seen p.Physical.pid) then begin
      Hashtbl.add seen p.Physical.pid ();
      total := !total + p.Physical.pfused;
      List.iter go p.Physical.pinputs
    end
  in
  go root;
  !total

(* Kernels licensed for morsel parallelism (each counted once). *)
let count_parallel (root : Physical.pnode) =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  let rec go (p : Physical.pnode) =
    if not (Hashtbl.mem seen p.Physical.pid) then begin
      Hashtbl.add seen p.Physical.pid ();
      if p.Physical.ppar then incr total;
      List.iter go p.Physical.pinputs
    end
  in
  go root;
  !total

let chain_op_name = function
  | Physical.F_select c -> Printf.sprintf "σ(%s)" c
  | Physical.F_attach (res, v) ->
    Format.asprintf "@%s:=%a" res Value.pp v
  | Physical.F_fun1 (res, _, a) -> Printf.sprintf "%s:=f1(%s)" res a
  | Physical.F_fun2 (res, _, a1, a2) ->
    Printf.sprintf "%s:=f2(%s,%s)" res a1 a2
  | Physical.F_fun3 (res, _, a1, a2, a3) ->
    Printf.sprintf "%s:=f3(%s,%s,%s)" res a1 a2 a3

(* Physical-plan dump: one node per line, indentation for structure,
   [^id] back-references for shared kernels, column-type annotations from
   the static hints. *)
let pp fmt (root : Physical.pnode) =
  let seen = Hashtbl.create 64 in
  let rec go indent (p : Physical.pnode) =
    if Hashtbl.mem seen p.Physical.pid then
      Format.fprintf fmt "%s^%d (shared)@\n" indent p.Physical.pid
    else begin
      Hashtbl.add seen p.Physical.pid ();
      (* equality comparisons whose operands are statically strings are
         code-eval candidates: at run time they translate the comparand
         into the fragment's dictionary code once and compare machine
         ints per row (unless --no-code-eval, or the operand column
         turns out not to carry codes). The stamp covers every shape
         the optimizer can leave the equality in: a fused predicate, a
         hash-join or semijoin key, or an eq thetajoin. *)
      let tyof c = List.assoc_opt c p.Physical.ptypes in
      let str c = tyof c = Some Column.T_str in
      let detail =
        match p.Physical.pop with
        | Physical.K_pipe ops ->
          let name op =
            let base = chain_op_name op in
            match op with
            | Physical.F_fun2 (_, (Plan.P_eq | Plan.P_ne), a1, a2)
              when str a1 || str a2 -> base ^ "[code]"
            | _ -> base
          in
          " [" ^ String.concat "; " (List.map name ops) ^ "]"
        | Physical.K_thetajoin { lcol; cmp = Plan.P_eq; rcol }
          when str lcol || str rcol -> " [code]"
        | Physical.K_join { lcol; rcol; _ } when str lcol || str rcol ->
          " [code]"
        | Physical.K_semijoin { on = [ (lc, _) ]; _ } when str lc ->
          " [code]"
        | _ -> ""
      in
      let tys =
        match p.Physical.ptypes with
        | [] -> ""
        | l ->
          " {"
          ^ String.concat ", "
              (List.map
                 (fun (c, ty) -> c ^ ":" ^ Column.ty_name ty)
                 (List.filter (fun (_, ty) -> ty <> Column.T_mixed) l))
          ^ "}"
      in
      let tys = if tys = " {}" then "" else tys in
      Format.fprintf fmt "%s[%d] %s%s%s%s%s@\n" indent p.Physical.pid
        (Physical.pop_name p.Physical.pop)
        (if p.Physical.ppar then " \xE2\x88\xA5" else "")
        (if p.Physical.pfused > 1 then
           Printf.sprintf " (fuses %d ops)" p.Physical.pfused
         else "")
        detail tys;
      List.iter (go (indent ^ "  ")) p.Physical.pinputs
    end
  in
  go "" root

let to_string root = Format.asprintf "%a" pp root
