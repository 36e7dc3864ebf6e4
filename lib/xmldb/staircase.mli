(** Staircase-join style XPath axis evaluation over the pre/size/level
    encoding (Grust/van Keulen/Teubner, VLDB 2003 — the paper's
    reference [12]). This is the implementation behind the algebraic step
    operator "⊘ ax::nt". *)

(** {2 The loop-lifted step} *)

(** The output buffer of a lifted step; evaluators append to it with
    {!emit}. *)
type out

(** [emit out frag pre] appends one result node. *)
val emit : out -> int -> int -> unit

(** A per-(iteration, fragment) step evaluator: [eval frag ctxs lo hi
    out] evaluates the step from the context pres [ctxs.(lo .. hi-1)]
    of fragment [frag] (ascending, duplicate-free) and emits the results
    of that fragment. It returns [true] when what it emitted is already
    in document order and duplicate-free; on [false] the caller sorts
    and deduplicates that segment. The staircase scan is the default;
    {!Tag_index.evaluator} is the alternative. *)
type evaluator = int -> int array -> int -> int -> out -> bool

(** Result of a lifted step: parallel columns, one row per result. *)
type lifted = { iters : int array; frags : int array; pres : int array }

(** [lifted store axis test ~n ~iter ~frag ~pre] evaluates one location
    step for every iteration at once. Input row [r] (of [n]) is the
    context node [(frag r, pre r)] of iteration [iter r].

    Output contract (the one [Algebra.Order] relies on):
    - iterations appear in the first-seen order of [iter] over the input
      rows, each as one contiguous run (iter-major);
    - within an iteration, the result nodes are duplicate-free and in
      document order — the per-iteration result of {!step};
    - iterations with an empty result produce no rows.

    Rows are grouped on a flat {!Basis.Int_index}; each group's contexts
    are read in ascending row order, so an exception raised by [frag] or
    [pre] is the one for the first such row of the first group (in
    first-seen order) that holds one. All groups share one set of
    scratch arrays and scan windows.

    [batch] (default [true]) lets the three contiguous-range axes
    ([descendant](-or-self), [following], [preceding]) decode kind/name
    columns through the store's bulk range accessors, window by window,
    with name tests translated to per-fragment dictionary codes once and
    compared as integers per row. Results are bit-identical either way;
    [batch:false] is the scalar reference path (engine flag
    [--no-code-eval]). [eval] replaces the staircase scan as the
    per-group evaluator. *)
val lifted :
  ?batch:bool ->
  ?eval:evaluator ->
  Doc_store.t -> Axis.t -> Node_test.t ->
  n:int -> iter:(int -> int) -> frag:(int -> int) -> pre:(int -> int) ->
  lifted

(** [step store axis test contexts] is the one-iteration case of
    {!lifted}: the context node set may arrive in any order and contain
    duplicates; the result is duplicate-free and in document order.

    Staircase techniques applied: context pruning for
    [descendant](-or-self) (each result region is scanned once), earliest-
    context-only evaluation of [following], latest-context-only evaluation
    of [preceding]. Axes whose per-context results interleave fall back to
    sort + dedup. *)
val step :
  ?batch:bool ->
  ?eval:evaluator ->
  Doc_store.t -> Axis.t -> Node_test.t -> Node_id.t array -> Node_id.t array

(** The principal node kind of an axis (attributes for the attribute axis,
    elements otherwise): name tests match only this kind. *)
val principal_kind : Axis.t -> Node_kind.t

(** Sort a collected node-id vector into document order and drop adjacent
    duplicates. *)
val sort_dedup : Node_id.t Basis.Vec.t -> Node_id.t array
