(** The reference interpreter: a direct, tree-walking evaluator of XQuery
    Core with strict ordered semantics — [fn:unordered] is the identity,
    as in the open-source processors the paper surveys in Section 6.

    It plays two roles: the semantics oracle for differential testing of
    the compiler, and the order-oblivious baseline engine. *)

(** Evaluate a Core expression against a store (no variables in scope).
    [guard] is checked at every core-expression node (the interpreter's
    operator boundary) and charged with every materialized sequence;
    exhaustion raises {!Basis.Err.Resource_error}. The run is one
    construction scope ({!Xmldb.Doc_store.Scope}): on return the
    fragments the result references are frozen and the other constructed
    ones released; if it raises, all are released. *)
val eval_core :
  ?guard:Basis.Budget.t -> Xmldb.Doc_store.t -> Xquery.Core_ast.core ->
  Xdm.seq

(** Parse, normalize and evaluate a full query text. *)
val run : ?guard:Basis.Budget.t -> Xmldb.Doc_store.t -> string -> Xdm.seq

val run_to_string :
  ?guard:Basis.Budget.t -> Xmldb.Doc_store.t -> string -> string
