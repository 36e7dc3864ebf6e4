(** A flat index over the int keys of [n] rows: distinct keys become
    groups numbered in first-seen order, and each group chains its rows
    in ascending row order. It is built from a few int arrays (an
    open-addressing table plus head/next chains), so it allocates no
    heap block per key.

    When the keys are a dense run ([start + i] at row [i], e.g. a
    [#]-stamped column), {!build} detects it and answers every query
    positionally with no table; the answers are the same either way.

    A built index is never mutated, so concurrent reads from several
    domains are safe. *)

type t

(** [build n key] indexes rows [0 .. n-1] under [key row]. *)
val build : int -> (int -> int) -> t

(** Number of distinct keys. *)
val groups : t -> int

(** Whether the keys formed a dense run (the positional path). *)
val is_dense : t -> bool

(** Group of a key, or [-1] when no row carries it. *)
val find : t -> int -> int

(** The key of group [g]. *)
val key : t -> int -> int

(** First (lowest) row of group [g]. *)
val first : t -> int -> int

(** The next row of the same group after row [r], or [-1]. Rows come in
    ascending order. *)
val next : t -> int -> int

(** Rows in group [g]. *)
val size : t -> int -> int

(** The group of row [r]. *)
val group_of : t -> int -> int

(** The rows of group [g], ascending. *)
val group_rows : t -> int -> int array

(** [probe_pairs t probe lo hi]: every (i, j) with [probe i] equal to the
    key of indexed row [j], for [i] in [\[lo, hi)]; [i] ascending, and for
    one [i] the [j]s ascending. Returned as two parallel arrays. *)
val probe_pairs : t -> (int -> int) -> int -> int -> int array * int array

(** [pairs_build_left t probe nr], where [t] indexes the left rows: every
    (i, j) with the key of left row [i] equal to [probe j], for [j] in
    [\[0, nr)]. The pair order is the one {!probe_pairs} gives with the
    sides swapped back: [i] ascending, then [j] ascending. *)
val pairs_build_left : t -> (int -> int) -> int -> int array * int array
