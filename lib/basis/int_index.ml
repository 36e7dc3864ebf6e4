(* A flat, allocation-light index over the int keys of [n] rows: the
   grouping and equi-join structure behind the executors' iter/bind
   joins, int-keyed grouping and the loop-lifted step.

   Distinct keys become groups numbered 0, 1, ... in first-seen order.
   Each group chains its rows through [next] in ascending row order
   ([head] is the first row, [tail] the last). Keys are found by linear
   probing in an open-addressing table of group numbers ([slots], -1 =
   empty) sized to a power of two of at least twice the row count. The
   whole index is a handful of int arrays: no heap block per key.

   A dense run of keys ([start + i] at row [i]: a [#]-stamped column)
   needs no table at all. Every key is distinct and sits at row
   [key - start], so the group of a key is a range check and every chain
   is a single row. [build] verifies the run in one pass and then answers
   every query positionally, with exactly the results hashing would
   give. *)

type t = {
  n : int;
  dense : bool;          (* keys are [start + i]: group = row, no table *)
  start : int;
  groups : int;
  keys : int array;      (* group -> key *)
  head : int array;      (* group -> first row *)
  size : int array;      (* group -> rows *)
  next : int array;      (* row -> next row of its group, -1 at the end *)
  group : int array;     (* row -> group *)
  slots : int array;     (* hash slot -> group, -1 = empty *)
  shift : int;           (* 63 - log2 (Array.length slots) *)
}

(* Fibonacci-style multiplicative hashing: the high bits of [k * c]. *)
let slot_of shift k = (k * 0x2545F4914F6CDD1D) lsr shift

let is_run ks =
  let n = Array.length ks in
  let ok = ref true and i = ref 1 in
  while !ok && !i < n do
    if ks.(!i) <> ks.(0) + !i then ok := false;
    incr i
  done;
  !ok

let build n (key : int -> int) =
  let ks = Array.init n key in
  if n > 0 && is_run ks then
    { n; dense = true; start = ks.(0); groups = n; keys = ks; head = [||];
      size = [||]; next = [||]; group = [||]; slots = [||]; shift = 0 }
  else begin
    let bits = ref 4 in
    while 1 lsl !bits < 2 * n do incr bits done;
    let cap = 1 lsl !bits and shift = 63 - !bits in
    let mask = cap - 1 in
    let slots = Array.make cap (-1) in
    let keys = Array.make n 0 and head = Array.make n 0 in
    let tail = Array.make n 0 and size = Array.make n 0 in
    let next = Array.make n (-1) and group = Array.make n 0 in
    let groups = ref 0 in
    for r = 0 to n - 1 do
      let k = Array.unsafe_get ks r in
      let s = ref (slot_of shift k) in
      while
        let g = Array.unsafe_get slots !s in
        g >= 0 && Array.unsafe_get keys g <> k
      do
        s := (!s + 1) land mask
      done;
      let g = Array.unsafe_get slots !s in
      if g < 0 then begin
        let g = !groups in
        incr groups;
        slots.(!s) <- g;
        keys.(g) <- k;
        head.(g) <- r;
        tail.(g) <- r;
        size.(g) <- 1;
        group.(r) <- g
      end
      else begin
        next.(tail.(g)) <- r;
        tail.(g) <- r;
        size.(g) <- size.(g) + 1;
        group.(r) <- g
      end
    done;
    { n; dense = false; start = 0; groups = !groups; keys; head; size; next;
      group; slots; shift }
  end

let groups t = t.groups
let is_dense t = t.dense

let find t k =
  if t.dense then
    let d = k - t.start in
    if d >= 0 && d < t.n then d else -1
  else begin
    let mask = Array.length t.slots - 1 in
    let s = ref (slot_of t.shift k) in
    while
      let g = Array.unsafe_get t.slots !s in
      g >= 0 && Array.unsafe_get t.keys g <> k
    do
      s := (!s + 1) land mask
    done;
    Array.unsafe_get t.slots !s
  end

let key t g = t.keys.(g)
let first t g = if t.dense then g else t.head.(g)
let next t r = if t.dense then -1 else t.next.(r)
let size t g = if t.dense then 1 else t.size.(g)
let group_of t r = if t.dense then r else t.group.(r)

let group_rows t g =
  let out = Array.make (size t g) 0 in
  let r = ref (first t g) and k = ref 0 in
  while !r >= 0 do
    out.(!k) <- !r;
    incr k;
    r := next t !r
  done;
  out

(* Probe rows [lo, hi) of the other side against the index. Two passes —
   find and count, then fill — so the output arrays are allocated at
   their exact size. *)
let probe_pairs t (probe : int -> int) lo hi =
  let m = max 0 (hi - lo) in
  let gs = Array.make m (-1) in
  let total = ref 0 in
  for i = lo to hi - 1 do
    let g = find t (probe i) in
    gs.(i - lo) <- g;
    if g >= 0 then total := !total + size t g
  done;
  let li = Array.make !total 0 and ri = Array.make !total 0 in
  let k = ref 0 in
  for i = lo to hi - 1 do
    let g = gs.(i - lo) in
    if g >= 0 then begin
      let j = ref (first t g) in
      while !j >= 0 do
        Array.unsafe_set li !k i;
        Array.unsafe_set ri !k !j;
        incr k;
        j := next t !j
      done
    end
  done;
  (li, ri)

(* The index holds the left side. One ascending scan of the right side
   bucket-sorts its matching rows by left group (counting sort: a count
   pass, prefix offsets, a fill pass), so every group's right rows come
   out ascending. Rows of one left group share their match list, which
   is emitted once per left row, left rows ascending. *)
let pairs_build_left t (probe : int -> int) nr =
  let ng = t.groups in
  let gj = Array.make nr (-1) in
  let off = Array.make (ng + 1) 0 in
  for j = 0 to nr - 1 do
    let g = find t (probe j) in
    gj.(j) <- g;
    if g >= 0 then off.(g + 1) <- off.(g + 1) + 1
  done;
  for g = 0 to ng - 1 do
    off.(g + 1) <- off.(g + 1) + off.(g)
  done;
  let fill = Array.sub off 0 ng in
  let mj = Array.make off.(ng) 0 in
  for j = 0 to nr - 1 do
    let g = gj.(j) in
    if g >= 0 then begin
      mj.(fill.(g)) <- j;
      fill.(g) <- fill.(g) + 1
    end
  done;
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    let g = group_of t i in
    total := !total + (off.(g + 1) - off.(g))
  done;
  let li = Array.make !total 0 and ri = Array.make !total 0 in
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    let g = group_of t i in
    for m = off.(g) to off.(g + 1) - 1 do
      Array.unsafe_set li !k i;
      Array.unsafe_set ri !k mj.(m);
      incr k
    done
  done;
  (li, ri)
