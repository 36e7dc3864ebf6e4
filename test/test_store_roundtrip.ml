(* The storage parity layer: the packed columnar store, the streaming
   chunked parser and the snapshot format are all *representation*
   changes — none may be observable through the accessor API, the query
   engine, or a save/load cycle. Six property families pin that down:

     1. accessor parity — packed and boxed builds of the same document
        agree row for row on all six accessors, over PRNG-generated
        documents (dictionary-friendly and dictionary-hostile name
        distributions), an XMark instance, and runtime-constructed
        fragments;
     2. snapshot identity — save -> load -> save is byte-identical,
        boxed and packed sources produce the same image, and a loaded
        store is accessor-identical to its source;
     3. chunk invariance — parsing through a reader at chunk sizes
        {1, 7, 64K, whole-document} yields a store byte-identical (as a
        snapshot) to the monolithic parse;
     4. engine parity — every corpus query returns identical serialized
        results on packed, boxed, and snapshot-loaded stores, across
        {boxed, physical} executors x {serial, jobs=4};
     5. corruption — truncations, bit flips, version/magic skew and
        trailing garbage all fail as clean dynamic errors and never
        surface a partially loaded store;
     6. compressed execution — the bulk [*_range] accessors agree row
        for row with the per-row accessors (packed, boxed, and across
        chunk seams), and query results under code-eval are
        byte-identical to the materialized reference path, dictionary
        or no dictionary. *)

module DS = Xmldb.Doc_store

(* ------------------------------------------------- random documents *)

(* A PRNG-driven XML generator. [names] controls dictionary pressure:
   a tiny vocabulary makes per-fragment dictionaries pay off, a large
   one makes the encoder reject them — both paths must stay invisible. *)
let gen_xml ~seed ~names ~max_children ~depth () =
  let rng = Basis.Prng.create seed in
  let name i = Printf.sprintf "n%d" i in
  let buf = Buffer.create 1024 in
  let rec element d =
    let tag = name (Basis.Prng.int rng names) in
    Buffer.add_char buf '<';
    Buffer.add_string buf tag;
    for _ = 1 to Basis.Prng.int rng 3 do
      Buffer.add_string buf
        (Printf.sprintf " a%d=\"v%d\"" (Basis.Prng.int rng names)
           (Basis.Prng.int rng 1000))
    done;
    if d = 0 || Basis.Prng.int rng 10 = 0 then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      for _ = 1 to 1 + Basis.Prng.int rng max_children do
        match Basis.Prng.int rng 10 with
        | 0 -> Buffer.add_string buf "<!--c-->"
        | 1 -> Buffer.add_string buf "<?pi data?>"
        | 2 | 3 | 4 ->
          Buffer.add_string buf
            (Printf.sprintf "t%d&amp;x" (Basis.Prng.int rng 500))
        | _ -> element (d - 1)
      done;
      Buffer.add_string buf "</";
      Buffer.add_string buf tag;
      Buffer.add_char buf '>'
    end
  in
  element depth;
  Buffer.contents buf

let sample_docs =
  lazy
    (let small = List.init 8 (fun i ->
         gen_xml ~seed:(100 + i) ~names:5 ~max_children:4 ~depth:5 ()) in
     let wide = List.init 4 (fun i ->
         gen_xml ~seed:(200 + i) ~names:400 ~max_children:8 ~depth:3 ()) in
     let fixed =
       [ "<a/>"; "<a b=\"c\"/>"; "<a><!--x--><?t d?><![CDATA[<raw>]]></a>" ]
     in
     small @ wide @ fixed)

let auction_xml = lazy (Xmark.Xmark_gen.generate ~scale:0.002 ())

let build packed xml =
  let st = DS.create ~packed () in
  ignore (Xmldb.Xml_parser.load_document st ~uri:"d.xml" xml);
  st

(* --------------------------------------------- 1. accessor parity *)

let check_frag_parity label fp fb =
  let n = DS.frag_length fp in
  Alcotest.(check int) (label ^ ": frag length") (DS.frag_length fb) n;
  for pre = 0 to n - 1 do
    let ctx what got want =
      if got <> want then
        Alcotest.failf "%s: %s at pre %d: packed %d, boxed %d" label what
          pre got want
    in
    ctx "kind"
      (Xmldb.Node_kind.to_int (DS.kind_at fp pre))
      (Xmldb.Node_kind.to_int (DS.kind_at fb pre));
    ctx "name" (DS.name_at fp pre) (DS.name_at fb pre);
    ctx "value" (DS.value_at fp pre) (DS.value_at fb pre);
    ctx "size" (DS.size_at fp pre) (DS.size_at fb pre);
    ctx "level" (DS.level_at fp pre) (DS.level_at fb pre);
    ctx "parent" (DS.parent_at fp pre) (DS.parent_at fb pre)
  done

let check_store_parity label sp sb =
  Alcotest.(check int) (label ^ ": n_frags") (DS.n_frags sb) (DS.n_frags sp);
  for fi = 0 to DS.n_frags sp - 1 do
    let lf = Printf.sprintf "%s frag %d" label fi in
    Alcotest.(check bool) (lf ^ " packed flag") true
      (DS.frag_packed (DS.frag sp fi));
    Alcotest.(check bool) (lf ^ " boxed flag") false
      (DS.frag_packed (DS.frag sb fi));
    check_frag_parity lf (DS.frag sp fi) (DS.frag sb fi)
  done

let test_accessor_parity_random () =
  List.iteri
    (fun i xml ->
       let label = Printf.sprintf "doc %d" i in
       let sp = build true xml and sb = build false xml in
       check_store_parity label sp sb;
       Alcotest.(check bool)
         (label ^ ": packed no larger than boxed")
         true
         (DS.encoded_bytes sp <= DS.encoded_bytes sb))
    (Lazy.force sample_docs)

let test_accessor_parity_xmark () =
  let xml = Lazy.force auction_xml in
  let sp = build true xml and sb = build false xml in
  check_store_parity "xmark" sp sb;
  (* the headline claim of the issue: at least 2x denser than boxed *)
  let ratio =
    float_of_int (DS.encoded_bytes sb) /. float_of_int (DS.encoded_bytes sp)
  in
  if ratio < 2.0 then
    Alcotest.failf "xmark compression ratio %.2f below 2x" ratio

(* Runtime node construction freezes fresh fragments through the same
   packing path; a constructor-heavy query must grow both stores
   identically. *)
let test_accessor_parity_constructed () =
  let xml = "<a><b x=\"1\">t</b><b x=\"2\">u</b></a>" in
  let q =
    {|for $b in doc("d.xml")/a/b
      return <r k="{$b/@x}"><copy>{$b}</copy><!--made--></r>|}
  in
  let sp = build true xml and sb = build false xml in
  let rp = (Engine.run sp q).Engine.serialized in
  let rb = (Engine.run sb q).Engine.serialized in
  Alcotest.(check string) "constructed results agree" rb rp;
  check_store_parity "constructed" sp sb

(* ------------------------------------------- 2. snapshot identity *)

let test_snapshot_roundtrip () =
  List.iteri
    (fun i xml ->
       let label = Printf.sprintf "doc %d" i in
       let st = build true xml in
       let s1 = DS.Snapshot.to_string st in
       let st2 = DS.Snapshot.of_string s1 in
       let s2 = DS.Snapshot.to_string st2 in
       Alcotest.(check bool) (label ^ ": save->load->save identical") true
         (String.equal s1 s2);
       for fi = 0 to DS.n_frags st2 - 1 do
         check_frag_parity (label ^ " loaded vs source") (DS.frag st2 fi)
           (DS.frag st fi)
       done;
       Alcotest.(check (list string))
         (label ^ ": document registry survives")
         (List.map fst (DS.documents st))
         (List.map fst (DS.documents st2)))
    (Lazy.force sample_docs)

let test_snapshot_boxed_source_identical () =
  List.iteri
    (fun i xml ->
       let sp = build true xml and sb = build false xml in
       Alcotest.(check bool)
         (Printf.sprintf "doc %d: boxed and packed sources save identically"
            i)
         true
         (String.equal (DS.Snapshot.to_string sp) (DS.Snapshot.to_string sb)))
    (Lazy.force sample_docs)

let test_snapshot_file_roundtrip () =
  let xml = Lazy.force auction_xml in
  let st = build true xml in
  let path = Filename.temp_file "xrq-roundtrip" ".xrqs" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       DS.Snapshot.save st path;
       let st2 = DS.Snapshot.load path in
       Alcotest.(check bool) "file round-trip identical" true
         (String.equal (DS.Snapshot.to_string st) (DS.Snapshot.to_string st2));
       (* a second save of the same store is byte-identical on disk *)
       let path2 = path ^ ".again" in
       Fun.protect
         ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
         (fun () ->
            DS.Snapshot.save st path2;
            let slurp p =
              let ic = open_in_bin p in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            Alcotest.(check bool) "two saves byte-identical" true
              (String.equal (slurp path) (slurp path2))))

(* -------------------------------------------- 3. chunk invariance *)

let parse_chunked ?window st xml chunk =
  let pos = ref 0 in
  let reader b ofs len =
    let n = min (min len chunk) (String.length xml - !pos) in
    Bytes.blit_string xml !pos b ofs n;
    pos := !pos + n;
    n
  in
  ignore (Xmldb.Xml_parser.load_reader ?window st ~uri:"d.xml" reader)

let test_chunk_invariance () =
  let docs = Lazy.force sample_docs @ [ Lazy.force auction_xml ] in
  List.iteri
    (fun i xml ->
       let reference = DS.Snapshot.to_string (build true xml) in
       List.iter
         (fun chunk ->
            let chunk =
              if chunk = max_int then String.length xml else chunk
            in
            (* a window smaller than the default exercises compaction and
               growth; keep it tiny for the tiny chunks *)
            let window = if chunk <= 7 then 16 else 65536 in
            let st = DS.create ~packed:true () in
            parse_chunked ~window st xml chunk;
            Alcotest.(check bool)
              (Printf.sprintf "doc %d chunk %d byte-identical" i chunk)
              true
              (String.equal reference (DS.Snapshot.to_string st)))
         [ 1; 7; 65536; max_int ])
    docs

let test_chunk_invariance_load_file () =
  let xml = Lazy.force auction_xml in
  let reference = DS.Snapshot.to_string (build true xml) in
  let path = Filename.temp_file "xrq-chunk" ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let oc = open_out_bin path in
       output_string oc xml;
       close_out oc;
       List.iter
         (fun chunk_size ->
            let st = DS.create ~packed:true () in
            ignore
              (Xmldb.Xml_parser.load_file ~chunk_size st ~uri:"d.xml" path);
            Alcotest.(check bool)
              (Printf.sprintf "load_file chunk %d byte-identical" chunk_size)
              true
              (String.equal reference (DS.Snapshot.to_string st)))
         [ 512; 65536 ])

(* ----------------------------------------------- 4. engine parity *)

let queries_dir =
  if Sys.file_exists "../queries" then "../queries" else "queries"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus () =
  Sys.readdir queries_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".xq")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat queries_dir f)))

let doc_xml = "<a><b><c/><d/></b><c/><e k=\"1\">x<f/>y</e></a>"

let mk_corpus_store packed =
  let st = DS.create ~packed () in
  let _ =
    Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
      (Lazy.force auction_xml)
  in
  let _ = Xmldb.Xml_parser.load_document st ~uri:"t.xml" doc_xml in
  st

let configs =
  [ ("physical/serial", `On, 1);
    ("physical/jobs4", `On, 4);
    ("boxed/serial", `Off, 1);
    ("boxed/jobs4", `Off, 4) ]

let run_on st (physical, jobs) q =
  let opts = { Engine.default_opts with Engine.physical; jobs } in
  match Engine.run_result ~opts st q with
  | Ok r -> "ok: " ^ r.Engine.serialized
  | Error { Engine.kind; message } ->
    Basis.Err.kind_label kind ^ ": " ^ message

let test_corpus_parity () =
  (* three stores, one document: packed, boxed, and snapshot-loaded *)
  let sp = mk_corpus_store true in
  let sb = mk_corpus_store false in
  let sl = DS.Snapshot.of_string (DS.Snapshot.to_string sp) in
  List.iter
    (fun (file, text) ->
       List.iter
         (fun (cname, physical, jobs) ->
            let reference = run_on sb (physical, jobs) text in
            Alcotest.(check string)
              (Printf.sprintf "%s [%s] packed = boxed" file cname)
              reference
              (run_on sp (physical, jobs) text);
            Alcotest.(check string)
              (Printf.sprintf "%s [%s] loaded = boxed" file cname)
              reference
              (run_on sl (physical, jobs) text))
         configs)
    (corpus ())

(* ------------------------- 6. bulk accessors and the code-eval oracle *)

(* Every [*_range] decode must agree row for row with the per-row
   accessors — packed and boxed fragments alike — over empty, 1-row,
   interior, suffix and whole-column ranges, and each call must add
   exactly its row count to [Stats.bulk_decodes]. *)
let check_bulk_parity label f =
  let n = DS.frag_length f in
  if n > 0 then begin
    let ranges =
      [ (0, 0); (0, 1); (n - 1, n); (n / 3, min n ((2 * n / 3) + 1)); (0, n) ]
    in
    let kinds = Array.make n (DS.kind_at f 0) in
    let names = Array.make n 0 and values = Array.make n 0 in
    let sizes = Array.make n 0 and ncodes = Array.make n 0 in
    List.iter
      (fun (lo, hi) ->
         let len = hi - lo in
         let before = DS.Stats.bulk_decodes () in
         DS.kinds_range f lo hi kinds;
         DS.names_range f lo hi names;
         DS.values_range f lo hi values;
         DS.sizes_range f lo hi sizes;
         DS.name_codes_range f lo hi ncodes;
         for i = 0 to len - 1 do
           let pre = lo + i in
           let ck what got want =
             if got <> want then
               Alcotest.failf "%s [%d,%d): %s at pre %d: bulk %d, row %d"
                 label lo hi what pre got want
           in
           ck "kind"
             (Xmldb.Node_kind.to_int kinds.(i))
             (Xmldb.Node_kind.to_int (DS.kind_at f pre));
           ck "name" names.(i) (DS.name_at f pre);
           ck "value" values.(i) (DS.value_at f pre);
           ck "size" sizes.(i) (DS.size_at f pre);
           ck "name code" ncodes.(i) (DS.name_code_at f pre)
         done;
         let counted = DS.Stats.bulk_decodes () - before in
         if counted <> 5 * len then
           Alcotest.failf "%s [%d,%d): bulk_decodes counted %d, want %d"
             label lo hi counted (5 * len))
      ranges
  end

let test_bulk_accessor_parity () =
  let docs = Lazy.force sample_docs @ [ Lazy.force auction_xml ] in
  List.iteri
    (fun i xml ->
       List.iter
         (fun packed ->
            let st = build packed xml in
            for fi = 0 to DS.n_frags st - 1 do
              check_bulk_parity
                (Printf.sprintf "doc %d %s frag %d" i
                   (if packed then "packed" else "boxed")
                   fi)
                (DS.frag st fi)
            done)
         [ true; false ])
    docs

(* A tiny parse window forces multi-chunk packed columns, so the
   whole-column range crosses chunk seams. *)
let test_bulk_accessor_parity_chunked () =
  List.iteri
    (fun i xml ->
       let st = DS.create ~packed:true () in
       parse_chunked ~window:16 st xml 7;
       for fi = 0 to DS.n_frags st - 1 do
         check_bulk_parity
           (Printf.sprintf "chunked doc %d frag %d" i fi)
           (DS.frag st fi)
       done)
    [ List.nth (Lazy.force sample_docs) 0; Lazy.force auction_xml ]

(* The code-eval oracle: compressed execution (code-carrying columns,
   code-translated predicates, batched steps) must be byte-identical to
   the materialized reference path — over the whole query corpus and
   over equality shapes chosen to hit every translation case (match,
   no-match, a string the dictionary has never seen, the empty string,
   ne). Boxed stores present the identity coding and dictionary-hostile
   documents make the encoder reject per-fragment dictionaries; both
   fallbacks must stay invisible too. *)
let run_with opts st q =
  match Engine.run_result ~opts st q with
  | Ok r -> "ok: " ^ r.Engine.serialized
  | Error { Engine.kind; message } ->
    Basis.Err.kind_label kind ^ ": " ^ message

let code_eval_off = { Engine.default_opts with Engine.code_eval = false }

let eq_queries =
  [ ("text eq hit",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() eq "Graduate School" return $e)|});
    ("attr eq hit",
     {|count(for $t in doc("auction.xml")//closed_auction
            where $t/seller/@person eq "person0" return $t)|});
    ("eq absent string",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() eq "No Such Degree Anywhere" return $e)|});
    ("eq empty string",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() eq "" return $e)|});
    ("ne",
     {|count(for $e in doc("auction.xml")//profile/education
            where $e/text() ne "College" return $e)|}) ]

let test_code_eval_oracle_corpus () =
  let sp = mk_corpus_store true and sb = mk_corpus_store false in
  List.iter
    (fun (file, text) ->
       let want = run_with code_eval_off sp text in
       Alcotest.(check string)
         (Printf.sprintf "%s: code-eval on = off (packed)" file)
         want
         (run_with Engine.default_opts sp text);
       Alcotest.(check string)
         (Printf.sprintf "%s: code-eval on, boxed = off, packed" file)
         want
         (run_with Engine.default_opts sb text))
    (corpus ())

let test_code_eval_oracle_eq_shapes () =
  let sp = mk_corpus_store true and sb = mk_corpus_store false in
  List.iter
    (fun (name, q) ->
       let want = run_with code_eval_off sp q in
       Alcotest.(check string) (name ^ ": on = off, packed") want
         (run_with Engine.default_opts sp q);
       Alcotest.(check string) (name ^ ": on = off, boxed") want
         (run_with Engine.default_opts sb q))
    eq_queries;
  (* and the translated predicate really runs as a code compare on the
     packed store: the profile must say so for the hit queries *)
  let r =
    Engine.run ~opts:Engine.default_opts ~with_profile:true sp
      (List.assoc "attr eq hit" eq_queries)
  in
  match r.Engine.profile with
  | None -> Alcotest.fail "profile missing"
  | Some p ->
    let ph = Algebra.Profile.phys p in
    if ph.Algebra.Profile.code_preds <= 0 then
      Alcotest.fail "packed store: equality never ran on dictionary codes"

(* Dictionary-hostile vocabulary: the encoder rejects per-fragment
   dictionaries, [code_of_text] returns [None], and the predicate falls
   back — results must not move. *)
let test_code_eval_oracle_hostile () =
  let xml = gen_xml ~seed:42 ~names:400 ~max_children:8 ~depth:3 () in
  let queries =
    [ {|count(for $e in doc("d.xml")//* where $e/@a1 eq "v5" return $e)|};
      {|count(for $e in doc("d.xml")//* where $e/@a1 ne "v5" return $e)|};
      {|count(for $e in doc("d.xml")//* where $e/@a1 eq "" return $e)|} ]
  in
  List.iter
    (fun packed ->
       let st = build packed xml in
       List.iter
         (fun q ->
            Alcotest.(check string)
              (Printf.sprintf "hostile %s: on = off"
                 (if packed then "packed" else "boxed"))
              (run_with code_eval_off st q)
              (run_with Engine.default_opts st q))
         queries)
    [ true; false ]

(* --------------------------------------------------- 5. corruption *)

let expect_dynamic label thunk =
  match Basis.Err.protect_kind thunk with
  | Ok _ -> Alcotest.failf "%s: corrupt snapshot loaded successfully" label
  | Error (Basis.Err.Dynamic, msg) ->
    if not (String.length msg >= 16 && String.sub msg 0 16 = "corrupt snapshot")
    then Alcotest.failf "%s: unexpected message %S" label msg
  | Error (k, msg) ->
    Alcotest.failf "%s: wrong error class %s: %s" label
      (Basis.Err.kind_label k) msg

let test_corrupt_truncations () =
  let st = build true (List.nth (Lazy.force sample_docs) 0) in
  let s = DS.Snapshot.to_string st in
  let n = String.length s in
  List.iter
    (fun k ->
       let k = min k (n - 1) in
       expect_dynamic
         (Printf.sprintf "truncated to %d" k)
         (fun () -> DS.Snapshot.of_string (String.sub s 0 k)))
    [ 0; 3; 8; 11; n / 4; n / 2; n - 1 ]

let test_corrupt_bitflips () =
  let st = build true (List.nth (Lazy.force sample_docs) 0) in
  let s = DS.Snapshot.to_string st in
  let n = String.length s in
  let step = max 1 (n / 97) in
  let pos = ref 0 in
  while !pos < n do
    let b = Bytes.of_string s in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x40));
    (match Basis.Err.protect_kind (fun () ->
         DS.Snapshot.of_string (Bytes.to_string b)) with
     | Error (Basis.Err.Dynamic, _) -> ()
     | Error (k, msg) ->
       Alcotest.failf "flip at %d: wrong error class %s: %s" !pos
         (Basis.Err.kind_label k) msg
     | Ok st' ->
       (* a flip inside pool *string payloads* changes content the CRC
          protects — any successful load is a checksum hole *)
       ignore st';
       Alcotest.failf "flip at %d loaded successfully" !pos);
    pos := !pos + step
  done

let test_corrupt_version_and_magic () =
  let st = build true "<a/>" in
  let s = DS.Snapshot.to_string st in
  let with_byte i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (* bytes 0-7 are the magic, 8-11 the little-endian version *)
  expect_dynamic "bad magic" (fun () ->
      DS.Snapshot.of_string (with_byte 0 'Y'));
  expect_dynamic "future version" (fun () ->
      DS.Snapshot.of_string (with_byte 8 '\xFF'));
  expect_dynamic "trailing garbage" (fun () ->
      DS.Snapshot.of_string (s ^ "junk"));
  expect_dynamic "empty input" (fun () -> DS.Snapshot.of_string "")

let test_corrupt_missing_file () =
  match
    Basis.Err.protect_kind (fun () ->
        DS.Snapshot.load "/nonexistent/xrq-no-such-file.xrqs")
  with
  | Ok _ -> Alcotest.fail "load of missing file succeeded"
  | Error (Basis.Err.Dynamic, _) -> ()
  | Error (k, msg) ->
    Alcotest.failf "missing file: wrong error class %s: %s"
      (Basis.Err.kind_label k) msg

(* -------------------------------------- 7. query-scoped construction *)

(* Each run settles its own fragments: the ones its result references are
   frozen (packed in a packed store), every other one becomes a
   zero-length tombstone. Packed and boxed stores must still grow
   identically, snapshots must still round-trip byte for byte, and the
   name counts that seed the optimizer must never see a released node. *)

let count_sub s sub =
  let n = String.length sub in
  let k = ref 0 in
  for i = 0 to String.length s - n do
    if String.sub s i n = sub then incr k
  done;
  !k

let q10 = Xmark.Xmark_queries.get "Q10"

let auction_store packed =
  let st = DS.create ~packed () in
  ignore
    (Xmldb.Xml_parser.load_document st ~uri:"auction.xml"
       (Lazy.force auction_xml));
  st

let test_settled_stores_after_construction () =
  let sp = auction_store true and sb = auction_store false in
  let doc_nodes = DS.total_nodes sp in
  let rp = Engine.run sp q10 and rb = Engine.run sb q10 in
  Alcotest.(check string) "Q10 agrees on packed and boxed stores"
    rb.Engine.serialized rp.Engine.serialized;
  check_store_parity "after Q10" sp sb;
  (* the store grew by the result fragments alone *)
  let kept =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Algebra.Value.Node n -> Some (Xmldb.Node_id.frag n)
           | _ -> None)
         rp.Engine.items)
  in
  Alcotest.(check int) "total nodes = document + kept result fragments"
    (doc_nodes
     + List.fold_left (fun acc f -> acc + DS.frag_length (DS.frag sp f)) 0 kept)
    (DS.total_nodes sp);
  let s1 = DS.Snapshot.to_string sp in
  let s2 = DS.Snapshot.to_string (DS.Snapshot.of_string s1) in
  Alcotest.(check bool) "save -> load -> save identical after Q10" true
    (String.equal s1 s2);
  Alcotest.(check bool) "boxed source saves identically after Q10" true
    (String.equal s1 (DS.Snapshot.to_string sb))

let test_name_occurrences_skip_released () =
  let st = auction_store true in
  let name = Xmldb.Qname.make in
  (* fold the document first, so the query's fragments are counted
     incrementally on the next call *)
  Alcotest.(check int) "no personne before" 0
    (DS.name_occurrences st (name "personne"));
  let r = Engine.run st q10 in
  List.iter
    (fun tag ->
       let want =
         count_sub r.Engine.serialized ("<" ^ tag ^ ">")
         + count_sub r.Engine.serialized ("<" ^ tag ^ "/>")
       in
       if want = 0 then Alcotest.failf "Q10 result has no <%s>" tag;
       Alcotest.(check int)
         (tag ^ ": counted once per result node")
         want
         (DS.name_occurrences st (name tag)))
    [ "categorie"; "personne"; "statistiques"; "sexe" ]

(* A fragment still scratch when the counts fold (a concurrent query's,
   say) is set aside and folded once settled: a released one never
   counts, a kept one counts once. *)
let test_name_counts_wait_for_settle () =
  let st = build true "<d/>" in
  let q = Xmldb.Qname.make "w" in
  let scratch_w () =
    let scope = DS.Scope.create st in
    let b = DS.Builder.create ~scope st in
    DS.Builder.start_element b q;
    DS.Builder.end_element b;
    ignore (DS.Builder.finish b);
    scope
  in
  let released = scratch_w () and kept = scratch_w () in
  Alcotest.(check int) "scratch fragments not counted" 0
    (DS.name_occurrences st q);
  DS.Scope.release released;
  Alcotest.(check int) "released fragment never counted" 0
    (DS.name_occurrences st q);
  DS.Scope.settle kept ~keep:(fun _ -> true);
  Alcotest.(check int) "kept fragment counted once settled" 1
    (DS.name_occurrences st q);
  Alcotest.(check int) "and only once" 1 (DS.name_occurrences st q)

let test_constructed_order_across_settle () =
  let st = build true "<d/>" in
  let scope = DS.Scope.create st in
  let tree tag =
    let b = DS.Builder.create ~scope st in
    DS.Builder.start_element b (Xmldb.Qname.make tag);
    DS.Builder.text b tag;
    DS.Builder.end_element b;
    (snd (DS.Builder.finish b)).(0)
  in
  let a = tree "a" and m = tree "m" and z = tree "z" in
  Alcotest.(check bool) "scratch until settled" false
    (DS.frag_packed (DS.frag st (Xmldb.Node_id.frag a)));
  let keep f = f <> Xmldb.Node_id.frag m in
  DS.Scope.settle scope ~keep;
  Alcotest.(check int) "released fragment is a zero-length tombstone" 0
    (DS.frag_length (DS.frag st (Xmldb.Node_id.frag m)));
  List.iter
    (fun (n, tag) ->
       Alcotest.(check bool) (tag ^ " frozen packed") true
         (DS.frag_packed (DS.frag st (Xmldb.Node_id.frag n)));
       Alcotest.(check string) (tag ^ " intact")
         (Printf.sprintf "<%s>%s</%s>" tag tag tag)
         (Xmldb.Serialize.node_to_string st n))
    [ (a, "a"); (z, "z") ];
  let later = (snd (let b = DS.Builder.create st in
                    DS.Builder.start_element b (Xmldb.Qname.make "later");
                    DS.Builder.end_element b;
                    DS.Builder.finish b)).(0) in
  Alcotest.(check (list string)) "creation order is document order"
    [ "a"; "z"; "later" ]
    (List.map
       (fun n -> Xmldb.Qname.to_string (Option.get (DS.name st n)))
       (List.sort Xmldb.Node_id.compare [ later; z; a ]));
  (* the same across engine runs: a later query's trees order after an
     earlier one's, whatever each released in between *)
  let q = "for $i in 1 to 3 return <t><u>{$i}</u></t>/u" in
  let first = (Engine.run st q).Engine.items in
  let second = (Engine.run st q).Engine.items in
  let ids = List.map (function
      | Algebra.Value.Node n -> n
      | _ -> Alcotest.fail "expected nodes") (first @ second) in
  Alcotest.(check bool) "results of successive runs in creation order" true
    (List.sort Xmldb.Node_id.compare ids = ids)

let () =
  Alcotest.run "store-roundtrip"
    [ ("1. accessor parity packed vs boxed",
       [ Alcotest.test_case "random documents" `Quick
           test_accessor_parity_random;
         Alcotest.test_case "xmark instance (and the 2x bar)" `Quick
           test_accessor_parity_xmark;
         Alcotest.test_case "runtime-constructed fragments" `Quick
           test_accessor_parity_constructed ]);
      ("2. snapshot identity",
       [ Alcotest.test_case "save -> load -> save byte-identical" `Quick
           test_snapshot_roundtrip;
         Alcotest.test_case "boxed source saves identically" `Quick
           test_snapshot_boxed_source_identical;
         Alcotest.test_case "file round-trip + deterministic save" `Quick
           test_snapshot_file_roundtrip ]);
      ("3. chunk invariance",
       [ Alcotest.test_case "reader chunks {1,7,64K,whole}" `Quick
           test_chunk_invariance;
         Alcotest.test_case "load_file chunk sizes" `Quick
           test_chunk_invariance_load_file ]);
      ("4. engine parity across stores",
       [ Alcotest.test_case "corpus x configs, packed/boxed/loaded" `Slow
           test_corpus_parity ]);
      ("6. bulk accessors and the code-eval oracle",
       [ Alcotest.test_case "bulk range = per-row, packed and boxed" `Quick
           test_bulk_accessor_parity;
         Alcotest.test_case "bulk ranges across chunk seams" `Quick
           test_bulk_accessor_parity_chunked;
         Alcotest.test_case "code-eval on = off over the corpus" `Slow
           test_code_eval_oracle_corpus;
         Alcotest.test_case "equality shapes (hit/miss/empty/ne)" `Quick
           test_code_eval_oracle_eq_shapes;
         Alcotest.test_case "dictionary-hostile fallback" `Quick
           test_code_eval_oracle_hostile ]);
      ("7. query-scoped construction",
       [ Alcotest.test_case "settled stores after Q10" `Quick
           test_settled_stores_after_construction;
         Alcotest.test_case "name counts skip released nodes (Q10)" `Quick
           test_name_occurrences_skip_released;
         Alcotest.test_case "name counts wait for the settle" `Quick
           test_name_counts_wait_for_settle;
         Alcotest.test_case "constructed trees keep creation order" `Quick
           test_constructed_order_across_settle ]);
      ("5. corruption is a clean dynamic error",
       [ Alcotest.test_case "truncations" `Quick test_corrupt_truncations;
         Alcotest.test_case "bit flips" `Quick test_corrupt_bitflips;
         Alcotest.test_case "version, magic, trailing, empty" `Quick
           test_corrupt_version_and_magic;
         Alcotest.test_case "missing file" `Quick test_corrupt_missing_file ])
    ]
