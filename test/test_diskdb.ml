(* Disk backend tests: generation + full structural verification,
   durability across close/reopen, transaction abort (including B+tree
   root rollback), crash recovery with stolen pages, the clustering
   ablation, remote-mode latency accounting and result storage. *)

open Hyper_core
module B = Hyper_diskdb.Diskdb
module Gen = Generator.Make (B)
module O = Ops.Make (B)
module V = Verify.Make (B)
module P = Protocol.Make (B)

let check = Alcotest.check

let temp_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_diskdb_%d_%s_%d" (Unix.getpid ()) name !counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

let with_db ?(pool_pages = 256) ?remote name k =
  let path = temp_path name in
  let config = { (B.default_config ~path) with pool_pages; remote } in
  let b = B.open_db config in
  Fun.protect
    ~finally:(fun () ->
      (try B.close b with _ -> ());
      cleanup path)
    (fun () -> k b config path)

let generate ?(leaf_level = 4) ?(seed = 42L) ?(cluster = true) b =
  Gen.generate ~cluster b ~doc:1 ~leaf_level ~seed

let assert_verifies b layout =
  List.iter
    (fun c ->
      if not c.Verify.ok then
        Alcotest.failf "verify: %s — %s" c.Verify.name c.Verify.detail)
    (V.run b layout)

(* --- basics --- *)

let test_generate_and_verify () =
  with_db "gen" (fun b _ _ ->
      let layout, timings = generate b in
      check Alcotest.int "node count" 781 (B.node_count b ~doc:1);
      assert_verifies b layout;
      check Alcotest.int "five phases" 5 (List.length timings.Generator.phases))

let test_persistence () =
  let path = temp_path "persist" in
  let config = B.default_config ~path in
  let b = B.open_db config in
  let layout, _ = generate b in
  let sample_text = B.text b (Layout.random_text layout (Hyper_util.Prng.create 1L)) in
  B.close b;
  (* Reopen: everything must still verify; no recovery needed. *)
  let b2 = B.open_db config in
  check Alcotest.bool "no recovery" true (B.last_recovery b2 = None);
  check Alcotest.int "count after reopen" 781 (B.node_count b2 ~doc:1);
  assert_verifies b2 layout;
  (* Cold lookups work through the reopened object table and indexes. *)
  (match O.name_lookup b2 ~doc:1 ~uid:500 with
  | Some _ -> ()
  | None -> Alcotest.fail "uid 500 lost");
  ignore (sample_text : string);
  B.close b2;
  cleanup path

let test_mutation_requires_txn () =
  with_db "txn" (fun b _ _ ->
      let _layout, _ = generate b in
      Alcotest.check_raises "set_hundred outside txn"
        (Invalid_argument "Engine: mutation outside a transaction") (fun () ->
          B.set_hundred b 1 50))

let test_abort_rolls_back () =
  with_db "abort" (fun b _ _ ->
      let layout, _ = generate b in
      let start = Layout.level_first_oid layout 3 in
      let sum0 = O.closure_1n_att_sum b ~start in
      let h0 = B.hundred b 10 in
      B.begin_txn b;
      ignore (O.closure_1n_att_set b ~start : int);
      B.set_hundred b 10 77;
      B.abort b;
      check Alcotest.int "attribute sum rolled back" sum0
        (O.closure_1n_att_sum b ~start);
      check Alcotest.int "single attr rolled back" h0 (B.hundred b 10);
      (* Indexes consistent after rollback. *)
      assert_verifies b layout)

let test_abort_many_inserts_under_pressure () =
  (* A small pool forces dirty-page steals during the transaction; abort
     must restore the stolen pages from undo images. *)
  with_db ~pool_pages:8 "abort2" (fun b _ _ ->
      B.begin_txn b;
      for i = 1 to 50 do
        B.create_node b
          { Schema.oid = i; doc = 1; unique_id = i; ten = 1; hundred = 50;
            million = 5; payload = Schema.P_internal }
      done;
      B.commit b;
      check Alcotest.int "committed" 50 (B.node_count b ~doc:1);
      B.begin_txn b;
      for i = 51 to 400 do
        B.create_node b
          { Schema.oid = i; doc = 1; unique_id = i; ten = 2; hundred = 60;
            million = 6; payload = Schema.P_internal }
      done;
      B.abort b;
      check Alcotest.int "aborted inserts gone" 50 (B.node_count b ~doc:1);
      check (Alcotest.option Alcotest.int) "uid 300 gone" None
        (B.lookup_unique b ~doc:1 300);
      check (Alcotest.option Alcotest.int) "uid 50 kept" (Some 50)
        (B.lookup_unique b ~doc:1 50);
      (* The store remains fully usable. *)
      B.begin_txn b;
      B.create_node b
        { Schema.oid = 1000; doc = 1; unique_id = 1000; ten = 3; hundred = 70;
          million = 7; payload = Schema.P_internal };
      B.commit b;
      check Alcotest.int "insert after abort" 51 (B.node_count b ~doc:1))

let test_crash_recovery () =
  (* Simulate a crash with an uncommitted transaction whose pages were
     stolen to disk: copy the data and WAL files mid-transaction, then
     open the copy. *)
  let path = temp_path "crash" in
  let config = { (B.default_config ~path) with pool_pages = 8 } in
  let b = B.open_db config in
  B.begin_txn b;
  for i = 1 to 50 do
    B.create_node b
      { Schema.oid = i; doc = 1; unique_id = i; ten = 1; hundred = 10;
        million = 100; payload = Schema.P_internal }
  done;
  B.commit b;
  B.begin_txn b;
  for i = 51 to 400 do
    B.create_node b
      { Schema.oid = i; doc = 1; unique_id = i; ten = 2; hundred = 20;
        million = 200; payload = Schema.P_internal }
  done;
  (* "Crash": snapshot the files while the transaction is open. *)
  let copy src dst =
    let ic = open_in_bin src and oc = open_out_bin dst in
    let len = in_channel_length ic in
    let buf = really_input_string ic len in
    output_string oc buf;
    close_in ic;
    close_out oc
  in
  let path2 = temp_path "crash_copy" in
  copy path path2;
  copy (path ^ ".wal") (path2 ^ ".wal");
  B.abort b;
  B.close b;
  cleanup path;
  let b2 = B.open_db { (B.default_config ~path:path2) with pool_pages = 64 } in
  (match B.last_recovery b2 with
  | Some report ->
    check
      (Alcotest.list Alcotest.int)
      "uncommitted txn rolled back" [ 2 ] report.Hyper_storage.Recovery.rolled_back
  | None -> Alcotest.fail "expected a recovery pass");
  check Alcotest.int "committed survives" 50 (B.node_count b2 ~doc:1);
  check (Alcotest.option Alcotest.int) "uid 50 alive" (Some 50)
    (B.lookup_unique b2 ~doc:1 50);
  check (Alcotest.option Alcotest.int) "uid 300 rolled back" None
    (B.lookup_unique b2 ~doc:1 300);
  B.close b2;
  cleanup path2

let test_clustering_reduces_cold_misses () =
  let cold_misses cluster =
    with_db ~pool_pages:16 "cluster" (fun b _ _ ->
        let layout, _ = generate ~cluster b in
        B.clear_caches b;
        B.reset_io b;
        (* Cold 1-N closures from every level-3 node of the first subtree. *)
        let rng = Hyper_util.Prng.create 5L in
        B.begin_txn b;
        for _ = 1 to 20 do
          ignore (O.closure_1n b ~start:(Layout.random_level layout rng 3))
        done;
        B.commit b;
        (B.io_counters b).B.pool_misses)
  in
  let clustered = cold_misses true in
  let unclustered = cold_misses false in
  if clustered >= unclustered then
    Alcotest.failf "clustering did not reduce misses: %d vs %d" clustered
      unclustered

let test_remote_mode_charges_latency () =
  with_db ~pool_pages:64 ~remote:B.remote_1988 "remote" (fun b _ _ ->
      let layout, _ = generate b in
      Hyper_util.Vclock.reset_virtual ();
      B.clear_caches b;
      let v0 = Hyper_util.Vclock.virtual_ns () in
      ignore (O.name_oid_lookup b ~oid:(Layout.root layout) : int);
      let cold_cost = Hyper_util.Vclock.virtual_ns () -. v0 in
      if cold_cost <= 0.0 then Alcotest.fail "cold read cost nothing";
      let v1 = Hyper_util.Vclock.virtual_ns () in
      ignore (O.name_oid_lookup b ~oid:(Layout.root layout) : int);
      let warm_cost = Hyper_util.Vclock.virtual_ns () -. v1 in
      check (Alcotest.float 0.0) "warm read free" 0.0 warm_cost;
      let c = B.io_counters b in
      if c.B.round_trips = 0 then Alcotest.fail "no round trips counted")

let test_stored_results () =
  with_db "results" (fun b _ _ ->
      let layout, _ = generate b in
      let start = Layout.level_first_oid layout 3 in
      B.begin_txn b;
      let closure = O.closure_1n b ~start in
      B.commit b;
      check Alcotest.int "one stored result" 1 (B.stored_result_count b);
      check (Alcotest.list Alcotest.int) "stored list matches" closure
        (B.stored_result b 0))

let test_object_cache_semantics_and_savings () =
  (* With the check-out cache on, results are identical but warm access
     skips the buffer pool; abort and cold reset must invalidate. *)
  let path = temp_path "objcache" in
  let config =
    { (B.default_config ~path) with B.pool_pages = 256; object_cache = 4096 }
  in
  let b = B.open_db config in
  Fun.protect
    ~finally:(fun () ->
      (try B.close b with _ -> ());
      cleanup path)
    (fun () ->
      let layout, _ = generate b in
      assert_verifies b layout;
      let start = Layout.level_first_oid layout 3 in
      (* Warm the cache, then measure pool traffic of a cached closure. *)
      B.begin_txn b;
      ignore (O.closure_1n b ~start);
      B.commit b;
      B.reset_io b;
      let sum_cached = O.closure_1n_att_sum b ~start in
      let c = B.io_counters b in
      check Alcotest.int "no pool traffic when cached" 0
        (c.B.pool_hits + c.B.pool_misses);
      if c.B.object_hits = 0 then Alcotest.fail "expected object-cache hits";
      (* Same answer as an uncached read (cold reset drops the cache). *)
      B.clear_caches b;
      B.reset_io b;
      let sum_cold = O.closure_1n_att_sum b ~start in
      check Alcotest.int "cached = uncached result" sum_cold sum_cached;
      let c = B.io_counters b in
      if c.B.pool_hits + c.B.pool_misses = 0 then
        Alcotest.fail "cold read should touch the pool";
      (* Mutation through the cache is visible and abort invalidates. *)
      let h0 = B.hundred b start in
      B.begin_txn b;
      B.set_hundred b start 77;
      check Alcotest.int "write visible through cache" 77 (B.hundred b start);
      B.abort b;
      check Alcotest.int "abort invalidates cached object" h0
        (B.hundred b start))

let test_uid_hash_index_access_path () =
  (* With the linear-hash access path on, every uid lookup goes through
     the hash; contents, persistence and deletes must all agree. *)
  let path = temp_path "uidhash" in
  let config =
    { (B.default_config ~path) with B.uid_hash_index = true }
  in
  let b = B.open_db config in
  let layout, _ = generate b in
  assert_verifies b layout (* the verifier probes every uid *);
  B.close b;
  (* Persistence: hash header reattaches. *)
  let b2 = B.open_db config in
  check (Alcotest.option Alcotest.int) "hash lookup after reopen" (Some 600)
    (B.lookup_unique b2 ~doc:1 600);
  (* Deletion unhooks the hash entry too. *)
  B.begin_txn b2;
  B.delete_node b2 (Layout.level_first_oid layout 4);
  B.commit b2;
  let gone = Layout.uid_of_oid layout (Layout.level_first_oid layout 4) in
  check (Alcotest.option Alcotest.int) "deleted uid gone from hash" None
    (B.lookup_unique b2 ~doc:1 gone);
  B.close b2;
  cleanup path

let test_gc_reclaims_aborted_pages () =
  (* An aborted transaction that grew the file leaves orphan pages: the
     undo restores contents and roots, but not the file length.  GC must
     find them and later inserts must reuse them instead of growing. *)
  with_db ~pool_pages:8 "gc" (fun b _ _ ->
      B.begin_txn b;
      for i = 1 to 20 do
        B.create_node b
          { Schema.oid = i; doc = 1; unique_id = i; ten = 1; hundred = 10;
            million = 100; payload = Schema.P_internal }
      done;
      B.commit b;
      B.begin_txn b;
      for i = 21 to 600 do
        B.create_node b
          { Schema.oid = i; doc = 1; unique_id = i; ten = 2; hundred = 20;
            million = 200;
            payload = Schema.P_text (String.make 300 'x') }
      done;
      B.abort b;
      let size_after_abort = B.file_bytes b in
      let freed = B.collect_garbage b in
      if freed <= 0 then Alcotest.fail "expected orphan pages to be reclaimed";
      (* A second collection finds nothing. *)
      check Alcotest.int "gc is idempotent" 0 (B.collect_garbage b);
      (* Contents intact. *)
      check Alcotest.int "nodes intact" 20 (B.node_count b ~doc:1);
      check (Alcotest.option Alcotest.int) "lookup intact" (Some 7)
        (B.lookup_unique b ~doc:1 7);
      (* New inserts consume the free list, not fresh file space. *)
      B.begin_txn b;
      for i = 1000 to 1040 do
        B.create_node b
          { Schema.oid = i; doc = 1; unique_id = i; ten = 3; hundred = 30;
            million = 300; payload = Schema.P_internal }
      done;
      B.commit b;
      check Alcotest.int "file did not grow" size_after_abort (B.file_bytes b))

let test_ops_match_memdb () =
  (* Same seed => the same database; every operation must agree with the
     in-memory backend (ground truth). *)
  let bm = Hyper_memdb.Memdb.create () in
  let module GenM = Generator.Make (Hyper_memdb.Memdb) in
  let module OM = Ops.Make (Hyper_memdb.Memdb) in
  let layout_m, _ = GenM.generate bm ~doc:1 ~leaf_level:4 ~seed:11L in
  with_db "matches" (fun b _ _ ->
      let layout, _ = generate ~seed:11L b in
      check Alcotest.int "same node count" layout_m.Layout.node_count
        layout.Layout.node_count;
      Layout.iter_oids layout (fun oid ->
          if B.hundred b oid <> Hyper_memdb.Memdb.hundred bm oid then
            Alcotest.failf "hundred differs at %d" oid;
          if B.parts b oid <> Hyper_memdb.Memdb.parts bm oid then
            Alcotest.failf "parts differ at %d" oid);
      let start = Layout.level_first_oid layout 3 in
      B.begin_txn b;
      let c1 = O.closure_1n b ~start in
      B.commit b;
      Hyper_memdb.Memdb.begin_txn bm;
      let c2 = OM.closure_1n bm ~start in
      Hyper_memdb.Memdb.commit bm;
      check (Alcotest.list Alcotest.int) "identical closures" c2 c1;
      let r1 = List.sort compare (O.range_lookup_million b ~doc:1 ~x:400_000) in
      let r2 =
        List.sort compare (OM.range_lookup_million bm ~doc:1 ~x:400_000)
      in
      check (Alcotest.list Alcotest.int) "identical range results" r2 r1)

let test_protocol_smoke () =
  with_db ~pool_pages:512 "protocol" (fun b _ _ ->
      let layout, _ = generate b in
      let config = { Protocol.default_config with reps = 3 } in
      let ms = P.run_all ~config b layout in
      check Alcotest.int "20 ops" 20 (List.length ms);
      List.iter
        (fun m ->
          if m.Protocol.cold_ms < 0.0 then
            Alcotest.failf "%s: negative time" m.Protocol.op)
        ms)

let test_text_edit_grows_record () =
  (* version-2 is longer; the record must update (possibly relocating)
     without corrupting neighbours. *)
  with_db "edit" (fun b _ _ ->
      let layout, _ = generate b in
      let rng = Hyper_util.Prng.create 3L in
      B.begin_txn b;
      for _ = 1 to 50 do
        let oid = Layout.random_text layout rng in
        (* Forward then back: each edit grows/shrinks the record, and the
           pair leaves the database verifiable. *)
        O.text_node_edit b ~oid;
        O.text_node_edit b ~oid
      done;
      B.commit b;
      assert_verifies b layout |> ignore;
      ())

let test_form_edit_overflow_roundtrip () =
  with_db "form" (fun b _ _ ->
      let layout, _ = generate b in
      let oid = Layout.random_form layout (Hyper_util.Prng.create 8L) in
      B.begin_txn b;
      O.form_node_edit b ~oid ~x:0 ~y:0 ~w:50 ~h:50;
      B.commit b;
      check Alcotest.int "edit persisted through overflow pages" (50 * 50)
        (Hyper_util.Bitmap.count_set (B.form b oid));
      B.begin_txn b;
      O.form_node_edit b ~oid ~x:0 ~y:0 ~w:50 ~h:50;
      B.commit b;
      check Alcotest.int "self-inverse" 0
        (Hyper_util.Bitmap.count_set (B.form b oid)))

(* Every commit saves the roots into the meta page (page 0).  A commit
   that changes no root must leave page 0 clean: no WAL record for it
   and no pager write of it. *)
let test_unchanged_roots_leave_meta_clean () =
  with_db "meta" (fun b _ path ->
      ignore (generate ~leaf_level:3 b);
      let oid = 5 in
      let pager = Hyper_storage.Engine.pager (B.engine b) in
      let writes = ref [] in
      Hyper_storage.Pager.set_hooks pager ~on_read:ignore
        ~on_write:(fun id -> writes := id :: !writes);
      B.begin_txn b;
      B.set_hundred b oid ((B.hundred b oid mod 100) + 1);
      B.commit b;
      Hyper_storage.Pager.clear_hooks pager;
      let rec last_txn acc = function
        | [] -> acc
        | (Hyper_storage.Wal.Begin _ as e) :: rest -> last_txn [ e ] rest
        | e :: rest -> last_txn (acc @ [ e ]) rest
      in
      let txn =
        last_txn [] (Hyper_storage.Wal.read_all (path ^ ".wal"))
      in
      let pages =
        List.filter_map
          (function
            | Hyper_storage.Wal.After (_, p, _)
            | Hyper_storage.Wal.Before (_, p, _) -> Some p
            | _ -> None)
          txn
      in
      check Alcotest.bool "the update logged some page" true (pages <> []);
      check Alcotest.bool "the update wrote some page" true (!writes <> []);
      check Alcotest.bool "no record for page 0" false (List.mem 0 pages);
      check Alcotest.bool "no write of page 0" false (List.mem 0 !writes))

(* --- projected reads and the in-place scalar write --- *)

module Codec = Hyper_diskdb.Codec
module Vfs = Hyper_storage.Vfs

let show_ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let show_links a =
  show_ints
    (Array.concat
       (Array.to_list
          (Array.map
             (fun l -> [| l.Schema.target; l.Schema.offset_from; l.Schema.offset_to |])
             a)))

let show_kind = function
  | Schema.Internal -> "internal"
  | Schema.Text -> "text"
  | Schema.Form -> "form"
  | Schema.Draw -> "draw"

(* Every projected reader, printed, next to the decoded field it must
   reproduce, printed the same way. *)
let projections :
    (string * (bytes -> off:int -> len:int -> string) * (Codec.node -> string))
    list =
  let int = string_of_int in
  let dyn l = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ int v) l) in
  [ ("doc", (fun b ~off ~len -> int (Codec.doc_at b ~off ~len)),
     fun n -> int n.Codec.doc);
    ("unique_id", (fun b ~off ~len -> int (Codec.unique_id_at b ~off ~len)),
     fun n -> int n.Codec.unique_id);
    ("kind", (fun b ~off ~len -> show_kind (Codec.kind_at b ~off ~len)),
     fun n -> show_kind n.Codec.kind);
    ("ten", (fun b ~off ~len -> int (Codec.ten_at b ~off ~len)),
     fun n -> int n.Codec.ten);
    ("hundred", (fun b ~off ~len -> int (Codec.hundred_at b ~off ~len)),
     fun n -> int n.Codec.hundred);
    ("million", (fun b ~off ~len -> int (Codec.million_at b ~off ~len)),
     fun n -> int n.Codec.million);
    ("parent", (fun b ~off ~len -> int (Codec.parent_at b ~off ~len)),
     fun n -> int n.Codec.parent);
    ("children", (fun b ~off ~len -> show_ints (Codec.children_at b ~off ~len)),
     fun n -> show_ints n.Codec.children);
    ("parts", (fun b ~off ~len -> show_ints (Codec.parts_at b ~off ~len)),
     fun n -> show_ints n.Codec.parts);
    ("part_of", (fun b ~off ~len -> show_ints (Codec.part_of_at b ~off ~len)),
     fun n -> show_ints n.Codec.part_of);
    ("refs_to", (fun b ~off ~len -> show_links (Codec.refs_to_at b ~off ~len)),
     fun n -> show_links n.Codec.refs_to);
    ("refs_from",
     (fun b ~off ~len -> show_links (Codec.refs_from_at b ~off ~len)),
     fun n -> show_links n.Codec.refs_from);
    ("dyn", (fun b ~off ~len -> dyn (Codec.dyn_at b ~off ~len)),
     fun n -> dyn n.Codec.dyn);
    ("text", (fun b ~off ~len -> Codec.text_at b ~off ~len),
     fun n -> n.Codec.text);
    ("form", (fun b ~off ~len -> Bytes.to_string (Codec.form_at b ~off ~len)),
     fun n -> Bytes.to_string n.Codec.form) ]

(* The backend accessor for a projection, printed the same way, so the
   heap's overflow-prefix path is checked along with the codec. *)
let accessor b oid = function
  | "unique_id" -> Some (string_of_int (B.unique_id b oid))
  | "kind" -> Some (show_kind (B.kind b oid))
  | "ten" -> Some (string_of_int (B.ten b oid))
  | "hundred" -> Some (string_of_int (B.hundred b oid))
  | "million" -> Some (string_of_int (B.million b oid))
  | "parent" -> Some (string_of_int (Option.value ~default:0 (B.parent b oid)))
  | "children" -> Some (show_ints (B.children b oid))
  | "parts" -> Some (show_ints (B.parts b oid))
  | "part_of" -> Some (show_ints (B.part_of b oid))
  | "refs_to" -> Some (show_links (B.refs_to b oid))
  | "refs_from" -> Some (show_links (B.refs_from b oid))
  | _ -> None

let test_projected_readers_match_decode () =
  with_db "project" (fun b _ _ ->
      let layout, _ = generate b in
      let dyn_oid = Layout.level_first_oid layout 2 in
      B.begin_txn b;
      B.set_dyn_attr b dyn_oid "colour" 7;
      B.set_dyn_attr b dyn_oid "weight" 12;
      B.commit b;
      let seen_dyn = ref false and seen_overflow = ref false in
      B.iter_doc b ~doc:1 (fun oid ->
          let r = B.record b oid in
          let n = Codec.decode r in
          if n.Codec.dyn <> [] then seen_dyn := true;
          if n.Codec.kind = Schema.Form && Bytes.length r > Hyper_storage.Page.size
          then seen_overflow := true;
          (* The same record inside a larger buffer: readers honour off. *)
          let pad = 5 in
          let framed = Bytes.make (Bytes.length r + (2 * pad)) '\xff' in
          Bytes.blit r 0 framed pad (Bytes.length r);
          List.iter
            (fun (name, at, field) ->
              let what = Printf.sprintf "node %d %s" oid name in
              check Alcotest.string what (field n)
                (at r ~off:0 ~len:(Bytes.length r));
              check Alcotest.string (what ^ " (framed)") (field n)
                (at framed ~off:pad ~len:(Bytes.length r));
              match accessor b oid name with
              | Some v -> check Alcotest.string (what ^ " (accessor)") (field n) v
              | None -> ())
            projections;
          (match n.Codec.kind with
          | Schema.Text -> check Alcotest.string "text accessor" n.Codec.text (B.text b oid)
          | Schema.Form ->
            check Alcotest.string "form accessor" (Bytes.to_string n.Codec.form)
              (Bytes.to_string (Hyper_util.Bitmap.to_bytes (B.form b oid)))
          | Schema.Internal | Schema.Draw -> ());
          check (Alcotest.option Alcotest.int) "dyn accessor"
            (List.assoc_opt "colour" n.Codec.dyn) (B.dyn_attr b oid "colour"));
      check Alcotest.bool "a node with dyn attributes" true !seen_dyn;
      check Alcotest.bool "a form node in overflow pages" true !seen_overflow)

(* A record with every section non-empty: each reader needs a longer
   prefix than the one before it, and any window shorter than its
   prefix raises Invalid_argument, as [decode_at] does. *)
let test_truncated_window_raises () =
  let link target = { Schema.target; offset_from = 3; offset_to = 4 } in
  let n =
    { Codec.doc = 1; unique_id = 9; kind = Schema.Text; ten = 4; hundred = -1;
      million = 123456; parent = 77; children = [| 1; 2 |]; parts = [| 3 |];
      part_of = [| 4; 5 |]; refs_to = [| link 6 |]; refs_from = [| link 7 |];
      dyn = [ ("k", 2) ]; text = "abc"; form = Bytes.of_string "xy" }
  in
  let r = Codec.encode n in
  let full = Bytes.length r in
  let raises at len =
    match at r ~off:0 ~len with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let needed =
    List.map
      (fun (name, at, field) ->
        (* The shortest window the reader accepts... *)
        let rec first len =
          if len > full then Alcotest.failf "%s rejects the whole record" name
          else if raises at len then first (len + 1)
          else len
        in
        let need = first 0 in
        (* ...and every longer window reads the right value. *)
        for len = need to full do
          check Alcotest.string
            (Printf.sprintf "%s at len %d" name len)
            (field n) (at r ~off:0 ~len)
        done;
        check Alcotest.bool (name ^ " needs at least the header") true (need >= 22);
        if need > 0 then
          check Alcotest.bool (name ^ " raises one byte short") true
            (raises at (need - 1));
        check Alcotest.bool (name ^ " raises outside the buffer") true
          (match at r ~off:1 ~len:full with
          | _ -> false
          | exception Invalid_argument _ -> true);
        (name, need))
      projections
  in
  let sections =
    [ "parent"; "children"; "parts"; "part_of"; "refs_to"; "refs_from";
      "dyn"; "text"; "form" ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) ->
      check Alcotest.bool
        (Printf.sprintf "%s reads past %s" b a)
        true
        (List.assoc a needed < List.assoc b needed);
      increasing rest
    | [ _ ] | [] -> ()
  in
  increasing sections;
  check Alcotest.int "form reads to the end" full (List.assoc "form" needed);
  for len = 0 to full - 1 do
    match Codec.decode_at r ~off:0 ~len with
    | _ -> Alcotest.failf "decode_at accepted a %d-byte prefix" len
    | exception Invalid_argument _ -> ()
  done

(* [set_hundred] patches the record in place.  The write must behave
   like any other: visible inside its transaction, undone by abort,
   durable across close and reopen, and redone by recovery after a
   crash that follows the commit — with the hundred index agreeing at
   every step, for an inline record and an overflow (form) record. *)
let test_in_place_set_hundred object_cache () =
  let env =
    Vfs.Faulty.create { Vfs.Faulty.quiet with Vfs.Faulty.power_loss = true }
  in
  let config =
    { (B.default_config ~path:"/inplace/x.db") with
      B.object_cache; durable_sync = true; vfs = Some (Vfs.Faulty.vfs env) }
  in
  let b = ref (B.open_db config) in
  let layout, _ = generate !b in
  let rng = Hyper_util.Prng.create 4L in
  let targets = [ Layout.random_text layout rng; Layout.random_form layout rng ] in
  let agree what oid v =
    check Alcotest.int (what ^ ": hundred") v (B.hundred !b oid);
    check Alcotest.bool (what ^ ": index has the value") true
      (List.mem oid (B.range_hundred !b ~doc:1 ~lo:v ~hi:v));
    List.iter
      (fun other ->
        if other <> v then
          check Alcotest.bool (what ^ ": index lost the old value") false
            (List.mem oid (B.range_hundred !b ~doc:1 ~lo:other ~hi:other)))
      [ 1; 50; 100; (v mod 100) + 1 ]
  in
  List.iter
    (fun oid ->
      let h0 = B.hundred !b oid in
      let v1 = (h0 mod 100) + 1 in
      let v2 = (v1 mod 100) + 1 in
      let kind = B.kind !b oid and uid = B.unique_id !b oid in
      B.begin_txn !b;
      B.set_hundred !b oid v1;
      agree "inside the transaction" oid v1;
      B.abort !b;
      agree "after abort" oid h0;
      B.begin_txn !b;
      B.set_hundred !b oid v1;
      B.commit !b;
      B.close !b;
      b := B.open_db config;
      agree "after reopen" oid v1;
      B.begin_txn !b;
      B.set_hundred !b oid v2;
      B.commit !b;
      Vfs.Faulty.power_fail env;
      b := B.open_db config;
      (match B.last_recovery !b with
      | Some report ->
        check Alcotest.bool "recovery redid the commit" true
          (report.Hyper_storage.Recovery.committed <> [])
      | None -> Alcotest.fail "expected a recovery pass");
      agree "after crash recovery" oid v2;
      check Alcotest.bool "other fields intact" true
        (B.kind !b oid = kind && B.unique_id !b oid = uid))
    targets;
  assert_verifies !b layout;
  B.close !b

let () =
  Alcotest.run "hyper_diskdb"
    [
      ( "basics",
        [
          Alcotest.test_case "generate + verify" `Quick test_generate_and_verify;
          Alcotest.test_case "persistence across reopen" `Quick test_persistence;
          Alcotest.test_case "mutation requires txn" `Quick
            test_mutation_requires_txn;
          Alcotest.test_case "ops match memdb ground truth" `Quick
            test_ops_match_memdb;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back;
          Alcotest.test_case "abort under buffer pressure" `Quick
            test_abort_many_inserts_under_pressure;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "gc reclaims aborted pages" `Quick
            test_gc_reclaims_aborted_pages;
          Alcotest.test_case "object cache semantics" `Quick
            test_object_cache_semantics_and_savings;
          Alcotest.test_case "uid hash access path" `Quick
            test_uid_hash_index_access_path;
          Alcotest.test_case "unchanged roots leave page 0 clean" `Quick
            test_unchanged_roots_leave_meta_clean;
        ] );
      ( "physical design",
        [
          Alcotest.test_case "clustering reduces cold misses" `Quick
            test_clustering_reduces_cold_misses;
          Alcotest.test_case "remote mode charges latency" `Quick
            test_remote_mode_charges_latency;
          Alcotest.test_case "text edits relocate safely" `Quick
            test_text_edit_grows_record;
          Alcotest.test_case "form edits through overflow" `Quick
            test_form_edit_overflow_roundtrip;
        ] );
      ( "projected reads",
        [
          Alcotest.test_case "readers match decode on every node" `Quick
            test_projected_readers_match_decode;
          Alcotest.test_case "truncated window raises" `Quick
            test_truncated_window_raises;
          Alcotest.test_case "in-place set_hundred, no object cache" `Quick
            (test_in_place_set_hundred 0);
          Alcotest.test_case "in-place set_hundred, object cache" `Quick
            (test_in_place_set_hundred 4096);
        ] );
      ( "results+protocol",
        [
          Alcotest.test_case "stored results" `Quick test_stored_results;
          Alcotest.test_case "protocol smoke" `Quick test_protocol_smoke;
        ] );
    ]
