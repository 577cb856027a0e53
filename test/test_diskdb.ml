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
      ( "results+protocol",
        [
          Alcotest.test_case "stored results" `Quick test_stored_results;
          Alcotest.test_case "protocol smoke" `Quick test_protocol_smoke;
        ] );
    ]
