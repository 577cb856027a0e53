(* Relational backend tests: generation + verification, cross-backend
   equivalence against memdb, ordered children through the CHILD table's
   position column, persistence, abort, and the protocol smoke test. *)

open Hyper_core
module B = Hyper_reldb.Reldb
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
      (Printf.sprintf "hyper_reldb_%d_%s_%d" (Unix.getpid ()) name !counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

let with_db ?(pool_pages = 512) name k =
  let path = temp_path name in
  let config = { (B.default_config ~path) with pool_pages } in
  let b = B.open_db config in
  Fun.protect
    ~finally:(fun () ->
      (try B.close b with _ -> ());
      cleanup path)
    (fun () -> k b path)

let generate ?(leaf_level = 4) ?(seed = 42L) b =
  Gen.generate b ~doc:1 ~leaf_level ~seed

let assert_verifies b layout =
  List.iter
    (fun c ->
      if not c.Verify.ok then
        Alcotest.failf "verify: %s — %s" c.Verify.name c.Verify.detail)
    (V.run b layout)

let test_generate_and_verify () =
  with_db "gen" (fun b _ ->
      let layout, _ = generate b in
      check Alcotest.int "node count" 781 (B.node_count b ~doc:1);
      assert_verifies b layout)

let test_children_order_via_pos () =
  with_db "order" (fun b _ ->
      B.begin_txn b;
      List.iter
        (fun oid ->
          B.create_node b
            { Schema.oid; doc = 1; unique_id = oid; ten = 1; hundred = 1;
              million = 1; payload = Schema.P_internal })
        [ 1; 2; 3; 4 ];
      (* Insert children out of OID order: sequence must follow insertion
         order, not key order. *)
      B.add_child b ~parent:1 ~child:3;
      B.add_child b ~parent:1 ~child:2;
      B.add_child b ~parent:1 ~child:4;
      B.commit b;
      check (Alcotest.array Alcotest.int) "insertion order" [| 3; 2; 4 |]
        (B.children b 1))

let test_ops_match_memdb () =
  let bm = Hyper_memdb.Memdb.create () in
  let module GenM = Generator.Make (Hyper_memdb.Memdb) in
  let module OM = Ops.Make (Hyper_memdb.Memdb) in
  let _layout_m, _ = GenM.generate bm ~doc:1 ~leaf_level:4 ~seed:11L in
  with_db "match" (fun b _ ->
      let layout, _ = generate ~seed:11L b in
      Layout.iter_oids layout (fun oid ->
          if B.million b oid <> Hyper_memdb.Memdb.million bm oid then
            Alcotest.failf "million differs at %d" oid;
          if B.part_of b oid <> Hyper_memdb.Memdb.part_of bm oid then
            Alcotest.failf "part_of differs at %d" oid;
          if B.refs_from b oid <> Hyper_memdb.Memdb.refs_from bm oid then
            Alcotest.failf "refs_from differs at %d" oid);
      let start = Layout.level_first_oid layout 3 in
      B.begin_txn b;
      let c1 = O.closure_mn b ~start in
      B.commit b;
      Hyper_memdb.Memdb.begin_txn bm;
      let c2 = OM.closure_mn bm ~start in
      Hyper_memdb.Memdb.commit bm;
      check (Alcotest.list Alcotest.int) "identical M-N closures" c2 c1;
      let s1 = O.closure_1n_att_sum b ~start in
      let s2 = OM.closure_1n_att_sum bm ~start in
      check Alcotest.int "identical attribute sums" s2 s1)

let test_persistence () =
  let path = temp_path "persist" in
  let config = B.default_config ~path in
  let b = B.open_db config in
  let layout, _ = generate b in
  B.close b;
  let b2 = B.open_db config in
  check Alcotest.bool "no recovery" true (B.last_recovery b2 = None);
  assert_verifies b2 layout;
  B.close b2;
  cleanup path

let test_abort () =
  with_db "abort" (fun b _ ->
      let layout, _ = generate b in
      let start = Layout.level_first_oid layout 3 in
      let sum0 = O.closure_1n_att_sum b ~start in
      B.begin_txn b;
      ignore (O.closure_1n_att_set b ~start : int);
      B.abort b;
      check Alcotest.int "rolled back" sum0 (O.closure_1n_att_sum b ~start);
      assert_verifies b layout)

let test_text_and_form_edits () =
  with_db "edits" (fun b _ ->
      let layout, _ = generate b in
      let rng = Hyper_util.Prng.create 2L in
      let text_oid = Layout.random_text layout rng in
      let original = B.text b text_oid in
      B.begin_txn b;
      O.text_node_edit b ~oid:text_oid;
      O.text_node_edit b ~oid:text_oid;
      B.commit b;
      check Alcotest.string "text restored" original (B.text b text_oid);
      let form_oid = Layout.random_form layout rng in
      B.begin_txn b;
      O.form_node_edit b ~oid:form_oid ~x:5 ~y:5 ~w:25 ~h:25;
      B.commit b;
      check Alcotest.int "form edit persisted" (25 * 25)
        (Hyper_util.Bitmap.count_set (B.form b form_oid));
      Alcotest.check_raises "text of internal node"
        (Invalid_argument "Reldb: node 1 is not a text node") (fun () ->
          ignore (B.text b 1)))

let test_protocol_smoke () =
  with_db "protocol" (fun b _ ->
      let layout, _ = generate b in
      let config = { Protocol.default_config with reps = 3 } in
      let ms = P.run_all ~config b layout in
      check Alcotest.int "20 ops" 20 (List.length ms))

let test_traversal_costs_more_page_accesses () =
  (* The relational story: every 1-N hop is an index probe plus row
     fetches (a join), so a closure performs more logical page accesses
     (buffer hits + misses) than the object backend's direct
     object-table dereference.  Physical misses depend on table sizes;
     logical accesses expose the per-hop join cost directly. *)
  let accesses_rel =
    with_db "relio" (fun b _ ->
        let layout, _ = generate b in
        B.clear_caches b;
        B.reset_io b;
        let rng = Hyper_util.Prng.create 5L in
        B.begin_txn b;
        for _ = 1 to 20 do
          ignore (O.closure_1n b ~start:(Layout.random_level layout rng 3))
        done;
        B.commit b;
        let c = B.io_counters b in
        c.B.pool_hits + c.B.pool_misses)
  in
  let module D = Hyper_diskdb.Diskdb in
  let module GenD = Generator.Make (D) in
  let module OD = Ops.Make (D) in
  let path = temp_path "diskio" in
  let d = D.open_db (D.default_config ~path) in
  let layout, _ = GenD.generate d ~doc:1 ~leaf_level:4 ~seed:42L in
  D.clear_caches d;
  D.reset_io d;
  let rng = Hyper_util.Prng.create 5L in
  D.begin_txn d;
  for _ = 1 to 20 do
    ignore (OD.closure_1n d ~start:(Layout.random_level layout rng 3))
  done;
  D.commit d;
  let c = D.io_counters d in
  let accesses_disk = c.D.pool_hits + c.D.pool_misses in
  D.close d;
  cleanup path;
  if accesses_rel <= accesses_disk then
    Alcotest.failf "expected relational joins to touch more pages: %d vs %d"
      accesses_rel accesses_disk

let () =
  Alcotest.run "hyper_reldb"
    [
      ( "reldb",
        [
          Alcotest.test_case "generate + verify" `Quick test_generate_and_verify;
          Alcotest.test_case "children ordered by pos" `Quick
            test_children_order_via_pos;
          Alcotest.test_case "ops match memdb" `Quick test_ops_match_memdb;
          Alcotest.test_case "persistence" `Quick test_persistence;
          Alcotest.test_case "abort" `Quick test_abort;
          Alcotest.test_case "text/form edits" `Quick test_text_and_form_edits;
          Alcotest.test_case "protocol smoke" `Quick test_protocol_smoke;
          Alcotest.test_case "traversals touch more pages than diskdb" `Quick
            test_traversal_costs_more_page_accesses;
        ] );
    ]
