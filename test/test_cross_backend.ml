(* Cross-backend equivalence.

   The protocol draws operation inputs deterministically from (seed, op
   id), and all backends hold the bit-identical generated database, so
   every operation must return exactly the same number of nodes on
   memdb, diskdb and reldb — for all 20 operations.  This pins the whole
   stack (generator, indexes, traversals, scans) to one semantics.

   Also checks representative *values* (not just counts) across
   backends: closure node lists, range-result sets, attribute sums. *)

open Hyper_core
module M = Hyper_memdb.Memdb
module D = Hyper_diskdb.Diskdb
module R = Hyper_reldb.Reldb

module GenM = Generator.Make (M)
module GenD = Generator.Make (D)
module GenR = Generator.Make (R)
module PM = Protocol.Make (M)
module PD = Protocol.Make (D)
module PR = Protocol.Make (R)
module OM = Ops.Make (M)
module OD = Ops.Make (D)
module OR = Ops.Make (R)

let check = Alcotest.check

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hyper_cross_%d_%s" (Unix.getpid ()) name)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

(* One shared fixture for the whole suite. *)
let fixture =
  lazy
    (let seed = 2024L in
     let bm = M.create () in
     let layout, _ = GenM.generate bm ~doc:1 ~leaf_level:4 ~seed in
     let disk_path = temp_path "disk.db" in
     cleanup disk_path;
     let bd = D.open_db (D.default_config ~path:disk_path) in
     let _ = GenD.generate bd ~doc:1 ~leaf_level:4 ~seed in
     let rel_path = temp_path "rel.db" in
     cleanup rel_path;
     let br = R.open_db (R.default_config ~path:rel_path) in
     let _ = GenR.generate br ~doc:1 ~leaf_level:4 ~seed in
     (bm, bd, br, layout))

let test_op_counts_identical () =
  let bm, bd, br, layout = Lazy.force fixture in
  let config = { Protocol.default_config with reps = 8 } in
  List.iter
    (fun id ->
      let mm = PM.run_op ~config bm layout id in
      let md = PD.run_op ~config bd layout id in
      let mr = PR.run_op ~config br layout id in
      check Alcotest.int
        (Printf.sprintf "%s: memdb vs diskdb node count" mm.Protocol.op)
        mm.Protocol.nodes_cold md.Protocol.nodes_cold;
      check Alcotest.int
        (Printf.sprintf "%s: memdb vs reldb node count" mm.Protocol.op)
        mm.Protocol.nodes_cold mr.Protocol.nodes_cold;
      check Alcotest.int
        (Printf.sprintf "%s: warm equals cold count" mm.Protocol.op)
        mm.Protocol.nodes_cold mm.Protocol.nodes_warm)
    Protocol.op_ids

let test_closures_identical () =
  let bm, bd, br, layout = Lazy.force fixture in
  let rng = Hyper_util.Prng.create 77L in
  for _ = 1 to 10 do
    let start = Layout.random_level layout rng 3 in
    M.begin_txn bm;
    let cm = OM.closure_1n bm ~start in
    M.commit bm;
    D.begin_txn bd;
    let cd = OD.closure_1n bd ~start in
    D.commit bd;
    R.begin_txn br;
    let cr = OR.closure_1n br ~start in
    R.commit br;
    check (Alcotest.list Alcotest.int) "1-N closure identical (disk)" cm cd;
    check (Alcotest.list Alcotest.int) "1-N closure identical (rel)" cm cr;
    M.begin_txn bm;
    let gm = OM.closure_mnatt_link_sum bm ~start ~depth:25 in
    M.commit bm;
    D.begin_txn bd;
    let gd = OD.closure_mnatt_link_sum bd ~start ~depth:25 in
    D.commit bd;
    R.begin_txn br;
    let gr = OR.closure_mnatt_link_sum br ~start ~depth:25 in
    R.commit br;
    check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
      "link sums identical (disk)" gm gd;
    check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
      "link sums identical (rel)" gm gr
  done

let test_ranges_and_sums_identical () =
  let bm, bd, br, layout = Lazy.force fixture in
  let sorted l = List.sort compare l in
  for x = 1 to 10 do
    let x = x * 9 in
    let rm = sorted (OM.range_lookup_hundred bm ~doc:1 ~x) in
    let rd = sorted (OD.range_lookup_hundred bd ~doc:1 ~x) in
    let rr = sorted (OR.range_lookup_hundred br ~doc:1 ~x) in
    check (Alcotest.list Alcotest.int) "hundred range identical (disk)" rm rd;
    check (Alcotest.list Alcotest.int) "hundred range identical (rel)" rm rr
  done;
  let rng = Hyper_util.Prng.create 99L in
  for _ = 1 to 10 do
    let start = Layout.random_level layout rng 3 in
    let sm = OM.closure_1n_att_sum bm ~start in
    check Alcotest.int "att sum identical (disk)" sm (OD.closure_1n_att_sum bd ~start);
    check Alcotest.int "att sum identical (rel)" sm (OR.closure_1n_att_sum br ~start)
  done

let test_queries_identical () =
  let bm, bd, br, _ = Lazy.force fixture in
  List.iter
    (fun q ->
      let qm = Query_bridge.query (module M) bm ~doc:1 q in
      let qd = Query_bridge.query (module D) bd ~doc:1 q in
      let qr = Query_bridge.query (module R) br ~doc:1 q in
      if qm <> qd then Alcotest.failf "query %S differs on diskdb" q;
      if qm <> qr then Alcotest.failf "query %S differs on reldb" q)
    [ "count where true";
      "select where hundred between 10 and 19 and kind = text";
      "count where million >= 500000 or ten = 3";
      "select where uniqueid between 100 and 120";
      "count where not kind = internal" ];
  (* LIMIT without an ORDER BY is nondeterministic across access paths
     (as in SQL): only the cardinality is comparable. *)
  let limited = "select where hundred between 10 and 19 limit 7" in
  List.iter
    (fun result ->
      match result with
      | Hyper_query.Engine.Oids oids ->
        check Alcotest.int "limit respected" 7 (List.length oids)
      | Hyper_query.Engine.Count _ -> Alcotest.fail "expected oids")
    [ Query_bridge.query (module M) bm ~doc:1 limited;
      Query_bridge.query (module D) bd ~doc:1 limited;
      Query_bridge.query (module R) br ~doc:1 limited ]

let test_first_class_instances () =
  (* Heterogeneous backends in one list via Backend.instance. *)
  let bm, bd, br, _ = Lazy.force fixture in
  let instances =
    [ Backend.Instance ((module M), bm); Backend.Instance ((module D), bd);
      Backend.Instance ((module R), br) ]
  in
  check
    (Alcotest.list Alcotest.string)
    "names" [ "memdb"; "diskdb"; "reldb" ]
    (List.map Backend.instance_name instances);
  List.iter
    (fun inst ->
      (match inst with
      | Backend.Instance ((module B), b) ->
        check Alcotest.int
          (Printf.sprintf "%s node count" B.name)
          781 (B.node_count b ~doc:1));
      if String.length (Backend.instance_description inst) = 0 then
        Alcotest.fail "empty description")
    instances

let cleanup_fixture () =
  let _, bd, br, _ = Lazy.force fixture in
  (try D.close bd with _ -> ());
  (try R.close br with _ -> ());
  cleanup (temp_path "disk.db");
  cleanup (temp_path "rel.db")

let () =
  Fun.protect ~finally:cleanup_fixture (fun () ->
      Alcotest.run "hyper_cross_backend"
        [
          ( "equivalence",
            [
              Alcotest.test_case "all 20 op counts identical" `Quick
                test_op_counts_identical;
              Alcotest.test_case "closures identical" `Quick
                test_closures_identical;
              Alcotest.test_case "ranges and sums identical" `Quick
                test_ranges_and_sums_identical;
              Alcotest.test_case "queries identical" `Quick
                test_queries_identical;
              Alcotest.test_case "first-class backend instances" `Quick
                test_first_class_instances;
            ] );
        ])
