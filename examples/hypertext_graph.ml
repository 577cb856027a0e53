(* Hypertext graph analysis: generate a full level-5 test database on the
   relational backend, explore the weighted reference graph (ops 06/08/15/18),
   compare indexed and scanned query plans, and show the per-backend I/O
   profile of the same traversal.

   Run with: dune exec examples/hypertext_graph.exe *)

open Hyper_core
module R = Hyper_reldb.Reldb
module OR = Ops.Make (R)
module D = Hyper_diskdb.Diskdb
module OD = Ops.Make (D)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let clean path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

let () =
  let rel_path = tmp "graph_rel.db" and disk_path = tmp "graph_disk.db" in
  clean rel_path;
  clean disk_path;
  let rel = R.open_db (R.default_config ~path:rel_path) in
  let module GenR = Generator.Make (R) in
  let layout, _ = GenR.generate rel ~doc:1 ~leaf_level:5 ~seed:1988L in
  Printf.printf "relational database: %d nodes\n" (R.node_count rel ~doc:1);

  (* Walk the reference graph from a level-3 node: each node references
     exactly one other, so this is a weighted path (possibly cyclic). *)
  let start = Layout.level_first_oid layout 3 in
  R.begin_txn rel;
  let path = OR.closure_mnatt_link_sum rel ~start ~depth:25 in
  R.commit rel;
  Printf.printf "\nreference walk from node %d (depth <= 25):\n" start;
  List.iteri
    (fun i (oid, dist) ->
      if i < 8 then Printf.printf "  hop %2d: node %6d, total weight %d\n" i oid dist)
    path;
  let final_oid, total = List.nth path (List.length path - 1) in
  Printf.printf "  ... reaches %d unique nodes; endpoint %d at weight %d\n"
    (List.length path) final_oid total;

  (* Fan-in: which nodes point at a popular target (op 08)? *)
  let refs = R.refs_from rel final_oid in
  Printf.printf "node %d is referenced by %d node(s)\n" final_oid
    (Array.length refs);

  (* Ad-hoc queries with different plans (R12). *)
  List.iter
    (fun q ->
      Printf.printf "\nquery: %s\nplan:  %s\n" q
        (Query_bridge.explain (module R) rel ~doc:1 q);
      match Query_bridge.query (module R) rel ~doc:1 q with
      | Hyper_query.Engine.Count n -> Printf.printf "count: %d\n" n
      | Hyper_query.Engine.Oids oids ->
        Printf.printf "nodes: %d\n" (List.length oids))
    [ "count where million between 1 and 10000";
      "count where ten = 5";
      "select where hundred = 50 and kind = text limit 3" ];

  (* Same traversal on the object backend: compare logical I/O. *)
  let disk = D.open_db (D.default_config ~path:disk_path) in
  let module GenD = Generator.Make (D) in
  let _ = GenD.generate disk ~doc:1 ~leaf_level:5 ~seed:1988L in
  let closure_io () =
    R.clear_caches rel;
    R.reset_io rel;
    R.begin_txn rel;
    ignore (OR.closure_1n rel ~start);
    R.commit rel;
    let cr = R.io_counters rel in
    D.clear_caches disk;
    D.reset_io disk;
    D.begin_txn disk;
    ignore (OD.closure_1n disk ~start);
    D.commit disk;
    let cd = D.io_counters disk in
    (cr.R.pool_hits + cr.R.pool_misses, cd.D.pool_hits + cd.D.pool_misses)
  in
  let rel_pages, disk_pages = closure_io () in
  Printf.printf
    "\nsame closure1N, logical page accesses: relational=%d object=%d\n\
     (every relational hop is an index probe + row fetch — a join)\n"
    rel_pages disk_pages;
  R.close rel;
  D.close disk;
  clean rel_path;
  clean disk_path
