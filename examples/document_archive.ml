(* Document archive: build a hypertext document by hand (the paper's §5.2
   semantic interpretation: folders / documents / chapters / sections),
   persist it in the disk backend, produce a table of contents with a
   closure traversal, edit a section with version history, and show crash
   safety via reopen.

   Run with: dune exec examples/document_archive.exe *)

open Hyper_core
module B = Hyper_diskdb.Diskdb
module O = Ops.Make (B)
module E = Extensions.Make (B)

let db_path = Filename.concat (Filename.get_temp_dir_name ()) "archive.db"

let sections =
  [ ("Introduction", "version1 hypertext systems store documents as node \
                      link structures version1 suitable for engineering \
                      design applications version1");
    ("The Model", "version1 nodes carry attributes and specialise into \
                   text and form nodes version1 links may connect any two \
                   nodes version1");
    ("Operations", "version1 lookups traversals closures and edits probe \
                    the database version1 cold and warm runs expose \
                    caching behaviour version1");
    ("Conclusions", "version1 a generic application model supports \
                     comparative evaluation version1 of database systems \
                     for design work version1") ]

let () =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files db_path);
  let db = B.open_db (B.default_config ~path:db_path) in

  (* Build: one document (oid 1) with one chapter (oid 2) holding four
     text sections (oids 3..6).  uniqueIds number the nodes. *)
  B.begin_txn db;
  let node oid payload =
    B.create_node db
      { Schema.oid; doc = 7; unique_id = oid; ten = (oid mod 10) + 1;
        hundred = (oid mod 100) + 1; million = oid * 1000; payload }
  in
  node 1 Schema.P_internal;
  node 2 Schema.P_internal;
  List.iteri (fun i (_, body) -> node (3 + i) (Schema.P_text body)) sections;
  B.add_child db ~parent:1 ~child:2;
  List.iteri (fun i _ -> B.add_child db ~parent:2 ~child:(3 + i)) sections;
  (* Cross references between sections, with offsets as link weights. *)
  B.add_ref db ~src:3 ~dst:5 ~offset_from:1 ~offset_to:4;
  B.add_ref db ~src:5 ~dst:6 ~offset_from:2 ~offset_to:3;
  B.commit db;

  (* Table of contents = pre-order 1-N closure (op 10). *)
  B.begin_txn db;
  let toc = O.closure_1n db ~start:1 in
  B.commit db;
  print_endline "table of contents (pre-order closure):";
  List.iter
    (fun oid ->
      let title =
        if oid = 1 then "The HyperModel Report"
        else if oid = 2 then "  Chapter 1"
        else "    " ^ fst (List.nth sections (oid - 3))
      in
      Printf.printf "%s (node %d)\n" title oid)
    toc;

  (* Versioned editing (R5): edit a section, keep history. *)
  let versions = E.create_versions () in
  B.begin_txn db;
  let ts = E.edit_with_version versions db 3 in
  B.commit db;
  Printf.printf "\nedited section 'Introduction' (snapshot t=%d)\n" ts;
  (match E.previous_version versions 3 with
  | Some old ->
    Printf.printf "previous version starts with: %s...\n"
      (String.sub old 0 (min 40 (String.length old)))
  | None -> print_endline "no previous version?!");
  Printf.printf "current version starts with:  %s...\n"
    (String.sub (B.text db 3) 0 40);

  (* Link distances (op 18): follow the reference graph. *)
  B.begin_txn db;
  let reachable = O.closure_mnatt_link_sum db ~start:3 ~depth:5 in
  B.commit db;
  print_endline "\nreference distances from 'Introduction':";
  List.iter
    (fun (oid, dist) -> Printf.printf "  node %d at distance %d\n" oid dist)
    reachable;

  (* Durability: close, reopen, and check everything is still there. *)
  B.close db;
  let db2 = B.open_db (B.default_config ~path:db_path) in
  Printf.printf "\nreopened: %d nodes, section text intact: %b\n"
    (B.node_count db2 ~doc:7)
    (String.length (B.text db2 4) > 0);
  B.close db2;
  List.iter Sys.remove (Hyper_storage.Engine.files db_path)
