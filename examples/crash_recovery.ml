(* Crash recovery walkthrough (R10): commit work, crash mid-transaction
   with dirty pages stolen to disk, recover from the write-ahead log, and
   reclaim the orphaned pages with the garbage collector.

   The "crash" is simulated by snapshotting the database and WAL files
   while a transaction is open — exactly what a power cut would leave on
   disk — and then opening the snapshot.

   Run with: dune exec examples/crash_recovery.exe *)

open Hyper_core
module B = Hyper_diskdb.Diskdb

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let clean path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

let copy src dst =
  let ic = open_in_bin src in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc contents;
  close_out oc

let () =
  let live = tmp "recovery_live.db" and crashed = tmp "recovery_crashed.db" in
  clean live;
  clean crashed;
  (* A tiny buffer pool guarantees dirty-page steals mid-transaction, so
     the crash leaves uncommitted data in the main file — the interesting
     recovery case. *)
  let db = B.open_db { (B.default_config ~path:live) with B.pool_pages = 8 } in

  (* Transaction 1: committed work. *)
  B.begin_txn db;
  for i = 1 to 200 do
    B.create_node db
      { Schema.oid = i; doc = 1; unique_id = i; ten = (i mod 10) + 1;
        hundred = (i mod 100) + 1; million = i * 7;
        payload = Schema.P_text ("version1 committed node " ^ string_of_int i) }
  done;
  B.commit db;
  Printf.printf "committed 200 nodes; io: %s\n" (B.io_description db);

  (* Transaction 2: in flight at the moment of the crash. *)
  B.begin_txn db;
  for i = 201 to 500 do
    B.create_node db
      { Schema.oid = i; doc = 1; unique_id = i; ten = 1; hundred = 1;
        million = 1; payload = Schema.P_text "version1 uncommitted version1" }
  done;
  Printf.printf "transaction 2 in flight (300 nodes, pages stolen to disk)\n";

  (* CRASH: whatever is on disk right now is all that survives. *)
  copy live crashed;
  copy (live ^ ".wal") (crashed ^ ".wal");
  B.abort db;
  B.close db;
  clean live;
  Printf.printf "\n-- crash --\n\n";

  (* Restart: recovery replays the log. *)
  let db2 = B.open_db (B.default_config ~path:crashed) in
  (match B.last_recovery db2 with
  | Some r ->
    Printf.printf
      "recovery ran: %d txn(s) redone %s, %d rolled back %s \
       (%d pages redone, %d undone)\n"
      (List.length r.Hyper_storage.Recovery.committed)
      (String.concat ","
         (List.map string_of_int r.Hyper_storage.Recovery.committed))
      (List.length r.Hyper_storage.Recovery.rolled_back)
      (String.concat ","
         (List.map string_of_int r.Hyper_storage.Recovery.rolled_back))
      r.Hyper_storage.Recovery.pages_redone
      r.Hyper_storage.Recovery.pages_undone
  | None -> print_endline "no recovery was needed?!");
  Printf.printf "nodes after recovery: %d (the committed 200)\n"
    (B.node_count db2 ~doc:1);
  assert (B.node_count db2 ~doc:1 = 200);
  assert (B.lookup_unique db2 ~doc:1 200 <> None);
  assert (B.lookup_unique db2 ~doc:1 201 = None);
  Printf.printf "node 200 text intact: %b\n"
    (String.length (B.text db2 200) > 0);

  (* The aborted transaction's file growth is garbage; collect it. *)
  let before = B.file_bytes db2 in
  let freed = B.collect_garbage db2 in
  Printf.printf
    "\ngarbage collection: %d orphaned pages reclaimed (file %d KB, free \
     for reuse)\n"
    freed (before / 1024);

  (* New work reuses the reclaimed pages instead of growing the file. *)
  B.begin_txn db2;
  for i = 1001 to 1100 do
    B.create_node db2
      { Schema.oid = i; doc = 1; unique_id = i; ten = 2; hundred = 2;
        million = 2; payload = Schema.P_internal }
  done;
  B.commit db2;
  Printf.printf "inserted 100 more nodes; file still %d KB (reuse works)\n"
    (B.file_bytes db2 / 1024);
  assert (B.file_bytes db2 = before);
  B.close db2;
  clean crashed
