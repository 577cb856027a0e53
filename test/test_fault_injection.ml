(* Fault-injection suite for the storage stack (robustness R10).

   Everything here drives the engine through [Vfs.Faulty] — a
   deterministic, PRNG-seeded in-memory VFS that can crash mid-write,
   tear the in-flight write, lie about fsync, lose unsynced writes on
   power failure, and inject typed I/O errors — plus a few tests of the
   real-file seams (page checksums, torn WAL tails).

   The scenario count of the big crash sweep is controlled by the
   HYPER_FUZZ_SCENARIOS environment variable (default 200), so a nightly
   CI job can turn it up without recompiling. *)

open Hyper_core
module B = Hyper_diskdb.Diskdb
module V = Hyper_storage.Vfs
module F = Hyper_storage.Vfs.Faulty
module E = Hyper_storage.Storage_error
module Wal = Hyper_storage.Wal
module Pager = Hyper_storage.Pager
module Page = Hyper_storage.Page
module Recovery = Hyper_storage.Recovery

let check = Alcotest.check

let scenarios =
  match Sys.getenv_opt "HYPER_FUZZ_SCENARIOS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 200)
  | None -> 200

let temp_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_fault_%d_%s_%d" (Unix.getpid ()) name !counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

(* --- workload helpers (small batches: the sweep runs hundreds of times) --- *)

let batch_size = 40

let insert_batch b ~batch =
  B.begin_txn b;
  for i = 0 to batch_size - 1 do
    let oid = (batch * batch_size) + i + 1 in
    B.create_node b
      { Schema.oid; doc = 1; unique_id = oid; ten = (batch mod 10) + 1;
        hundred = (oid mod 100) + 1; million = oid;
        payload =
          (if i mod 8 = 0 then Schema.P_text (String.make 300 'x')
           else Schema.P_internal) }
  done;
  B.commit b

let assert_committed_prefix b ~max_batches =
  let count = B.node_count b ~doc:1 in
  if count mod batch_size <> 0 then
    Alcotest.failf "partial batch visible: %d nodes" count;
  let batches = count / batch_size in
  if batches > max_batches then
    Alcotest.failf "phantom batches: %d > %d" batches max_batches;
  for oid = 1 to count do
    (match B.lookup_unique b ~doc:1 oid with
    | Some o when o = oid -> ()
    | Some o -> Alcotest.failf "uid %d resolves to %d" oid o
    | None -> Alcotest.failf "uid %d lost from index" oid);
    let h = B.hundred b oid in
    if h <> (oid mod 100) + 1 then
      Alcotest.failf "oid %d: hundred corrupted (%d)" oid h
  done;
  for oid = count + 1 to max_batches * batch_size do
    match B.lookup_unique b ~doc:1 oid with
    | None -> ()
    | Some _ -> Alcotest.failf "uid %d should not exist" oid
  done;
  let indexed = List.length (B.range_hundred b ~doc:1 ~lo:1 ~hi:100) in
  check Alcotest.int "index covers exactly the prefix" count indexed;
  batches

let faulty_config env ~path ~pool_pages ?checkpoint_wal_bytes () =
  let base =
    { (B.default_config ~path) with
      B.pool_pages; durable_sync = true; vfs = Some (F.vfs env) }
  in
  match checkpoint_wal_bytes with
  | None -> base
  | Some n -> { base with B.checkpoint_wal_bytes = n }

let total_batches = 4

(* Small checkpoint threshold on half the scenarios: commits then trip
   checkpoints mid-workload, so crash points land inside the
   flush-all / sync / wal-truncate window too. *)
let run_workload env ~path ~tiny_checkpoints =
  let acked = ref 0 in
  let checkpoint_wal_bytes = if tiny_checkpoints then Some 16_384 else None in
  (try
     let b =
       B.open_db (faulty_config env ~path ~pool_pages:8 ?checkpoint_wal_bytes ())
     in
     for batch = 0 to total_batches - 1 do
       insert_batch b ~batch;
       incr acked
     done;
     B.close b
   with V.Crash -> ());
  !acked

(* --- the big sweep: seeded crash scenarios --- *)

let run_scenario i ~w ~s =
  (* Mix the scenario index into every fault dimension. *)
  let crash_on_sync = i mod 16 = 7 && s > 0 in
  let k_writes =
    if crash_on_sync then 0 else 1 + (i * 7919) mod w (* stratified & coprime *)
  in
  let k_syncs = if crash_on_sync then 1 + (i mod s) else 0 in
  let power_loss = i mod 2 = 0 in
  let lying_fsync = i mod 4 >= 2 in
  let tiny_checkpoints = i mod 8 >= 4 in
  let path = temp_path "sweep" in
  let env =
    F.create
      { F.seed = Int64.of_int (0xBEEF + i); crash_after_writes = k_writes;
        crash_after_syncs = k_syncs; torn_writes = true; power_loss;
        lying_fsync; rules = [] }
  in
  let acked = run_workload env ~path ~tiny_checkpoints in
  F.power_fail env;
  F.set_plan env F.quiet;
  let b = B.open_db (faulty_config env ~path ~pool_pages:64 ()) in
  let recovered = assert_committed_prefix b ~max_batches:total_batches in
  if not (power_loss && lying_fsync) && recovered < acked then
    Alcotest.failf
      "scenario %d (kw=%d ks=%d power=%b lying=%b ckpt=%b): acked %d > recovered %d"
      i k_writes k_syncs power_loss lying_fsync tiny_checkpoints acked recovered;
  insert_batch b ~batch:recovered;
  check Alcotest.int "writable after recovery"
    ((recovered + 1) * batch_size)
    (B.node_count b ~doc:1);
  B.close b

let test_crash_sweep () =
  (* Dry run: learn the workload's write and sync counts. *)
  let env = F.create F.quiet in
  let acked = run_workload env ~path:(temp_path "dry") ~tiny_checkpoints:false in
  check Alcotest.int "dry run commits everything" total_batches acked;
  let w = F.write_count env and s = F.sync_count env in
  if w < 20 then Alcotest.failf "workload too quiet: %d writes" w;
  for i = 0 to scenarios - 1 do
    run_scenario i ~w ~s
  done

(* --- transient faults are retried --- *)

let test_transient_eio_retried () =
  let path = temp_path "eio" in
  let env = F.create F.quiet in
  let b = B.open_db (faulty_config env ~path ~pool_pages:8 ()) in
  insert_batch b ~batch:0;
  (* Two consecutive transient EIOs on the next data-file read; the
     engine's retry layer must absorb both. *)
  let rule =
    { F.suffix = ""; rops = [ `Read ]; fault = E.Eio; transient = true;
      skip = 0; remaining = 2 }
  in
  B.clear_caches b; (* force the next lookup to fault pages in *)
  F.set_plan env { F.quiet with F.rules = [ rule ] };
  (match B.lookup_unique b ~doc:1 1 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "lookup failed under transient EIO");
  check Alcotest.int "both injected faults were consumed" 0 rule.F.remaining;
  B.close b

(* --- ENOSPC degrades to read-only, committed data stays readable --- *)

let test_enospc_read_only () =
  let path = temp_path "enospc" in
  let env = F.create F.quiet in
  let b = B.open_db (faulty_config env ~path ~pool_pages:8 ()) in
  insert_batch b ~batch:0;
  (* Every WAL append from now on hits a full disk. *)
  F.set_plan env
    { F.quiet with
      F.rules =
        [ { F.suffix = ".wal"; rops = [ `Write ]; fault = E.Enospc;
            transient = false; skip = 0; remaining = -1 } ] };
  let raised = ref false in
  (try insert_batch b ~batch:1
   with E.Error (E.Io { fault = E.Enospc; _ }) ->
     raised := true;
     (* The fault can fire at a dirty-page steal mid-insert, which leaves
        the transaction open; abort needs no WAL and must still work.
        When it fired at commit the engine already rolled back. *)
     (try B.abort b with Invalid_argument _ -> ()));
  check Alcotest.bool "mutating on a full WAL raises ENOSPC" true !raised;
  check Alcotest.bool "store degraded to read-only" true (B.read_only b);
  (* The failed transaction rolled back; committed data is intact. *)
  check Alcotest.int "committed batch survives" batch_size
    (B.node_count b ~doc:1);
  (match B.lookup_unique b ~doc:1 1 with
  | Some 1 -> ()
  | _ -> Alcotest.fail "read path broken after degradation");
  (* New write transactions are refused up front. *)
  (try
     B.begin_txn b;
     Alcotest.fail "begin_txn should raise in read-only mode"
   with E.Error E.Read_only -> ());
  (* Close must not raise even though the WAL is unusable. *)
  B.close b;
  (* After "freeing space" the store reopens fully writable. *)
  F.set_plan env F.quiet;
  let b2 = B.open_db (faulty_config env ~path ~pool_pages:8 ()) in
  check Alcotest.int "data intact after reopen" batch_size
    (B.node_count b2 ~doc:1);
  insert_batch b2 ~batch:1;
  check Alcotest.int "writable after reopen" (2 * batch_size)
    (B.node_count b2 ~doc:1);
  B.close b2

(* --- page checksums catch corruption on real files --- *)

let test_checksum_detects_corruption () =
  let path = temp_path "crc" in
  cleanup path;
  let pager = Pager.create path in
  let id = Pager.allocate pager in
  let page = Page.alloc () in
  Bytes.fill page 0 Page.size 'A';
  Pager.write pager id page;
  Pager.sync pager;
  Pager.close pager;
  (* Bit rot: flip one byte in the middle of the page. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (Page.size / 2) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "Z" 0 1);
  Unix.close fd;
  let pager2 = Pager.create path in
  (try
     ignore (Pager.read pager2 id);
     Alcotest.fail "corrupted page read should raise"
   with E.Error (E.Corrupt_page { page = p; expected; actual; _ }) ->
     check Alcotest.int "corrupt page id" id p;
     if expected = actual then Alcotest.fail "expected <> actual");
  Pager.close pager2;
  (* A missing sidecar (pre-checksum file) is accepted unverified. *)
  Sys.remove (Pager.sum_path path);
  let pager3 = Pager.create path in
  let back = Pager.read pager3 id in
  check Alcotest.char "unverified read returns raw bytes" 'Z'
    (Bytes.get back (Page.size / 2));
  Pager.close pager3;
  cleanup path

(* --- torn WAL tails exactly on entry boundaries --- *)

let wal_entry_bytes e =
  (* header + payload + crc, mirroring the on-disk framing *)
  14 + Bytes.length (match e with
    | Wal.Before (_, _, img) | Wal.After (_, _, img) -> img
    | Wal.Begin _ | Wal.Commit _ | Wal.Checkpoint -> Bytes.empty) + 4

let test_torn_tail_on_entry_boundary () =
  let path = temp_path "tornwal" in
  cleanup path;
  let img = Bytes.make Page.size 'w' in
  let entries =
    [ Wal.Begin 1; Wal.After (1, 0, img); Wal.Commit 1; Wal.Begin 2;
      Wal.After (2, 1, img) ]
  in
  let wal = Wal.open_ path in
  List.iter (Wal.append wal) entries;
  Wal.flush wal;
  Wal.close wal;
  let full = (Unix.stat path).Unix.st_size in
  check Alcotest.int "framing matches on-disk size"
    (List.fold_left (fun a e -> a + wal_entry_bytes e) 0 entries)
    full;
  let truncate_to len =
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    Unix.ftruncate fd len;
    Unix.close fd
  in
  let prefix3 =
    wal_entry_bytes (Wal.Begin 1)
    + wal_entry_bytes (Wal.After (1, 0, img))
    + wal_entry_bytes (Wal.Commit 1)
  in
  (* Tear exactly on the boundary before the final entry... *)
  truncate_to (prefix3 + wal_entry_bytes (Wal.Begin 2));
  check Alcotest.int "tear before final entry keeps 4 entries" 4
    (List.length (Wal.read_all path));
  (* ... exactly on the boundary between entries 3 and 4... *)
  truncate_to prefix3;
  check Alcotest.int "tear on entry boundary keeps 3 entries" 3
    (List.length (Wal.read_all path));
  (* ... mid-header (7 of 14 bytes)... *)
  truncate_to (prefix3 + 7);
  check Alcotest.int "tear mid-header keeps 3 entries" 3
    (List.length (Wal.read_all path));
  (* ... and just after a complete header, before its crc. *)
  truncate_to (prefix3 + 14);
  check Alcotest.int "tear after header keeps 3 entries" 3
    (List.length (Wal.read_all path));
  cleanup path

(* --- a Before image past the data file's end must not crash recovery --- *)

let test_undo_beyond_page_count () =
  let path = temp_path "beyond" in
  cleanup path;
  let wal_path = path ^ ".wal" in
  let img = Bytes.make Page.size 'u' in
  let wal = Wal.open_ wal_path in
  Wal.append wal (Wal.Begin 7);
  Wal.append wal (Wal.Before (7, 5, img)); (* page 5 of an empty file *)
  Wal.flush wal;
  Wal.close wal;
  check Alcotest.bool "log demands recovery" true
    (Recovery.needs_recovery wal_path);
  let pager = Pager.create path in
  check Alcotest.int "data file starts empty" 0 (Pager.page_count pager);
  let report = Recovery.recover ~wal_path pager in
  check Alcotest.int "file extended to cover the image" 6
    (Pager.page_count pager);
  check (Alcotest.list Alcotest.int) "txn rolled back" [ 7 ]
    report.Recovery.rolled_back;
  check Alcotest.int "one page undone" 1 report.Recovery.pages_undone;
  check Alcotest.char "undo image applied" 'u'
    (Bytes.get (Pager.read pager 5) 0);
  Pager.close pager;
  cleanup path;
  cleanup wal_path

(* --- the I/O seam: no direct Unix calls outside the VFS layer --- *)

let test_no_direct_io_in_storage () =
  (* dune copies library sources into the build tree, so they are
     reachable from the test's cwd.  The VFS implementations and the
     pread/pwrite shim are the seam itself and are exempt. *)
  let dir = "../lib/storage" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Printf.printf "storage sources not present; seam check skipped\n"
  else begin
    let exempt = [ "vfs.ml"; "extUnix.ml" ] in
    let forbidden =
      [ "Unix.read"; "Unix.write"; "Unix.fsync"; "Unix.openfile";
        "Unix.lseek"; "Unix.ftruncate"; "Unix.fstat"; "open_out";
        "open_in" ]
    in
    let contains line sub =
      let ll = String.length line and ls = String.length sub in
      let rec at i = i + ls <= ll && (String.sub line i ls = sub || at (i + 1)) in
      at 0
    in
    Array.iter
      (fun name ->
        if Filename.check_suffix name ".ml" && not (List.mem name exempt)
        then begin
          let ic = open_in (Filename.concat dir name) in
          let lineno = ref 0 in
          (try
             while true do
               let line = input_line ic in
               incr lineno;
               List.iter
                 (fun bad ->
                   if contains line bad then
                     Alcotest.failf "%s:%d bypasses the VFS seam: %s" name
                       !lineno bad)
                 forbidden
             done
           with End_of_file -> ());
          close_in ic
        end)
      (Sys.readdir dir)
  end

let () =
  Alcotest.run "hyper_fault_injection"
    [
      ( "faults",
        [
          Alcotest.test_case "seeded crash sweep" `Quick test_crash_sweep;
          Alcotest.test_case "transient EIO retried" `Quick
            test_transient_eio_retried;
          Alcotest.test_case "ENOSPC degrades to read-only" `Quick
            test_enospc_read_only;
          Alcotest.test_case "checksum detects corruption" `Quick
            test_checksum_detects_corruption;
          Alcotest.test_case "torn WAL tail on entry boundary" `Quick
            test_torn_tail_on_entry_boundary;
          Alcotest.test_case "undo image beyond page count" `Quick
            test_undo_beyond_page_count;
          Alcotest.test_case "no direct I/O outside the VFS" `Quick
            test_no_direct_io_in_storage;
        ] );
    ]
