(* Tests for the batched page I/O path and traversal prefetch:
   [Pager.read_many] over the vectored [Vfs.pread_multi] (including
   per-sub-read fault injection and torn tails), [Buffer_pool.prefetch]
   / [with_pages] pin safety and statistics, and end-to-end agreement of
   closure traversals with prefetch on and off against the in-memory
   reference backend. *)

open Hyper_storage
module F = Vfs.Faulty
module Mem = Hyper_memdb.Memdb
module Dsk = Hyper_diskdb.Diskdb
module Layout = Hyper_core.Layout
module GenM = Hyper_core.Generator.Make (Mem)
module GenD = Hyper_core.Generator.Make (Dsk)
module OpsM = Hyper_core.Ops.Make (Mem)
module OpsD = Hyper_core.Ops.Make (Dsk)

let check = Alcotest.check

let temp_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_batch_%d_%s_%d" (Unix.getpid ()) name !counter)

(* Distinct, position-dependent page contents so a swapped or partially
   filled buffer cannot pass the byte comparison. *)
let page_of i =
  Bytes.init Page.size (fun j -> Char.chr (((i * 131) + (j * 7)) land 0xff))

let fill_pager pager n =
  Array.init n (fun i ->
      let id = Pager.allocate pager in
      let p = page_of i in
      Pager.write pager id p;
      p)

(* --- Pager.read_many --- *)

let check_batch_matches_singles pager ids =
  let batch = Pager.read_many pager ids in
  check Alcotest.int "result arity" (List.length ids) (List.length batch);
  List.iter2
    (fun id b ->
      check Alcotest.bytes
        (Printf.sprintf "page %d identical to single read" id)
        (Pager.read pager id) b)
    ids batch

let test_read_many_file () =
  let path = temp_path "rm_file" in
  let pager = Pager.create path in
  Fun.protect
    ~finally:(fun () ->
      Pager.close pager;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (Engine.files path))
    (fun () ->
      let pages = fill_pager pager 7 in
      (* out of order, with a duplicate *)
      check_batch_matches_singles pager [ 5; 0; 3; 3; 6; 1 ];
      check Alcotest.bytes "contents are the written bytes" pages.(5)
        (List.hd (Pager.read_many pager [ 5 ]));
      check Alcotest.int "empty batch" 0 (List.length (Pager.read_many pager [])))

let test_read_many_in_memory () =
  let pager = Pager.in_memory () in
  let _ = fill_pager pager 5 in
  check_batch_matches_singles pager [ 4; 2; 0; 1; 3 ]

let test_read_many_faulty_eio () =
  let env = F.create F.quiet in
  let vfs = F.vfs env in
  let path = "/batch_eio" in
  let pager = Pager.create ~vfs path in
  let pages = fill_pager pager 5 in
  (* One EIO aimed at the third sub-read of the next batch: the faulty
     VFS consults its rules once per (buf, off) pair, so a skip window
     lands inside a vectored read exactly as it would across single
     reads. *)
  let rule =
    { F.suffix = ""; rops = [ `Read ]; fault = Storage_error.Eio;
      transient = false; skip = 2; remaining = 1 }
  in
  F.set_plan env { F.quiet with F.rules = [ rule ] };
  (match Pager.read_many pager [ 0; 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "batch read should have raised EIO"
  | exception
      Storage_error.Error (Storage_error.Io { fault = Storage_error.Eio; _ })
    -> ());
  (* The rule was one-shot; the same batch now succeeds, intact. *)
  let batch = Pager.read_many pager [ 0; 1; 2; 3; 4 ] in
  List.iteri
    (fun i b ->
      check Alcotest.bytes (Printf.sprintf "page %d after fault" i) pages.(i) b)
    batch;
  Pager.close pager

let test_read_many_torn_tail () =
  let env = F.create F.quiet in
  let vfs = F.vfs env in
  let path = "/batch_tear" in
  let pager = Pager.create ~vfs path in
  let pages = fill_pager pager 4 in
  Pager.close pager;
  (* A crash mid-append leaves a partial page at the tail; open must
     truncate it away and batch reads of the surviving prefix must be
     byte-identical to single reads. *)
  let f = vfs.Vfs.open_rw path in
  f.Vfs.truncate ((3 * Page.size) + 100);
  f.Vfs.close ();
  let pager = Pager.create ~vfs path in
  check Alcotest.int "partial tail page truncated away" 3
    (Pager.page_count pager);
  let batch = Pager.read_many pager [ 0; 1; 2 ] in
  List.iteri
    (fun i b ->
      check Alcotest.bytes
        (Printf.sprintf "page %d survives the torn tail" i)
        pages.(i) b)
    batch;
  Pager.close pager

let test_read_many_checksum () =
  let env = F.create F.quiet in
  let vfs = F.vfs env in
  let path = "/batch_crc" in
  let pager = Pager.create ~vfs path in
  let _ = fill_pager pager 3 in
  Pager.close pager;
  (* Corrupt the middle page behind the pager's back; the batch read
     must verify every page of the group and name the bad one. *)
  let f = vfs.Vfs.open_rw path in
  f.Vfs.pwrite ~buf:(Bytes.make 64 '\xde') ~off:(Page.size + 128);
  f.Vfs.close ();
  let pager = Pager.create ~vfs path in
  (match Pager.read_many pager [ 0; 1; 2 ] with
  | _ -> Alcotest.fail "batch read should have failed the checksum"
  | exception
      Storage_error.Error (Storage_error.Corrupt_page { page; _ }) ->
    check Alcotest.int "corrupt page identified" 1 page);
  Pager.close pager

(* --- Buffer_pool.prefetch / with_pages --- *)

let with_pool n k =
  let pager = Pager.in_memory () in
  let pool = Buffer_pool.create pager ~capacity:4 in
  let ids = Array.init n (fun _ -> Buffer_pool.allocate pool) in
  Array.iteri
    (fun i id ->
      Buffer_pool.with_page_w pool id (fun buf ->
          Bytes.blit (page_of i) 0 buf 0 Page.size))
    ids;
  Buffer_pool.flush_all pool;
  Buffer_pool.drop_all pool;
  Buffer_pool.reset_stats pool;
  k pool

let test_prefetch_counts () =
  with_pool 6 (fun pool ->
      Buffer_pool.prefetch pool [ 0; 1; 2; 2 ];
      let s = Buffer_pool.stats pool in
      check Alcotest.int "prefetched pages (deduplicated)" 3
        s.Buffer_pool.prefetches;
      check Alcotest.int "prefetch is not a miss" 0 s.Buffer_pool.misses;
      List.iter
        (fun id ->
          check Alcotest.bytes
            (Printf.sprintf "page %d content" id)
            (page_of id)
            (Buffer_pool.with_page pool id Bytes.copy))
        [ 0; 1; 2 ];
      let s = Buffer_pool.stats pool in
      check Alcotest.int "demand access after prefetch hits" 3
        s.Buffer_pool.hits;
      check Alcotest.int "no misses after prefetch" 0 s.Buffer_pool.misses)

let test_prefetch_never_evicts_pinned () =
  with_pool 10 (fun pool ->
      Buffer_pool.with_page pool 0 (fun b0 ->
          Buffer_pool.with_page pool 1 (fun b1 ->
              Buffer_pool.with_page pool 2 (fun b2 ->
                  let before = (Bytes.copy b0, Bytes.copy b1, Bytes.copy b2) in
                  (* 3 of 4 frames pinned: the batch must be capped at the
                     single unpinned slot, never evicting a pinned frame. *)
                  Buffer_pool.prefetch pool [ 3; 4; 5; 6; 7; 8; 9 ];
                  let s = Buffer_pool.stats pool in
                  check Alcotest.int "batch capped at unpinned slots" 1
                    s.Buffer_pool.prefetches;
                  let a, b, c = before in
                  check Alcotest.bytes "pinned frame 0 untouched" a b0;
                  check Alcotest.bytes "pinned frame 1 untouched" b b1;
                  check Alcotest.bytes "pinned frame 2 untouched" c b2)));
      (* The previously pinned pages are still resident. *)
      let hits_before = (Buffer_pool.stats pool).Buffer_pool.hits in
      List.iter
        (fun id -> ignore (Buffer_pool.with_page pool id Bytes.length : int))
        [ 0; 1; 2 ];
      check Alcotest.bool "pinned frames stayed resident" true
        ((Buffer_pool.stats pool).Buffer_pool.hits >= hits_before + 3))

let test_with_pages () =
  with_pool 6 (fun pool ->
      Buffer_pool.with_pages pool [ 4; 1; 3 ] (fun bufs ->
          check Alcotest.int "buffer arity" 3 (List.length bufs);
          List.iter2
            (fun id buf ->
              check Alcotest.bytes
                (Printf.sprintf "page %d in requested order" id)
                (page_of id) (Bytes.copy buf))
            [ 4; 1; 3 ] bufs);
      let s = Buffer_pool.stats pool in
      check Alcotest.int "missing frames fetched as one batch" 3
        s.Buffer_pool.prefetches;
      (* all frames unpinned again: a full drop must succeed *)
      Buffer_pool.drop_all pool)

(* --- closure traversals: prefetch on/off vs the in-memory reference --- *)

let test_closure_prefetch_agreement () =
  let seed = 97L in
  let leaf_level = 3 in
  let bm = Mem.create () in
  let layout, _ = GenM.generate ~cluster:false bm ~doc:1 ~leaf_level ~seed in
  let open_disk prefetch =
    let path = temp_path (Printf.sprintf "closure_%b" prefetch) in
    let b = Dsk.open_db { (Dsk.default_config ~path) with Dsk.prefetch } in
    ignore (GenD.generate ~cluster:false b ~doc:1 ~leaf_level ~seed);
    (b, path)
  in
  let b_off, p_off = open_disk false in
  let b_on, p_on = open_disk true in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (b, path) ->
          Dsk.close b;
          List.iter
            (fun p -> if Sys.file_exists p then Sys.remove p)
            (Engine.files path))
        [ (b_off, p_off); (b_on, p_on) ])
    (fun () ->
      (* cold pools, so the prefetch path has something to fetch *)
      Dsk.clear_caches b_off;
      Dsk.clear_caches b_on;
      Dsk.reset_io b_off;
      Dsk.reset_io b_on;
      let starts =
        Layout.root layout
        :: List.init
             (Layout.level_node_count layout 1)
             (fun i -> Layout.level_first_oid layout 1 + i)
      in
      List.iter
        (fun start ->
          Mem.begin_txn bm;
          let reference = OpsM.closure_1n bm ~start in
          Mem.commit bm;
          Dsk.begin_txn b_off;
          let off = OpsD.closure_1n b_off ~start in
          Dsk.commit b_off;
          Dsk.begin_txn b_on;
          let on = OpsD.closure_1n b_on ~start in
          Dsk.commit b_on;
          check
            (Alcotest.list Alcotest.int)
            (Printf.sprintf "closure from %d, prefetch off vs memdb" start)
            reference off;
          check
            (Alcotest.list Alcotest.int)
            (Printf.sprintf "closure from %d, prefetch on vs memdb" start)
            reference on)
        starts;
      (* and the prefetch path actually engaged *)
      let io = Dsk.io_counters b_on in
      check Alcotest.bool "prefetch batches were issued" true
        (io.Dsk.pool_prefetches > 0))

let () =
  Alcotest.run "hyper_batch_io"
    [
      ( "read_many",
        [
          Alcotest.test_case "file batch = single reads" `Quick
            test_read_many_file;
          Alcotest.test_case "in-memory batch = single reads" `Quick
            test_read_many_in_memory;
          Alcotest.test_case "per-sub-read EIO" `Quick test_read_many_faulty_eio;
          Alcotest.test_case "torn tail" `Quick test_read_many_torn_tail;
          Alcotest.test_case "checksum verified per page" `Quick
            test_read_many_checksum;
        ] );
      ( "prefetch",
        [
          Alcotest.test_case "counts as prefetch, then hits" `Quick
            test_prefetch_counts;
          Alcotest.test_case "never evicts a pinned frame" `Quick
            test_prefetch_never_evicts_pinned;
          Alcotest.test_case "with_pages batches and pins" `Quick
            test_with_pages;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "closure1N identical, prefetch on/off vs memdb"
            `Quick test_closure_prefetch_agreement;
        ] );
    ]
