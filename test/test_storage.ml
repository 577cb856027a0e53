(* Tests for the storage engine: pager, buffer pool, slotted pages, heap
   files with overflow, free list, meta page, WAL and crash recovery
   (including fault injection via torn logs). *)

open Hyper_storage

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let temp_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_test_%d_%s_%d" (Unix.getpid ()) name !counter)

let with_file_pager name k =
  let path = temp_path name in
  let pager = Pager.create path in
  Fun.protect
    ~finally:(fun () ->
      Pager.close pager;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (Engine.files path))
    (fun () -> k pager path)

(* --- Pager --- *)

let test_pager_roundtrip () =
  with_file_pager "pager" (fun pager _path ->
      let id = Pager.allocate pager in
      check Alcotest.int "first page id" 0 id;
      let page = Page.alloc () in
      Bytes.fill page 0 16 'x';
      Pager.write pager id page;
      let back = Pager.read pager id in
      check Alcotest.bytes "round trip" page back)

let test_pager_persistence () =
  let path = temp_path "persist" in
  let pager = Pager.create path in
  let id = Pager.allocate pager in
  let page = Page.alloc () in
  Bytes.blit_string "persist me" 0 page 100 10;
  Pager.write pager id page;
  Pager.close pager;
  let pager2 = Pager.create path in
  check Alcotest.int "page count survives" 1 (Pager.page_count pager2);
  let back = Pager.read pager2 id in
  check Alcotest.string "data survives" "persist me"
    (Bytes.to_string (Page.get_sub back ~pos:100 ~len:10));
  Pager.close pager2;
  Sys.remove path;
  Sys.remove (Pager.sum_path path)

let test_pager_bounds () =
  with_file_pager "bounds" (fun pager _ ->
      Alcotest.check_raises "unallocated read"
        (Invalid_argument "Pager: page 0 out of range (count 0)") (fun () ->
          ignore (Pager.read pager 0)))

let test_pager_hooks_and_stats () =
  with_file_pager "hooks" (fun pager _ ->
      let reads = ref 0 and writes = ref 0 in
      Pager.set_hooks pager
        ~on_read:(fun _ -> incr reads)
        ~on_write:(fun _ -> incr writes);
      let id = Pager.allocate pager in
      Pager.write pager id (Page.alloc ());
      ignore (Pager.read pager id);
      ignore (Pager.read pager id);
      check Alcotest.int "reads hook" 2 !reads;
      check Alcotest.int "writes hook" 1 !writes;
      let s = Pager.stats pager in
      check Alcotest.int "reads stat" 2 s.Pager.reads;
      check Alcotest.int "writes stat" 1 s.Pager.writes;
      check Alcotest.int "allocs stat" 1 s.Pager.allocs)

let test_pager_in_memory () =
  let pager = Pager.in_memory () in
  let id = Pager.allocate pager in
  let page = Page.alloc () in
  Bytes.fill page 10 5 'q';
  Pager.write pager id page;
  check Alcotest.bytes "in-memory round trip" page (Pager.read pager id);
  Pager.close pager

(* --- Buffer pool --- *)

let test_pool_caching () =
  with_file_pager "pool" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:4 in
      let id = Buffer_pool.allocate pool in
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 8 'a');
      (* Second access must be a hit and see the write. *)
      Buffer_pool.with_page pool id (fun page ->
          check Alcotest.char "cached data" 'a' (Bytes.get page 0));
      let s = Buffer_pool.stats pool in
      check Alcotest.int "no misses yet" 0 s.Buffer_pool.misses;
      Buffer_pool.drop_all pool;
      Buffer_pool.with_page pool id (fun page ->
          check Alcotest.char "flushed to pager" 'a' (Bytes.get page 0));
      check Alcotest.int "one miss after drop" 1
        (Buffer_pool.stats pool).Buffer_pool.misses)

let test_pool_eviction () =
  with_file_pager "evict" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:4 in
      let ids = List.init 8 (fun _ -> Buffer_pool.allocate pool) in
      List.iteri
        (fun i id ->
          Buffer_pool.with_page_w pool id (fun page -> Page.set_u16 page 8 i))
        ids;
      (* All 8 pages written through only 4 frames; all data must survive. *)
      List.iteri
        (fun i id ->
          Buffer_pool.with_page pool id (fun page ->
              check Alcotest.int (Printf.sprintf "page %d" i) i
                (Page.get_u16 page 8)))
        ids;
      let s = Buffer_pool.stats pool in
      if s.Buffer_pool.evictions = 0 then Alcotest.fail "expected evictions")

let test_pool_pin_protects () =
  with_file_pager "pin" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:4 in
      let first = Buffer_pool.allocate pool in
      Buffer_pool.with_page pool first (fun _page ->
          (* While pinned, allocate enough pages to force eviction pressure;
             the pinned frame must never be the victim. *)
          for _ = 1 to 10 do
            let id = Buffer_pool.allocate pool in
            Buffer_pool.with_page_w pool id (fun p -> Page.set_u16 p 2 7)
          done);
      Buffer_pool.with_page pool first (fun page ->
          check Alcotest.int "pinned page intact" 0 (Page.get_u16 page 2)))

let test_pool_discard_dirty () =
  with_file_pager "discard" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:8 in
      let id = Buffer_pool.allocate pool in
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'z');
      Buffer_pool.flush_all pool;
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'w');
      Buffer_pool.discard_dirty pool;
      Buffer_pool.with_page pool id (fun page ->
          check Alcotest.char "dirty write discarded" 'z' (Bytes.get page 0)))

let test_pool_first_dirty_hook () =
  with_file_pager "hook" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:8 in
      let captured = ref [] in
      Buffer_pool.set_txn_hooks pool
        ~on_first_dirty:(fun id img -> captured := (id, Bytes.get img 0) :: !captured)
        ~on_evict_dirty:(fun _ _ -> ());
      let id = Buffer_pool.allocate pool in
      (* allocate counts as a first-dirty (before-image = zeroes); start a
         fresh txn window for the scenario under test. *)
      ignore (Buffer_pool.take_dirty_set pool);
      captured := [];
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'a');
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'b');
      (* Two writes, one capture; before-image predates the first write. *)
      check Alcotest.int "one capture" 1 (List.length !captured);
      let _, first_byte = List.hd !captured in
      check Alcotest.char "before image is pre-write" '\000' first_byte;
      let dirty = Buffer_pool.take_dirty_set pool in
      check Alcotest.int "one dirty page" 1 (List.length dirty);
      (* After take_dirty_set, the next write captures again. *)
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'c');
      check Alcotest.int "recapture after take" 2 (List.length !captured);
      let _, snd_byte = List.hd !captured in
      check Alcotest.char "second before image sees b" 'b' snd_byte)

(* A clean frame over a Memory pager is a zero-copy view of the store
   page; the first write must copy-on-write so the store stays isolated
   until flush. *)
let test_pool_cow_memory_isolation () =
  let pager = Pager.in_memory () in
  let pool = Buffer_pool.create pager ~capacity:4 in
  let id = Buffer_pool.allocate pool in
  Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 8 'a');
  Buffer_pool.flush_all pool;
  Buffer_pool.drop_all pool;
  Buffer_pool.with_page pool id (fun p ->
      check Alcotest.char "view sees store" 'a' (Bytes.get p 0));
  Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 8 'b');
  check Alcotest.char "store isolated from dirty frame" 'a'
    (Bytes.get (Pager.read pager id) 0);
  Buffer_pool.flush_all pool;
  check Alcotest.char "store updated on flush" 'b'
    (Bytes.get (Pager.read pager id) 0);
  Pager.close pager

(* Pin-safety with borrowed (un-owned) frames: churning every page
   through a 4-frame pool while one view is pinned must neither evict
   the pinned frame nor corrupt its contents. *)
let test_pool_view_pin_safety () =
  let pager = Pager.in_memory () in
  let pool = Buffer_pool.create pager ~capacity:4 in
  let ids = List.init 12 (fun _ -> Buffer_pool.allocate pool) in
  List.iteri
    (fun i id -> Buffer_pool.with_page_w pool id (fun p -> Page.set_u16 p 0 i))
    ids;
  Buffer_pool.flush_all pool;
  Buffer_pool.drop_all pool;
  Buffer_pool.with_page pool (List.hd ids) (fun p ->
      List.iteri
        (fun i id ->
          if i > 0 then
            Buffer_pool.with_page pool id (fun q ->
                check Alcotest.int (Printf.sprintf "page %d" i) i
                  (Page.get_u16 q 0)))
        ids;
      check Alcotest.int "pinned view intact" 0 (Page.get_u16 p 0));
  Pager.close pager

(* --- Slotted pages --- *)

let test_slotted_insert_read () =
  let page = Page.alloc () in
  Slotted.init page;
  let r1 = Bytes.of_string "hello" and r2 = Bytes.of_string "world!" in
  let s1 = Option.get (Slotted.insert page r1) in
  let s2 = Option.get (Slotted.insert page r2) in
  check Alcotest.bytes "read r1" r1 (Slotted.read page s1);
  check Alcotest.bytes "read r2" r2 (Slotted.read page s2);
  check Alcotest.int "two slots" 2 (Slotted.slot_count page);
  check Alcotest.int "two live" 2 (Slotted.live_records page)

let test_slotted_delete_reuse () =
  let page = Page.alloc () in
  Slotted.init page;
  let s1 = Option.get (Slotted.insert page (Bytes.make 10 'a')) in
  let _s2 = Option.get (Slotted.insert page (Bytes.make 10 'b')) in
  Slotted.delete page s1;
  check Alcotest.int "one live" 1 (Slotted.live_records page);
  Alcotest.check_raises "read deleted" (Invalid_argument "Slotted: slot 0 is free")
    (fun () -> ignore (Slotted.read page s1));
  let s3 = Option.get (Slotted.insert page (Bytes.make 4 'c')) in
  check Alcotest.int "slot reused" s1 s3

let test_slotted_fill_and_compact () =
  let page = Page.alloc () in
  Slotted.init page;
  (* Fill with 100-byte records until full. *)
  let slots = ref [] in
  (try
     while true do
       match Slotted.insert page (Bytes.make 100 'x') with
       | Some s -> slots := s :: !slots
       | None -> raise Exit
     done
   with Exit -> ());
  let n = List.length !slots in
  if n < 35 then Alcotest.failf "page held only %d 100-byte records" n;
  (* Delete every other record, then a 150-byte record must fit after
     compaction. *)
  List.iteri (fun i s -> if i mod 2 = 0 then Slotted.delete page s) !slots;
  (match Slotted.insert page (Bytes.make 150 'y') with
  | Some _ -> ()
  | None -> Alcotest.fail "compaction did not reclaim space");
  (* Survivors intact after compaction. *)
  List.iteri
    (fun i s ->
      if i mod 2 = 1 then
        check Alcotest.bytes
          (Printf.sprintf "survivor %d" i)
          (Bytes.make 100 'x') (Slotted.read page s))
    !slots

let test_slotted_update_in_place () =
  let page = Page.alloc () in
  Slotted.init page;
  let s = Option.get (Slotted.insert page (Bytes.of_string "abcdef")) in
  check Alcotest.bool "shrink ok" true (Slotted.update page s (Bytes.of_string "xy"));
  check Alcotest.bytes "shrunk" (Bytes.of_string "xy") (Slotted.read page s);
  check Alcotest.bool "grow ok" true
    (Slotted.update page s (Bytes.make 200 'g'));
  check Alcotest.bytes "grown" (Bytes.make 200 'g') (Slotted.read page s)

let test_slotted_update_too_big () =
  let page = Page.alloc () in
  Slotted.init page;
  let s = Option.get (Slotted.insert page (Bytes.make 2000 'a')) in
  let _ = Option.get (Slotted.insert page (Bytes.make 1500 'b')) in
  (* Growing record a to 3000 cannot fit (1500 + 3000 > capacity). *)
  check Alcotest.bool "grow fails" false
    (Slotted.update page s (Bytes.make 3000 'c'));
  check Alcotest.bytes "record a unchanged" (Bytes.make 2000 'a')
    (Slotted.read page s)

(* Model-based property: a slotted page behaves like a map from slots to
   records under random insert/delete/update. *)
let prop_slotted_model =
  QCheck.Test.make ~name:"slotted page vs model" ~count:60
    QCheck.(small_list (pair (int_range 0 2) (int_range 0 300)))
    (fun ops ->
      let page = Page.alloc () in
      Slotted.init page;
      let model : (int, bytes) Hashtbl.t = Hashtbl.create 16 in
      let next_char = ref 0 in
      List.iter
        (fun (op, size) ->
          let payload () =
            incr next_char;
            Bytes.make size (Char.chr (Char.code 'a' + (!next_char mod 26)))
          in
          match op with
          | 0 -> (
            let r = payload () in
            match Slotted.insert page r with
            | Some s -> Hashtbl.replace model s r
            | None -> ())
          | 1 -> (
            match Hashtbl.fold (fun k _ _ -> Some k) model None with
            | Some s ->
              Slotted.delete page s;
              Hashtbl.remove model s
            | None -> ())
          | _ -> (
            match Hashtbl.fold (fun k _ _ -> Some k) model None with
            | Some s ->
              let r = payload () in
              if Slotted.update page s r then Hashtbl.replace model s r
            | None -> ()))
        ops;
      Hashtbl.fold
        (fun s r acc -> acc && Bytes.equal (Slotted.read page s) r)
        model true
      && Slotted.live_records page = Hashtbl.length model)

(* --- Heap --- *)

let with_heap k =
  with_file_pager "heap" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:64 in
      ignore (Buffer_pool.allocate pool) (* reserve page 0 as meta slot *);
      let freelist = Freelist.attach pool ~head:0 in
      let heap = Heap.fresh pool freelist in
      k pool heap)

let test_heap_small_records () =
  with_heap (fun _pool heap ->
      let rids =
        List.init 100 (fun i ->
            (i, Heap.insert heap (Bytes.of_string (Printf.sprintf "record-%d" i))))
      in
      List.iter
        (fun (i, rid) ->
          check Alcotest.string
            (Printf.sprintf "read %d" i)
            (Printf.sprintf "record-%d" i)
            (Bytes.to_string (Heap.read heap rid)))
        rids;
      check Alcotest.int "count" 100 (Heap.record_count heap))

let test_heap_overflow_records () =
  with_heap (fun _pool heap ->
      (* A FormNode-sized record (≈7.8 KB) spans overflow pages. *)
      let big = Bytes.init 7800 (fun i -> Char.chr (i mod 251)) in
      let rid = Heap.insert heap big in
      check Alcotest.bytes "big record round trip" big (Heap.read heap rid);
      let huge = Bytes.init 60_000 (fun i -> Char.chr ((i * 7) mod 256)) in
      let rid2 = Heap.insert heap huge in
      check Alcotest.bytes "huge record round trip" huge (Heap.read heap rid2);
      check Alcotest.bytes "small record still fine" big (Heap.read heap rid))

let test_heap_update_relocation () =
  with_heap (fun _pool heap ->
      let rid = Heap.insert heap (Bytes.make 100 'a') in
      (* Grow within the page. *)
      let rid2 = Heap.update heap rid (Bytes.make 200 'b') in
      check Alcotest.bytes "grown" (Bytes.make 200 'b') (Heap.read heap rid2);
      (* Grow past inline limit: becomes an overflow record. *)
      let rid3 = Heap.update heap rid2 (Bytes.make 10_000 'c') in
      check Alcotest.bytes "overflowed" (Bytes.make 10_000 'c')
        (Heap.read heap rid3);
      (* Shrink back to inline. *)
      let rid4 = Heap.update heap rid3 (Bytes.make 10 'd') in
      check Alcotest.bytes "shrunk" (Bytes.make 10 'd') (Heap.read heap rid4))

let test_heap_delete () =
  with_heap (fun _pool heap ->
      let rid = Heap.insert heap (Bytes.make 50 'x') in
      Heap.delete heap rid;
      check Alcotest.int "empty" 0 (Heap.record_count heap))

let test_heap_overflow_pages_recycled () =
  with_heap (fun pool heap ->
      let big () = Bytes.make 20_000 'o' in
      let rid = Heap.insert heap (big ()) in
      let pages_before = Pager.page_count (Buffer_pool.pager pool) in
      Heap.delete heap rid;
      (* Inserting another big record must reuse the freed chain. *)
      let _rid2 = Heap.insert heap (big ()) in
      let pages_after = Pager.page_count (Buffer_pool.pager pool) in
      check Alcotest.int "no file growth on reuse" pages_before pages_after)

let test_heap_clustering_hint () =
  with_heap (fun _pool heap ->
      let anchor = Heap.insert heap (Bytes.make 40 'p') in
      let near = Heap.insert ~near:anchor heap (Bytes.make 40 'c') in
      check Alcotest.int "same page as anchor" (Heap.rid_page anchor)
        (Heap.rid_page near))

(* [read_with] hands inline records out as a window into the pinned
   page (no intermediate copy); overflow records are assembled and
   presented at offset zero. *)
let test_heap_read_with_views () =
  with_heap (fun _pool heap ->
      let small = Bytes.of_string "zero-copy-inline-record" in
      let rid = Heap.insert heap small in
      let got =
        Heap.read_with heap rid (fun b ~off ~len -> Bytes.sub b off len)
      in
      check Alcotest.bytes "inline via view" small got;
      Heap.read_with heap rid (fun b ~off ~len ->
          check Alcotest.bool "in-place window, not a fresh buffer" true
            (off > 0 || Bytes.length b > len));
      let big = Bytes.init 20_000 (fun i -> Char.chr (i mod 251)) in
      let rid2 = Heap.insert heap big in
      Heap.read_with heap rid2 (fun b ~off ~len ->
          check Alcotest.int "overflow at offset zero" 0 off;
          check Alcotest.int "overflow length" 20_000 len;
          check Alcotest.bytes "overflow assembled" big (Bytes.sub b off len)))

let test_heap_iter_order_and_attach () =
  with_file_pager "heap2" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:64 in
      ignore (Buffer_pool.allocate pool);
      let freelist = Freelist.attach pool ~head:0 in
      let heap = Heap.fresh pool freelist in
      let n = 500 in
      for i = 0 to n - 1 do
        ignore (Heap.insert heap (Bytes.of_string (string_of_int i)))
      done;
      Buffer_pool.flush_all pool;
      (* Reattach and verify everything is still reachable. *)
      let heap2 = Heap.attach pool freelist ~head:(Heap.first_page heap) in
      let seen = ref 0 in
      Heap.iter heap2 (fun _ _ -> incr seen);
      check Alcotest.int "all records via attach" n !seen)

(* --- Freelist --- *)

let test_freelist_lifo () =
  with_file_pager "freelist" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:16 in
      ignore (Buffer_pool.allocate pool);
      let fl = Freelist.attach pool ~head:0 in
      let a = Buffer_pool.allocate pool in
      let b = Buffer_pool.allocate pool in
      Freelist.push fl a;
      Freelist.push fl b;
      check Alcotest.int "length" 2 (Freelist.length fl);
      check (Alcotest.option Alcotest.int) "pop b" (Some b) (Freelist.pop fl);
      check (Alcotest.option Alcotest.int) "pop a" (Some a) (Freelist.pop fl);
      check (Alcotest.option Alcotest.int) "empty" None (Freelist.pop fl);
      (* alloc falls back to the pager when empty *)
      let c = Freelist.alloc fl in
      if c = a || c = b then Alcotest.fail "expected a fresh page")

(* --- Meta --- *)

let test_meta_roundtrip () =
  with_file_pager "meta" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:8 in
      ignore (Buffer_pool.allocate pool);
      check Alcotest.bool "not formatted" false (Meta.is_formatted pool);
      Meta.format pool;
      check Alcotest.bool "formatted" true (Meta.is_formatted pool);
      Meta.store pool [ ("heap", 3L); ("btree_uid", 7L) ];
      check (Alcotest.option Alcotest.int64) "get heap" (Some 3L)
        (Meta.get pool "heap");
      Meta.set pool "heap" 9L;
      Meta.set pool "new_key" 1L;
      check Alcotest.int64 "updated" 9L (Meta.get_exn pool "heap");
      check Alcotest.int64 "added" 1L (Meta.get_exn pool "new_key");
      check Alcotest.int64 "untouched" 7L (Meta.get_exn pool "btree_uid");
      check (Alcotest.option Alcotest.int64) "missing" None
        (Meta.get pool "nope"))

(* --- WAL + recovery --- *)

let page_of_char c =
  let p = Page.alloc () in
  Bytes.fill p 0 Page.size c;
  p

let test_wal_roundtrip () =
  let path = temp_path "wal" in
  let wal = Wal.open_ path in
  let entries =
    [
      Wal.Begin 1;
      Wal.Before (1, 2, page_of_char 'a');
      Wal.After (1, 2, page_of_char 'b');
      Wal.Commit 1;
      Wal.Checkpoint;
    ]
  in
  List.iter (Wal.append wal) entries;
  Wal.flush wal;
  let back = Wal.read_all path in
  check Alcotest.int "entry count" (List.length entries) (List.length back);
  List.iter2
    (fun a b ->
      check Alcotest.string "entry" (Wal.entry_to_string a)
        (Wal.entry_to_string b))
    entries back;
  Wal.close wal;
  Sys.remove path

let test_wal_torn_tail () =
  let path = temp_path "torn" in
  let wal = Wal.open_ path in
  Wal.append wal (Wal.Begin 1);
  Wal.append wal (Wal.After (1, 0, page_of_char 'x'));
  Wal.append wal (Wal.Commit 1);
  Wal.flush wal;
  let full = (Unix.stat path).Unix.st_size in
  Wal.close wal;
  (* Truncate mid-entry: the commit record is destroyed. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (full - 3);
  Unix.close fd;
  let back = Wal.read_all path in
  check Alcotest.int "commit lost, prefix kept" 2 (List.length back);
  Sys.remove path

let test_wal_missing_file () =
  check Alcotest.int "missing file is empty log" 0
    (List.length (Wal.read_all (temp_path "nonexistent")))

let test_recovery_redo () =
  with_file_pager "redo" (fun pager _path ->
      let wal_path = temp_path "redo_wal" in
      let p0 = Pager.allocate pager in
      Pager.write pager p0 (page_of_char 'o');
      (* Committed txn whose after-image never reached the main file. *)
      let wal = Wal.open_ wal_path in
      Wal.append wal (Wal.Begin 1);
      Wal.append wal (Wal.Before (1, p0, page_of_char 'o'));
      Wal.append wal (Wal.After (1, p0, page_of_char 'n'));
      Wal.append wal (Wal.Commit 1);
      Wal.flush wal;
      Wal.close wal;
      let report = Recovery.recover ~wal_path pager in
      check (Alcotest.list Alcotest.int) "committed" [ 1 ] report.Recovery.committed;
      check Alcotest.int "pages redone" 1 report.Recovery.pages_redone;
      check Alcotest.char "page holds new value" 'n'
        (Bytes.get (Pager.read pager p0) 0);
      Sys.remove wal_path)

let test_recovery_undo () =
  with_file_pager "undo" (fun pager _path ->
      let wal_path = temp_path "undo_wal" in
      let p0 = Pager.allocate pager in
      (* Uncommitted txn stole the page onto disk before crashing. *)
      Pager.write pager p0 (page_of_char 'u');
      let wal = Wal.open_ wal_path in
      Wal.append wal (Wal.Begin 9);
      Wal.append wal (Wal.Before (9, p0, page_of_char 'o'));
      Wal.append wal (Wal.After (9, p0, page_of_char 'u'));
      Wal.flush wal;
      Wal.close wal;
      let report = Recovery.recover ~wal_path pager in
      check (Alcotest.list Alcotest.int) "rolled back" [ 9 ]
        report.Recovery.rolled_back;
      check Alcotest.char "before image restored" 'o'
        (Bytes.get (Pager.read pager p0) 0);
      Sys.remove wal_path)

let test_recovery_mixed () =
  with_file_pager "mixed" (fun pager _path ->
      let wal_path = temp_path "mixed_wal" in
      let p0 = Pager.allocate pager and p1 = Pager.allocate pager in
      Pager.write pager p0 (page_of_char '0');
      Pager.write pager p1 (page_of_char '1');
      let wal = Wal.open_ wal_path in
      (* txn 1 commits a change to p0; txn 2 crashes mid-flight on p1. *)
      Wal.append wal (Wal.Begin 1);
      Wal.append wal (Wal.Before (1, p0, page_of_char '0'));
      Wal.append wal (Wal.After (1, p0, page_of_char 'A'));
      Wal.append wal (Wal.Commit 1);
      Wal.append wal (Wal.Begin 2);
      Wal.append wal (Wal.Before (2, p1, page_of_char '1'));
      Wal.flush wal;
      Wal.close wal;
      Pager.write pager p1 (page_of_char 'Z') (* stolen uncommitted write *);
      let report = Recovery.recover ~wal_path pager in
      check (Alcotest.list Alcotest.int) "committed" [ 1 ] report.Recovery.committed;
      check (Alcotest.list Alcotest.int) "rolled back" [ 2 ]
        report.Recovery.rolled_back;
      check Alcotest.char "p0 redone" 'A' (Bytes.get (Pager.read pager p0) 0);
      check Alcotest.char "p1 undone" '1' (Bytes.get (Pager.read pager p1) 0);
      Sys.remove wal_path)

let test_recovery_checkpoint_bound () =
  with_file_pager "ckpt" (fun pager _path ->
      let wal_path = temp_path "ckpt_wal" in
      let p0 = Pager.allocate pager in
      Pager.write pager p0 (page_of_char 'k');
      let wal = Wal.open_ wal_path in
      Wal.append wal (Wal.Begin 1);
      Wal.append wal (Wal.After (1, p0, page_of_char 'x'));
      Wal.append wal (Wal.Commit 1);
      Wal.append wal Wal.Checkpoint;
      Wal.flush wal;
      Wal.close wal;
      check Alcotest.bool "no recovery needed" false
        (Recovery.needs_recovery wal_path);
      let report = Recovery.recover ~wal_path pager in
      check Alcotest.int "nothing redone past checkpoint" 0
        report.Recovery.pages_redone;
      check Alcotest.char "page untouched" 'k'
        (Bytes.get (Pager.read pager p0) 0);
      Sys.remove wal_path)

(* --- Object table --- *)

let test_object_table () =
  with_file_pager "objtab" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:32 in
      ignore (Buffer_pool.allocate pool);
      let fl = Freelist.attach pool ~head:0 in
      let tab = Object_table.fresh pool fl in
      check (Alcotest.option Alcotest.int) "unset" None (Object_table.get tab ~oid:1);
      Object_table.set tab ~oid:1 ~rid:100;
      Object_table.set tab ~oid:2000 ~rid:4242 (* forces chain growth *);
      check Alcotest.int "oid 1" 100 (Object_table.get_exn tab ~oid:1);
      check Alcotest.int "oid 2000" 4242 (Object_table.get_exn tab ~oid:2000);
      check (Alcotest.option Alcotest.int) "gap oid" None
        (Object_table.get tab ~oid:1999);
      Object_table.set tab ~oid:1 ~rid:555;
      check Alcotest.int "oid 1 updated" 555 (Object_table.get_exn tab ~oid:1);
      Object_table.remove tab ~oid:1;
      check (Alcotest.option Alcotest.int) "removed" None
        (Object_table.get tab ~oid:1);
      (* Survives reattach. *)
      Buffer_pool.flush_all pool;
      let tab2 = Object_table.attach pool fl ~head:(Object_table.head tab) in
      check Alcotest.int "reattached" 4242 (Object_table.get_exn tab2 ~oid:2000);
      Alcotest.check_raises "oid 0 invalid"
        (Invalid_argument "Object_table: oid must be >= 1") (fun () ->
          ignore (Object_table.get tab ~oid:0)))

let () =
  Alcotest.run "hyper_storage"
    [
      ( "pager",
        [
          Alcotest.test_case "round trip" `Quick test_pager_roundtrip;
          Alcotest.test_case "persistence" `Quick test_pager_persistence;
          Alcotest.test_case "bounds" `Quick test_pager_bounds;
          Alcotest.test_case "hooks and stats" `Quick test_pager_hooks_and_stats;
          Alcotest.test_case "in-memory backing" `Quick test_pager_in_memory;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "caching" `Quick test_pool_caching;
          Alcotest.test_case "eviction under pressure" `Quick test_pool_eviction;
          Alcotest.test_case "pin protects" `Quick test_pool_pin_protects;
          Alcotest.test_case "discard dirty (abort)" `Quick test_pool_discard_dirty;
          Alcotest.test_case "first-dirty hook" `Quick test_pool_first_dirty_hook;
          Alcotest.test_case "copy-on-write isolation" `Quick
            test_pool_cow_memory_isolation;
          Alcotest.test_case "view pin safety" `Quick test_pool_view_pin_safety;
        ] );
      ( "slotted",
        [
          Alcotest.test_case "insert/read" `Quick test_slotted_insert_read;
          Alcotest.test_case "delete + slot reuse" `Quick test_slotted_delete_reuse;
          Alcotest.test_case "fill and compact" `Quick test_slotted_fill_and_compact;
          Alcotest.test_case "update in place" `Quick test_slotted_update_in_place;
          Alcotest.test_case "update too big" `Quick test_slotted_update_too_big;
          qtest prop_slotted_model;
        ] );
      ( "heap",
        [
          Alcotest.test_case "small records" `Quick test_heap_small_records;
          Alcotest.test_case "overflow records" `Quick test_heap_overflow_records;
          Alcotest.test_case "update relocation" `Quick test_heap_update_relocation;
          Alcotest.test_case "delete" `Quick test_heap_delete;
          Alcotest.test_case "overflow pages recycled" `Quick
            test_heap_overflow_pages_recycled;
          Alcotest.test_case "clustering hint" `Quick test_heap_clustering_hint;
          Alcotest.test_case "iter and attach" `Quick test_heap_iter_order_and_attach;
          Alcotest.test_case "read_with views" `Quick test_heap_read_with_views;
        ] );
      ( "freelist",
        [ Alcotest.test_case "lifo push/pop" `Quick test_freelist_lifo ] );
      ("meta", [ Alcotest.test_case "round trip" `Quick test_meta_roundtrip ]);
      ( "wal",
        [
          Alcotest.test_case "round trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick test_wal_torn_tail;
          Alcotest.test_case "missing file" `Quick test_wal_missing_file;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "redo committed" `Quick test_recovery_redo;
          Alcotest.test_case "undo uncommitted" `Quick test_recovery_undo;
          Alcotest.test_case "mixed redo+undo" `Quick test_recovery_mixed;
          Alcotest.test_case "checkpoint bound" `Quick test_recovery_checkpoint_bound;
        ] );
      ( "object_table",
        [ Alcotest.test_case "set/get/grow/reattach" `Quick test_object_table ] );
    ]
