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

(* --- CRC-32 kernel --- *)

(* The bytewise table-driven CRC-32 both kernel paths must agree with,
   kept here as the reference. *)
let reference_crc b ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* The dispatched kernel (PCLMULQDQ folding on an x86-64 host that has
   it) and the portable slicing-by-8 path, named for failure messages. *)
let crc_paths =
  [ ((if Page.For_testing.hardware_crc then "pclmul" else "dispatched"),
     Page.checksum_update);
    ("portable", Page.For_testing.checksum_update_portable) ]

let test_crc_known_answer () =
  let nine = Bytes.of_string "123456789" in
  List.iter
    (fun (name, update) ->
      check Alcotest.int (name ^ ": CRC-32 check value") 0xCBF43926
        (update 0 nine ~pos:0 ~len:9);
      check Alcotest.int (name ^ ": empty buffer") 0
        (update 0 Bytes.empty ~pos:0 ~len:0);
      Alcotest.check_raises (name ^ ": range outside the buffer")
        (Invalid_argument "Page.checksum_update") (fun () ->
          ignore (update 0 (Bytes.create 8) ~pos:4 ~len:5)))
    crc_paths;
  check Alcotest.int "Page.checksum" 0xCBF43926 (Page.checksum nine)

(* Slice lengths just around the hardware path's fold boundaries: the
   64-byte minimum and four-lane step, and the 16-byte single-lane step. *)
let crc_boundary_len =
  QCheck.Gen.(
    let* base = oneofl [ 16; 32; 48; 64; 80; 128; 192; 256; 4096 ] in
    let* delta = int_range (-3) 3 in
    return (max 0 (base + delta)))

let prop_crc_matches_reference =
  let gen =
    QCheck.Gen.(
      let* sub_len = frequency [ (1, int_range 0 9000); (1, crc_boundary_len) ] in
      let* pos = int_range 0 64 in
      let* tail = int_range 0 64 in
      let* s = string_size ~gen:char (return (pos + sub_len + tail)) in
      let* split = int_range 0 sub_len in
      return (s, pos, sub_len, split))
  in
  QCheck.Test.make
    ~name:"sliced CRC-32 agrees with the bytewise reference, as does PCLMUL"
    ~count:400
    (QCheck.make
       ~print:(fun (s, pos, len, split) ->
         Printf.sprintf "length %d, pos %d, len %d, split %d"
           (String.length s) pos len split)
       gen)
    (fun (s, pos, len, split) ->
      let b = Bytes.of_string s in
      let whole = reference_crc b ~pos:0 ~len:(Bytes.length b) in
      let slice = reference_crc b ~pos ~len in
      Page.checksum b = whole
      && List.for_all
           (fun (_, update) ->
             update 0 b ~pos:0 ~len:(Bytes.length b) = whole
             && update 0 b ~pos ~len = slice
             (* Streaming: a slice in two pieces, the first CRC seeding
                the second. *)
             && update (update 0 b ~pos ~len:split) b ~pos:(pos + split)
                  ~len:(len - split)
                = slice)
           crc_paths)

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

(* --- Pager: one pread per page, checksums held in memory --- *)

module Obs = Hyper_obs.Obs

(* Page [i] of the test stores: every byte is ['A' + i]. *)
let page_image i = Bytes.make Page.size (Char.chr (Char.code 'A' + i))

let remove_store path =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) (Engine.files path)

let write_store path n =
  let pager = Pager.create path in
  for i = 0 to n - 1 do
    Pager.write pager (Pager.allocate pager) (page_image i)
  done;
  Pager.close pager

(* Overwrite one byte of a file behind the pager's back. *)
let poke path off c =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write_substring fd (String.make 1 c) 0 1))

let corrupt_page_of f =
  match f () with
  | _ -> None
  | exception Storage_error.Error (Storage_error.Corrupt_page { page; _ }) ->
    Some page

let test_pager_one_pread_per_miss () =
  let path = temp_path "preads" in
  write_store path 24;
  let pager = Pager.create ~vfs:(Vfs.observed Vfs.real) path in
  let pool = Buffer_pool.create pager ~capacity:64 in
  let reads = Obs.Counter.make "hyper_vfs_reads_total" in
  let was_on = Obs.enabled () in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was_on then Obs.disable ();
      Pager.close pager;
      remove_store path)
    (fun () ->
      let before = Obs.Counter.value reads in
      for id = 0 to 15 do
        Buffer_pool.with_page pool id (fun page ->
            check Alcotest.bytes "demand-read page" (page_image id) page)
      done;
      check Alcotest.int "16 demand misses" 16
        (Buffer_pool.stats pool).Buffer_pool.misses;
      check Alcotest.int "one pread per demand miss" 16
        (Obs.Counter.value reads - before);
      let before = Obs.Counter.value reads in
      Buffer_pool.prefetch pool (List.init 8 (fun i -> 16 + i));
      check Alcotest.int "8 prefetched" 8
        (Buffer_pool.stats pool).Buffer_pool.prefetches;
      check Alcotest.int "one pread per prefetched page" 8
        (Obs.Counter.value reads - before))

let test_pager_sums_grow_with_allocate () =
  let path = temp_path "grow" in
  write_store path 2;
  Fun.protect ~finally:(fun () -> remove_store path) (fun () ->
      let pager = Pager.create path in
      (* Enough pages to grow the in-memory checksums several times. *)
      for i = 2 to 39 do
        let id = Pager.allocate pager in
        check Alcotest.int "next id" i id;
        Pager.write pager id (page_image i)
      done;
      (* A new page is verified from memory while the store is open... *)
      poke path ((37 * Page.size) + 100) '!';
      check Alcotest.(option int) "corruption of a new page caught" (Some 37)
        (corrupt_page_of (fun () -> Pager.read pager 37));
      Pager.close pager;
      (* ...and its checksum reached the sidecar. *)
      let pager = Pager.create path in
      Fun.protect ~finally:(fun () -> Pager.close pager) (fun () ->
          check Alcotest.int "page count" 40 (Pager.page_count pager);
          for i = 0 to 39 do
            if i <> 37 then
              check Alcotest.bytes "page verifies after reopen" (page_image i)
                (Pager.read pager i)
          done;
          check Alcotest.(option int) "corruption caught after reopen"
            (Some 37)
            (corrupt_page_of (fun () -> Pager.read pager 37))))

let test_pager_short_sidecar_reads_as_holes () =
  let path = temp_path "short_sum" in
  write_store path 8;
  Fun.protect ~finally:(fun () -> remove_store path) (fun () ->
      (* Keep the first three slots only, and corrupt a page on each
         side of the cut. *)
      Unix.truncate (Pager.sum_path path) (3 * 4);
      poke path ((1 * Page.size) + 7) '!';
      poke path ((6 * Page.size) + 7) '!';
      let pager = Pager.create path in
      Fun.protect ~finally:(fun () -> Pager.close pager) (fun () ->
          check Alcotest.(option int) "page with a slot verified" (Some 1)
            (corrupt_page_of (fun () -> Pager.read pager 1));
          check Alcotest.(option int) "page past the sidecar accepted" None
            (corrupt_page_of (fun () -> Pager.read pager 6));
          check Alcotest.(option int) "batch past the sidecar accepted" None
            (corrupt_page_of (fun () -> Pager.read_many pager [ 3; 4; 5; 6; 7 ]));
          Pager.write pager 6 (page_image 6));
      (* The rewrite recorded a checksum for page 6: it is verified now. *)
      poke path ((6 * Page.size) + 7) '!';
      let pager = Pager.create path in
      Fun.protect ~finally:(fun () -> Pager.close pager) (fun () ->
          check Alcotest.(option int) "rewritten page verified" (Some 6)
            (corrupt_page_of (fun () -> Pager.read pager 6))))

(* Two threads read different pages of one file through one descriptor.
   A positioned read is one system call, so neither can move the other's
   file position between a seek and a read. *)
let test_real_pread_two_threads () =
  let path = temp_path "threads" in
  let f = Vfs.real.Vfs.open_rw path in
  Fun.protect
    ~finally:(fun () ->
      f.Vfs.close ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      for i = 0 to 7 do
        f.Vfs.pwrite ~buf:(page_image i) ~off:(i * Page.size)
      done;
      let wrong = Array.make 2 0 in
      let reader slot id () =
        let buf = Bytes.create Page.size in
        let expected = page_image id in
        for _ = 1 to 20_000 do
          f.Vfs.pread ~buf ~off:(id * Page.size);
          if not (Bytes.equal buf expected) then
            wrong.(slot) <- wrong.(slot) + 1
        done
      in
      let threads =
        [ Thread.create (reader 0 2) (); Thread.create (reader 1 5) () ]
      in
      List.iter Thread.join threads;
      check Alcotest.int "thread 1 always read page 2" 0 wrong.(0);
      check Alcotest.int "thread 2 always read page 5" 0 wrong.(1))

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

(* The CLOCK sweep gives up when every resident frame is pinned, and
   slots freed by [invalidate] are reused before anything is evicted. *)
let test_pool_all_pinned_and_slot_reuse () =
  with_file_pager "allpinned" (fun pager _ ->
      let pool = Buffer_pool.create pager ~capacity:4 in
      let ids = List.init 6 (fun _ -> Buffer_pool.allocate pool) in
      Buffer_pool.flush_all pool;
      Buffer_pool.drop_all pool;
      let first4 = List.filteri (fun i _ -> i < 4) ids in
      Buffer_pool.with_pages pool first4 (fun _ ->
          Alcotest.check_raises "no unpinned victim"
            (Failure "Buffer_pool: all frames pinned, cannot evict") (fun () ->
              Buffer_pool.with_page pool (List.nth ids 4) ignore));
      let evictions () = (Buffer_pool.stats pool).Buffer_pool.evictions in
      let before = evictions () in
      Buffer_pool.invalidate pool (List.nth ids 0);
      Buffer_pool.invalidate pool (List.nth ids 1);
      Buffer_pool.with_page pool (List.nth ids 4) ignore;
      Buffer_pool.with_page pool (List.nth ids 5) ignore;
      check Alcotest.int "freed slots reused without eviction" before
        (evictions ());
      Buffer_pool.with_page pool (List.nth ids 0) ignore;
      check Alcotest.int "a full pool evicts one frame" (before + 1)
        (evictions ()))

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
      (* allocate counts as a first-dirty (before-image = zeroes); write
         the page back so the scenario starts from a clean frame. *)
      Buffer_pool.flush_all pool;
      captured := [];
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'a');
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'b');
      (* Two writes, one capture; before-image predates the first write. *)
      check Alcotest.int "one capture" 1 (List.length !captured);
      let _, first_byte = List.hd !captured in
      check Alcotest.char "before image is pre-write" '\000' first_byte;
      let dirty = Buffer_pool.take_dirty_set pool in
      check Alcotest.int "one dirty page" 1 (List.length dirty);
      (* Still dirty after take_dirty_set: no new capture. *)
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'b');
      check Alcotest.int "no capture while dirty" 1 (List.length !captured);
      (* Once written back the frame is clean, and the next write
         captures again. *)
      Buffer_pool.flush_all pool;
      Buffer_pool.with_page_w pool id (fun page -> Bytes.fill page 0 4 'c');
      check Alcotest.int "recapture after write-back" 2 (List.length !captured);
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

(* One range covering the whole page. *)
let whole c = [ (0, page_of_char c) ]

let test_wal_roundtrip () =
  let path = temp_path "wal" in
  let wal = Wal.open_ path in
  let entries =
    [
      Wal.Begin 1;
      Wal.Before (1, 2, [ (7, Bytes.of_string "abc"); (4000, Bytes.make 96 'a') ]);
      Wal.After (1, 2, whole 'b');
      Wal.After (1, 3, []);
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
        (Wal.entry_to_string b);
      check Alcotest.bool "same ranges" true (a = b))
    entries back;
  Wal.close wal;
  Sys.remove path

let test_wal_torn_tail () =
  let path = temp_path "torn" in
  let wal = Wal.open_ path in
  Wal.append wal (Wal.Begin 1);
  Wal.append wal (Wal.After (1, 0, whole 'x'));
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

(* The djb2 blind spot an earlier record checksum had: +1 on byte i and
   -33 on byte i+1 of a payload left it unchanged, so a corrupted After
   range was redone as if intact. *)
let test_wal_collision_not_redone () =
  with_file_pager "collide" (fun pager _path ->
      let wal_path = temp_path "collide_wal" in
      let p0 = Pager.allocate pager in
      Pager.write pager p0 (page_of_char 'o');
      let wal = Wal.open_ wal_path in
      Wal.append wal (Wal.Begin 1);
      Wal.append wal (Wal.After (1, p0, [ (64, Bytes.make 200 'b') ]));
      Wal.append wal (Wal.Commit 1);
      Wal.flush wal;
      Wal.close wal;
      (* Begin is a frame header and the txn; the range's bytes start
         after the After's frame header, txn, page and 4-byte range
         header. *)
      let begin_bytes = Frame_codec.header_bytes + 4 in
      let i = begin_bytes + Frame_codec.header_bytes + 8 + 4 + 100 in
      let fd = Unix.openfile wal_path [ Unix.O_RDWR ] 0 in
      let plant off c =
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        ignore (Unix.write_substring fd (String.make 1 c) 0 1)
      in
      plant i (Char.chr (Char.code 'b' + 1));
      plant (i + 1) (Char.chr (Char.code 'b' - 33));
      Unix.close fd;
      let scan = Wal.scan wal_path in
      check Alcotest.int "scan stops before the garbled After" 1
        (List.length scan.Wal.entries);
      check Alcotest.int "clean prefix is the Begin record" begin_bytes
        scan.Wal.clean_bytes;
      check Alcotest.bool "torn" true scan.Wal.torn;
      let report = Recovery.recover ~wal_path pager in
      check (Alcotest.list Alcotest.int) "nothing redone" []
        report.Recovery.committed;
      check Alcotest.int "no pages redone" 0 report.Recovery.pages_redone;
      check Alcotest.char "page keeps its old value" 'o'
        (Bytes.get (Pager.read pager p0) 64);
      Sys.remove wal_path)

(* A log written in the previous record format (magic 0xA7, a rolling
   djb2 trailer) must be refused at open, not truncated as a torn tail:
   its committed transactions may not have reached the data file. *)
let legacy_begin_record txn =
  let djb2 b =
    let h = ref 5381 in
    Bytes.iter
      (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF)
      b;
    !h
  in
  let hdr = Bytes.make 14 '\000' in
  Page.set_u8 hdr 0 0xA7;
  Page.set_u8 hdr 1 1;
  Page.set_u32 hdr 2 txn;
  let b = Bytes.extend hdr 0 4 in
  Page.set_u32 b 14 (djb2 Bytes.empty lxor djb2 hdr);
  b

(* Both the engine's open and the log's own open refuse the log, and
   leave it as it was. *)
let refused_at_open ~magic record =
  let path = temp_path "oldwal" in
  let wal_path = path ^ ".wal" in
  let oc = open_out_bin wal_path in
  output_bytes oc record;
  close_out oc;
  let refused f =
    match f () with
    | _ -> Alcotest.fail "old-format log was accepted"
    | exception
        Storage_error.Error
          (Storage_error.Unsupported_format { found; expected; _ }) ->
      check Alcotest.int "found the old magic" magic found;
      check Alcotest.int "expected the current magic" Wal.entry_magic expected
  in
  refused (fun () -> ignore (Engine.open_ ~path ~pool_pages:16 ()));
  refused (fun () -> ignore (Wal.open_ wal_path));
  check Alcotest.int "log left intact" (Bytes.length record)
    (Unix.stat wal_path).Unix.st_size;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Engine.files path)

let test_wal_old_format_refused () =
  refused_at_open ~magic:0xA7 (legacy_begin_record 1)

(* The whole-page-image format (magic 0xA8) had the current record
   framing and CRC-32; a log in it is refused just the same. *)
let test_wal_page_image_format_refused () =
  let b = Bytes.make 18 '\000' in
  Page.set_u8 b 0 0xA8;
  Page.set_u8 b 1 1;
  Page.set_u32 b 2 1;
  Page.set_u32 b 14 (Page.checksum_update 0 b ~pos:0 ~len:14);
  refused_at_open ~magic:0xA8 b

(* The byte-range format before the shared frame codec (magic 0xA9):
   its own 14-byte header (magic, kind, txn, page, payload length) and
   a trailing CRC-32. *)
let test_wal_own_header_format_refused () =
  let b = Bytes.make 18 '\000' in
  Page.set_u8 b 0 0xA9;
  Page.set_u8 b 1 1;
  Page.set_u32 b 2 1;
  Page.set_u32 b 14 (Page.checksum_update 0 b ~pos:0 ~len:14);
  refused_at_open ~magic:0xA9 b

(* Random page pairs: [cur] is [old] with random spans overwritten
   (sometimes by the bytes already there).  The diff's spans are
   ordered, disjoint, separated by more than a range header and cover
   every changed byte; patching [old] with [cur]'s ranges gives [cur],
   patching [cur] with [old]'s ranges gives [old]; and the ranges
   round-trip through a record at a random page id. *)
let prop_ranges =
  let gen =
    QCheck.Gen.(
      let* seed = int in
      let* edits = int_range 0 12 in
      let* page = int_range 0 100_000 in
      return (seed, edits, page))
  in
  QCheck.Test.make ~name:"diff, patch and range records round-trip"
    ~count:300
    (QCheck.make
       ~print:(fun (seed, edits, page) ->
         Printf.sprintf "seed %d, %d edits, page %d" seed edits page)
       gen)
    (fun (seed, edits, page) ->
      let st = Random.State.make [| seed |] in
      let old = Bytes.init Page.size (fun _ -> Char.chr (Random.State.int st 4)) in
      let cur = Bytes.copy old in
      for _ = 1 to edits do
        let off = Random.State.int st Page.size in
        let len = 1 + Random.State.int st (min 300 (Page.size - off)) in
        for i = off to off + len - 1 do
          Bytes.set cur i (Char.chr (Random.State.int st 4))
        done
      done;
      let spans = Wal.diff old cur in
      let rec well_formed prev = function
        | [] -> true
        | (off, len) :: rest ->
          len > 0 && off > prev + 4 && off + len <= Page.size
          && Bytes.get old off <> Bytes.get cur off
          && Bytes.get old (off + len - 1) <> Bytes.get cur (off + len - 1)
          && well_formed (off + len - 1) rest
      in
      let covered i = List.exists (fun (o, l) -> i >= o && i < o + l) spans in
      let all_covered = ref true in
      Bytes.iteri
        (fun i c -> if c <> Bytes.get cur i && not (covered i) then all_covered := false)
        old;
      let redo = Wal.ranges cur spans and undo = Wal.ranges old spans in
      let patched src rs =
        let b = Bytes.copy src in
        Wal.patch b rs;
        b
      in
      let record = Wal.After (7, page, redo) in
      well_formed (-5) spans && !all_covered
      && Bytes.equal (patched old redo) cur
      && Bytes.equal (patched cur undo) old
      && (spans = []) = Bytes.equal old cur
      && Wal.decode_entries (Wal.encode_entry record) = ([ record ], false))

(* One property over the one frame decoder, on frames of all three
   streams: a WAL record, a replication message, and a wire request and
   response.  Each comes with its stream's own decoder. *)
module Wire = Hyper_net.Wire
module Repl_frame = Hyper_repl.Frame

type stream = {
  name : string;
  frame : bytes;
  decodes : bytes -> [ `Whole | `Nothing | `Other ];
      (* the stream's own decoder on a buffer holding one frame *)
  wire_side : [ `Request | `Response ] option;
}

let wire_decode dec frame b =
  let d = dec () in
  Wire.Decoder.feed d b ~off:0 ~len:(Bytes.length b);
  match Wire.Decoder.next d with
  | Some (Ok v) -> if v = frame then `Whole else `Other
  | Some (Error _) | None -> `Nothing

let gen_stream =
  let open QCheck.Gen in
  let blob = map Bytes.of_string (string_size (int_range 0 40)) in
  let small = int_range 0 100_000 in
  let wal =
    let range =
      let* off = int_range 0 (Page.size - 40) in
      let* b = blob in
      return (off, b)
    in
    let* e =
      oneof
        [ map (fun t -> Wal.Begin t) small; map (fun t -> Wal.Commit t) small;
          return Wal.Checkpoint;
          map3 (fun t p rs -> Wal.After (t, p, rs)) small small
            (list_size (int_range 0 3) range);
          map3 (fun t p rs -> Wal.Before (t, p, rs)) small small
            (list_size (int_range 0 3) range) ]
    in
    return
      { name = "wal " ^ Wal.entry_to_string e; frame = Wal.encode_entry e;
        decodes =
          (fun b ->
            match Wal.decode_entries b with
            | [ e' ], false -> if e' = e then `Whole else `Other
            | [], _ -> `Nothing
            | _ -> `Other);
        wire_side = None }
  in
  let repl =
    let* epoch = small and* lsn = small and* payload = blob in
    let* f =
      oneofl
        [ Repl_frame.Append { epoch; base_lsn = lsn; payload };
          Repl_frame.Heartbeat { epoch; commit_lsn = lsn };
          Repl_frame.Snapshot
            { epoch; lsn; commits = 2; files = [ ("data", payload); ("sum", Bytes.empty) ] };
          Repl_frame.Ack { epoch; lsn }; Repl_frame.Nak { epoch; lsn };
          Repl_frame.Fence { epoch } ]
    in
    return
      { name = "repl " ^ Repl_frame.to_string f; frame = Repl_frame.encode f;
        decodes =
          (fun b ->
            match Repl_frame.decode b with
            | Some f' -> if f' = f then `Whole else `Other
            | None -> `Nothing);
        wire_side = None }
  in
  let request =
    let* rid = small and* s = string_size (int_range 0 20) in
    let* r =
      oneofl
        [ Wire.Ping { rid }; Wire.Hello { client = s; protocol = Wire.protocol_version };
          Wire.Ops { rid; ops = [ Hyper_core.Trace.Begin; Hyper_core.Trace.Doc_oids rid ] };
          Wire.Snapshot { rid; active = true }; Wire.Bye ]
    in
    return
      { name = "request"; frame = Wire.encode_request r;
        decodes = wire_decode (Wire.Decoder.create_request ?max_frame:None) r;
        wire_side = Some `Request }
  in
  let response =
    let* rid = small and* s = string_size (int_range 0 20) in
    let* r =
      oneofl
        [ Wire.Pong { rid };
          Wire.Results
            { rid; outcomes = [ Hyper_core.Trace.Done (Hyper_core.Trace.V_ints [ rid; 1 ]);
                                Hyper_core.Trace.Raised s ] };
          Wire.Fault { rid; code = Wire.F_bad_op; message = s };
          Wire.Welcome { session = rid; server = s; protocol = Wire.protocol_version } ]
    in
    return
      { name = "response"; frame = Wire.encode_response r;
        decodes = wire_decode (Wire.Decoder.create_response ?max_frame:None) r;
        wire_side = Some `Response }
  in
  oneof [ wal; repl; request; response ]

(* A wire body whose inner count overruns it, followed in the decoder's
   buffer by the valid frame [next]: the decoder must fail [Malformed],
   because it parses the body in place bounded by the body's own length,
   not the buffer's.  The short Ping body is the case a buffer-bounded
   parse would get wrong: the next frame's bytes would complete its
   rid. *)
let overrun_is_malformed side next =
  let magic = Bytes.get_uint8 next 0 in
  let bad kind body =
    Frame_codec.write ~magic ~kind ~len:(Bytes.length body)
      (fun body b off -> Bytes.blit body 0 b off (Bytes.length body))
      body
  in
  let decode dec frame =
    let both = Bytes.cat frame next in
    Wire.Decoder.feed dec both ~off:0 ~len:(Bytes.length both);
    match Wire.Decoder.next dec with
    | Some (Error (Wire.Malformed _)) -> true
    | Some (Error _ | Ok _) | None -> false
  in
  match side with
  | `Request ->
    (* Ping with a 5-byte rid; Ops claiming 2 ops and holding none *)
    let ops = Bytes.create 16 in
    Bytes.set_int64_le ops 0 1L;
    Bytes.set_int64_le ops 8 2L;
    decode (Wire.Decoder.create_request ()) (bad 3 (Bytes.make 5 '\001'))
    && decode (Wire.Decoder.create_request ()) (bad 2 ops)
  | `Response ->
    (* Results claiming 3 outcomes and holding 1 *)
    let results = Bytes.make 18 '\000' in
    Bytes.set_int64_le results 8 3L;
    decode (Wire.Decoder.create_response ()) (bad 130 results)

let prop_one_decoder =
  QCheck.Test.make
    ~name:"one frame decoder: splits, flips, lying lengths, overruns"
    ~count:200
    (QCheck.make ~print:(fun s -> s.name) gen_stream)
    (fun s ->
      let f = s.frame in
      let n = Bytes.length f in
      let max = 1 lsl 20 in
      let check b len =
        Frame_codec.check ~magic:(Bytes.get_uint8 f 0)
          ~kinds:(fun k -> k = Bytes.get_uint8 f 1) ~max b ~off:0 ~len
      in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      (match check f n with
      | Frame_codec.Frame { stop; _ } when stop = n -> ()
      | _ -> fail "the whole frame does not check");
      if s.decodes f <> `Whole then fail "the stream does not decode its frame";
      (* Every split point: short, and the stream's decoder has nothing. *)
      for cut = 0 to n - 1 do
        if check f cut <> Frame_codec.Short then fail "prefix of %d not short" cut;
        if s.decodes (Bytes.sub f 0 cut) <> `Nothing then
          fail "prefix of %d decoded" cut
      done;
      (* Every single-bit flip: a typed error or short, never a frame. *)
      for bit = 0 to (8 * n) - 1 do
        let g = Bytes.copy f in
        Bytes.set_uint8 g (bit / 8) (Bytes.get_uint8 g (bit / 8) lxor (1 lsl (bit mod 8)));
        (match check g n with
        | Frame_codec.Bad _ | Frame_codec.Short -> ()
        | Frame_codec.Frame _ -> fail "bit %d flipped still checks" bit);
        if s.decodes g <> `Nothing then fail "bit %d flipped still decodes" bit
      done;
      (* A length longer than the body: oversized past the cap, else
         short. *)
      List.iter
        (fun lie ->
          let g = Bytes.copy f in
          Page.set_u32 g 2 lie;
          match check g n with
          | Frame_codec.Bad (Frame_codec.Oversized { length; limit })
            when length = lie && limit = max && lie > max -> ()
          | Frame_codec.Short when lie <= max -> ()
          | _ -> fail "length %d did not read oversized or short" lie)
        [ n - Frame_codec.header_bytes + 1; max; max + 1; 0xFFFFFFFF ];
      (match s.wire_side with
      | Some side ->
        if not (overrun_is_malformed side f) then
          fail "an overrunning body before this frame was not malformed"
      | None -> ());
      true)

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
      Wal.append wal (Wal.Before (1, p0, whole 'o'));
      Wal.append wal (Wal.After (1, p0, whole 'n'));
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
      Wal.append wal (Wal.Before (9, p0, whole 'o'));
      Wal.append wal (Wal.After (9, p0, whole 'u'));
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
      Wal.append wal (Wal.Before (1, p0, whole '0'));
      Wal.append wal (Wal.After (1, p0, whole 'A'));
      Wal.append wal (Wal.Commit 1);
      Wal.append wal (Wal.Begin 2);
      Wal.append wal (Wal.Before (2, p1, whole '1'));
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
      Wal.append wal (Wal.After (1, p0, whole 'x'));
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
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick test_crc_known_answer;
          qtest prop_crc_matches_reference;
        ] );
      ( "pager",
        [
          Alcotest.test_case "round trip" `Quick test_pager_roundtrip;
          Alcotest.test_case "persistence" `Quick test_pager_persistence;
          Alcotest.test_case "bounds" `Quick test_pager_bounds;
          Alcotest.test_case "hooks and stats" `Quick test_pager_hooks_and_stats;
          Alcotest.test_case "in-memory backing" `Quick test_pager_in_memory;
          Alcotest.test_case "one pread per miss" `Quick
            test_pager_one_pread_per_miss;
          Alcotest.test_case "allocate extends checksums" `Quick
            test_pager_sums_grow_with_allocate;
          Alcotest.test_case "short sidecar reads as holes" `Quick
            test_pager_short_sidecar_reads_as_holes;
          Alcotest.test_case "pread from two threads" `Quick
            test_real_pread_two_threads;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "caching" `Quick test_pool_caching;
          Alcotest.test_case "eviction under pressure" `Quick test_pool_eviction;
          Alcotest.test_case "pin protects" `Quick test_pool_pin_protects;
          Alcotest.test_case "all pinned, slot reuse" `Quick
            test_pool_all_pinned_and_slot_reuse;
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
          Alcotest.test_case "djb2 collision stops the scan" `Quick
            test_wal_collision_not_redone;
          Alcotest.test_case "old format refused at open" `Quick
            test_wal_old_format_refused;
          Alcotest.test_case "page-image format refused at open" `Quick
            test_wal_page_image_format_refused;
          Alcotest.test_case "own-header format refused at open" `Quick
            test_wal_own_header_format_refused;
          qtest prop_ranges;
        ] );
      ( "frame",
        [
          qtest prop_one_decoder;
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
