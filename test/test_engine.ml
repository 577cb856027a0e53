(* Engine-level transaction tests, exercised directly against the shared
   storage session: bracketing errors, WAL hook ordering, commit
   durability, abort restoration with stolen pages, checkpoint
   truncation, and codec property tests for both backends' record
   formats. *)

open Hyper_storage

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let temp_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_engine_%d_%s_%d" (Unix.getpid ()) name !counter)

let with_engine ?(pool_pages = 8) name k =
  let path = temp_path name in
  let e = Engine.open_ ~path ~pool_pages () in
  Fun.protect
    ~finally:(fun () ->
      (try Engine.close e with _ -> ());
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (Engine.files path))
    (fun () -> k e path)

let test_bracketing_errors () =
  with_engine "bracket" (fun e _ ->
      Alcotest.check_raises "commit without begin"
        (Invalid_argument "Engine: no active transaction") (fun () ->
          Engine.commit e);
      Engine.begin_txn e;
      Alcotest.check_raises "nested begin"
        (Invalid_argument "Engine: nested transaction") (fun () ->
          Engine.begin_txn e);
      Alcotest.check_raises "clear_caches inside txn"
        (Invalid_argument "Engine: clear_caches inside a transaction")
        (fun () -> Engine.clear_caches e);
      Engine.abort e;
      check Alcotest.bool "not in txn" false (Engine.in_txn e))

(* Close with a transaction still open (typically: an exception unwound
   through a [Fun.protect] whose finalizer closes the store) rolls the
   transaction back instead of raising — the uncommitted writes must
   not survive a reopen. *)
let test_close_rolls_back_open_txn () =
  with_engine "close_rollback" (fun e path ->
      let pool = Engine.pool e in
      Engine.begin_txn e;
      let id = Buffer_pool.allocate pool in
      Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 8 'c');
      Engine.commit e;
      Engine.begin_txn e;
      Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 8 'u');
      Engine.close e;
      let e2 = Engine.open_ ~path ~pool_pages:8 () in
      Fun.protect
        ~finally:(fun () -> Engine.close e2)
        (fun () ->
          Buffer_pool.with_page (Engine.pool e2) id (fun p ->
              check Alcotest.char "uncommitted write rolled back" 'c'
                (Bytes.get p 0))))

let test_commit_then_visible_after_drop () =
  with_engine "commit" (fun e _ ->
      let pool = Engine.pool e in
      Engine.begin_txn e;
      let id = Buffer_pool.allocate pool in
      Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 8 'c');
      Engine.commit e;
      Engine.clear_caches e;
      Buffer_pool.with_page pool id (fun p ->
          check Alcotest.char "committed data on disk" 'c' (Bytes.get p 0)))

let test_abort_restores_stolen_pages () =
  with_engine ~pool_pages:4 "abort" (fun e _ ->
      let pool = Engine.pool e in
      (* Committed baseline on several pages. *)
      Engine.begin_txn e;
      let ids = List.init 12 (fun _ -> Buffer_pool.allocate pool) in
      List.iter
        (fun id -> Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 4 'o'))
        ids;
      Engine.commit e;
      (* Mutate all pages in a txn (forcing steals with 4 frames), abort. *)
      Engine.begin_txn e;
      List.iter
        (fun id -> Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 4 'x'))
        ids;
      Engine.abort e;
      List.iter
        (fun id ->
          Buffer_pool.with_page pool id (fun p ->
              check Alcotest.char
                (Printf.sprintf "page %d restored" id)
                'o' (Bytes.get p 0)))
        ids)

let test_reload_hook_fires_on_abort () =
  with_engine "hook" (fun e _ ->
      let reloads = ref 0 and saves = ref 0 in
      Engine.set_hooks e
        ~on_save:(fun () -> incr saves)
        ~on_reload:(fun () -> incr reloads);
      Engine.begin_txn e;
      Engine.commit e;
      check Alcotest.int "save on commit" 1 !saves;
      check Alcotest.int "no reload on commit" 0 !reloads;
      Engine.begin_txn e;
      Engine.abort e;
      check Alcotest.int "reload on abort" 1 !reloads)

let test_checkpoint_truncates_wal () =
  with_engine "ckpt" (fun e path ->
      let pool = Engine.pool e in
      Engine.begin_txn e;
      let id = Buffer_pool.allocate pool in
      Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 4 'w');
      Engine.commit e;
      if Engine.wal_bytes e = 0 then Alcotest.fail "wal empty after commit";
      Engine.checkpoint e;
      check Alcotest.int "wal truncated" 0 (Engine.wal_bytes e);
      ignore path)

let test_wal_before_after_ordering () =
  (* A commit logs Begin, one After per changed page holding only the
     changed bytes, then Commit.  A Before is logged only when a dirty
     page is stolen, right before that page's After. *)
  with_engine ~pool_pages:4 "order" (fun e path ->
      let pool = Engine.pool e in
      Engine.begin_txn e;
      let id = Buffer_pool.allocate pool in
      Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 4 'z');
      Engine.commit e;
      let entries () = Wal.read_all (path ^ ".wal") in
      check
        (Alcotest.list Alcotest.string)
        "no steal: begin, the 4 changed bytes, commit"
        [ "begin(1)"; Printf.sprintf "after(1, page %d: 0+4)" id; "commit(1)" ]
        (List.map Wal.entry_to_string (entries ()));
      (* Six fresh dirty pages through a 4-frame pool: some are stolen. *)
      Engine.begin_txn e;
      for i = 0 to 5 do
        let id = Buffer_pool.allocate pool in
        Buffer_pool.with_page_w pool id (fun p ->
            Bytes.fill p 100 4 (Char.chr (Char.code 'a' + i)))
      done;
      Engine.commit e;
      let txn2 = List.filteri (fun i _ -> i >= 3) (entries ()) in
      check Alcotest.bool "begins" true (List.hd txn2 = Wal.Begin 2);
      check Alcotest.bool "ends with commit" true
        (List.nth txn2 (List.length txn2 - 1) = Wal.Commit 2);
      let rec steals acc = function
        | Wal.Before (2, p, rs) :: (Wal.After (2, p', _) :: _ as rest) ->
          check Alcotest.int "the stolen page's After follows" p p';
          check Alcotest.bool "old bytes of the written span" true
            (rs = [ (100, Bytes.make 4 '\000') ]);
          steals (acc + 1) rest
        | Wal.Before _ :: _ -> Alcotest.fail "a Before without its After"
        | _ :: rest -> steals acc rest
        | [] -> acc
      in
      check Alcotest.bool "some page was stolen" true (steals 0 txn2 > 0);
      List.iter
        (function
          | Wal.After (_, _, rs) ->
            check Alcotest.int "only the written span" 4
              (List.fold_left (fun a (_, b) -> a + Bytes.length b) 0 rs)
          | _ -> ())
        txn2)

(* --- group commit --- *)

(* A single-threaded committer through a group scheduler must behave
   exactly like plain durable commit: every commit forms its own group
   of one, and the data survives a cache drop. *)
let test_group_commit_single () =
  let path = temp_path "group1" in
  let e =
    Engine.open_ ~path ~pool_pages:8 ~durable_sync:true
      ~group_commit:{ Group_commit.max_batch = 8; max_hold_ns = 0.0 }
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Engine.close e with _ -> ());
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (Engine.files path))
    (fun () ->
      let pool = Engine.pool e in
      let syncs0 = Engine.wal_sync_count e in
      Engine.begin_txn e;
      let id = Buffer_pool.allocate pool in
      Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 0 8 'g');
      Engine.commit e;
      Engine.begin_txn e;
      Buffer_pool.with_page_w pool id (fun p -> Bytes.fill p 4 4 'h');
      Engine.commit e;
      check Alcotest.int "one fsync per solo commit" 2
        (Engine.wal_sync_count e - syncs0);
      (match Engine.group_commit_stats e with
      | Some (groups, members) ->
        check Alcotest.int "groups" 2 groups;
        check Alcotest.int "members" 2 members
      | None -> Alcotest.fail "group commit not enabled");
      Engine.clear_caches e;
      Buffer_pool.with_page pool id (fun p ->
          check Alcotest.char "durable" 'g' (Bytes.get p 0)))

(* Two transactions committed through tickets before either waits: the
   first award covers both (one barrier, two members), and both survive
   a power failure. *)
let test_group_commit_batches_tickets () =
  let env = Vfs.Faulty.create Vfs.Faulty.quiet in
  let vfs = Vfs.Faulty.vfs env in
  let path = "/t/group.db" in
  let open_engine () =
    Engine.open_ ~vfs ~path ~pool_pages:8 ~durable_sync:true
      ~group_commit:{ Group_commit.max_batch = 8; max_hold_ns = 0.0 }
      ()
  in
  let e = open_engine () in
  let pool = Engine.pool e in
  Engine.begin_txn e;
  let a = Buffer_pool.allocate pool in
  Buffer_pool.with_page_w pool a (fun p -> Bytes.fill p 0 8 'a');
  let tk1 = Engine.commit_ticket e in
  Engine.begin_txn e;
  let b = Buffer_pool.allocate pool in
  Buffer_pool.with_page_w pool b (fun p -> Bytes.fill p 0 8 'b');
  let tk2 = Engine.commit_ticket e in
  let syncs0 = Engine.wal_sync_count e in
  Engine.await_durable e tk1;
  Engine.await_durable e tk2;
  check Alcotest.int "one shared fsync" 1 (Engine.wal_sync_count e - syncs0);
  (match Engine.group_commit_stats e with
  | Some (groups, members) ->
    check Alcotest.int "one group" 1 groups;
    check Alcotest.int "two members" 2 members
  | None -> Alcotest.fail "group commit not enabled");
  (* Both acked commits must survive losing power. *)
  Vfs.Faulty.power_fail env;
  let e2 = open_engine () in
  let pool2 = Engine.pool e2 in
  Buffer_pool.with_page pool2 a (fun p ->
      check Alcotest.char "txn 1 durable" 'a' (Bytes.get p 0));
  Buffer_pool.with_page pool2 b (fun p ->
      check Alcotest.char "txn 2 durable" 'b' (Bytes.get p 0));
  Engine.close e2

(* Crash during the group fsync: the barrier fails, the waiter sees the
   failure (so the commit is never acked) and the engine demotes itself.
   After the power failure the store recovers to an atomic state: the
   previously acked transaction is intact, and the unacked one is either
   fully present or fully rolled back — never half-applied. *)
let test_group_commit_crash_mid_barrier () =
  let env = Vfs.Faulty.create Vfs.Faulty.quiet in
  let vfs = Vfs.Faulty.vfs env in
  let path = "/t/crash.db" in
  let cfg = { Group_commit.max_batch = 8; max_hold_ns = 0.0 } in
  let e =
    Engine.open_ ~vfs ~path ~pool_pages:8 ~durable_sync:true ~group_commit:cfg
      ()
  in
  let pool = Engine.pool e in
  Engine.begin_txn e;
  let a = Buffer_pool.allocate pool in
  Buffer_pool.with_page_w pool a (fun p -> Bytes.fill p 0 8 'a');
  Engine.commit e;
  (* Unacked transaction: ticket taken, barrier armed to crash. *)
  Engine.begin_txn e;
  Buffer_pool.with_page_w pool a (fun p -> Bytes.fill p 0 8 'x');
  let tk = Engine.commit_ticket e in
  Vfs.Faulty.arm_crash env ~after_syncs:1 ~power_loss:true ();
  (match Engine.await_durable e tk with
  | () -> Alcotest.fail "barrier should have crashed"
  | exception _ -> ());
  check Alcotest.bool "engine demoted" true (Engine.read_only e);
  Vfs.Faulty.power_fail env;
  (* Disarm the crash plan: the reopen below models the post-reboot run. *)
  Vfs.Faulty.set_plan env Vfs.Faulty.quiet;
  let e2 =
    Engine.open_ ~vfs ~path ~pool_pages:8 ~durable_sync:true ~group_commit:cfg
      ()
  in
  let c =
    Buffer_pool.with_page (Engine.pool e2) a (fun p -> Bytes.get p 0)
  in
  if c <> 'a' && c <> 'x' then
    Alcotest.failf "page neither old nor new state: %C" c;
  (* Whatever recovery decided must match the page contents. *)
  (match Engine.recovery e2 with
  | Some r ->
    let committed = List.mem 2 r.Recovery.committed in
    check Alcotest.char "page matches recovery verdict"
      (if committed then 'x' else 'a')
      c
  | None -> check Alcotest.char "no recovery: acked state only" 'a' c);
  Engine.close e2

(* The fsync-sharing seam end to end: concurrent committers on a real
   file coalesce into fewer fsyncs than commits. *)
let test_group_commit_multiuser_shares_fsyncs () =
  let module D = Hyper_diskdb.Diskdb in
  let path = temp_path "mu_group" in
  let config =
    { (D.default_config ~path) with
      D.durable_sync = true;
      pool_pages = 256;
      group_commit = Some { Group_commit.max_batch = 8; max_hold_ns = 5e6 } }
  in
  let db = D.open_db config in
  Fun.protect
    ~finally:(fun () ->
      (try D.close db with _ -> ());
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (Engine.files path))
    (fun () ->
      let module G = Hyper_core.Generator.Make (D) in
      let layout, _ = G.generate db ~doc:1 ~leaf_level:3 ~seed:7L in
      let engine = D.engine db in
      let syncs0 = Engine.wal_sync_count engine in
      let groups0 = Engine.group_commit_stats engine in
      let commit () =
        let tk = Engine.commit_ticket engine in
        fun () -> Engine.await_durable engine tk
      in
      let module M = Hyper_core.Multiuser.Make (D) in
      let r =
        M.run ~commit db layout ~mode:Hyper_core.Multiuser.Two_phase_locking
          ~users:8 ~txns_per_user:25 ~hot_fraction:0.0 ~seed:7L
      in
      let fsyncs = Engine.wal_sync_count engine - syncs0 in
      let committed = r.Hyper_core.Multiuser.committed in
      if committed < 100 then
        Alcotest.failf "too few committed transactions: %d" committed;
      if fsyncs >= committed then
        Alcotest.failf "no fsync sharing: %d fsyncs for %d commits" fsyncs
          committed;
      match (Engine.group_commit_stats engine, groups0) with
      | Some (g, m), Some (g0, m0) ->
        check Alcotest.int "every commit got a ticket" committed (m - m0);
        check Alcotest.int "one fsync per group" fsyncs (g - g0)
      | _ -> Alcotest.fail "group commit not enabled")

(* --- codec properties --- *)

let link_gen =
  QCheck.Gen.(
    map3
      (fun t f o -> { Hyper_core.Schema.target = t + 1; offset_from = f; offset_to = o })
      (int_bound 100_000) (int_bound 9) (int_bound 9))

let node_gen =
  QCheck.Gen.(
    let oids = array_size (int_bound 8) (map (fun i -> i + 1) (int_bound 100_000)) in
    let links = array_size (int_bound 4) link_gen in
    let kind =
      oneofl
        [ Hyper_core.Schema.Internal; Hyper_core.Schema.Text;
          Hyper_core.Schema.Form; Hyper_core.Schema.Draw ]
    in
    map
      (fun ((doc, uid, kind, ten), (hundred, million, parent), (children, parts, part_of), (refs_to, refs_from, text)) ->
        { Hyper_diskdb.Codec.doc; unique_id = uid; kind; ten;
          hundred; million; parent; children; parts; part_of; refs_to;
          refs_from; dyn = [ ("k", 7) ]; text;
          form = Bytes.of_string "formbytes" })
      (tup4
         (tup4 (int_bound 100) (int_bound 100_000) kind (int_bound 10))
         (tup3 (int_range (-1) 100) (int_bound 1_000_000) (int_bound 100_000))
         (tup3 oids oids oids)
         (tup3 links links (string_size (int_bound 200)))))

let prop_diskdb_codec_roundtrip =
  QCheck.Test.make ~name:"diskdb codec round trip" ~count:200
    (QCheck.make node_gen) (fun n ->
      let n' = Hyper_diskdb.Codec.decode (Hyper_diskdb.Codec.encode n) in
      n' = n)

let prop_oid_list_roundtrip =
  QCheck.Test.make ~name:"oid list codec round trip" ~count:200
    QCheck.(small_list small_nat)
    (fun oids ->
      Hyper_diskdb.Codec.decode_oid_list
        (Hyper_diskdb.Codec.encode_oid_list oids)
      = oids)

let prop_reldb_node_roundtrip =
  QCheck.Test.make ~name:"reldb NODE row round trip" ~count:200
    QCheck.(
      quad (int_bound 100) (int_bound 100_000) (int_range (-1) 100)
        (int_bound 1_000_000))
    (fun (doc, uid, hundred, million) ->
      let row =
        { Hyper_reldb.Rows.doc; oid = uid + 1; unique_id = uid;
          ten = (uid mod 10) + 1; hundred; million;
          kind = Hyper_core.Schema.Text; dyn = [ ("layer", 3) ] }
      in
      Hyper_reldb.Rows.decode_node (Hyper_reldb.Rows.encode_node row) = row)

let prop_reldb_relationship_rows =
  QCheck.Test.make ~name:"reldb CHILD/PART/REF row round trips" ~count:200
    QCheck.(
      quad (int_bound 100_000) (int_bound 100_000) (int_bound 9) (int_bound 9))
    (fun (a, b, f, o) ->
      let child = { Hyper_reldb.Rows.parent = a + 1; pos = f; child = b + 1 } in
      let part = { Hyper_reldb.Rows.whole = a + 1; part = b + 1; seq = o } in
      let r =
        { Hyper_reldb.Rows.src = a + 1; dst = b + 1; offset_from = f;
          offset_to = o; seq = a }
      in
      Hyper_reldb.Rows.decode_child (Hyper_reldb.Rows.encode_child child)
      = child
      && Hyper_reldb.Rows.decode_part (Hyper_reldb.Rows.encode_part part)
         = part
      && Hyper_reldb.Rows.decode_ref (Hyper_reldb.Rows.encode_ref r) = r)

let test_text_form_rows () =
  let oid, text =
    Hyper_reldb.Rows.decode_text
      (Hyper_reldb.Rows.encode_text ~oid:42 "hello world")
  in
  check Alcotest.int "text oid" 42 oid;
  check Alcotest.string "text body" "hello world" text;
  let bitmap = Hyper_util.Bitmap.create ~width:120 ~height:90 in
  Hyper_util.Bitmap.invert_rect bitmap ~x:3 ~y:4 ~w:10 ~h:10;
  let oid, bytes =
    Hyper_reldb.Rows.decode_form
      (Hyper_reldb.Rows.encode_form ~oid:7
         (Hyper_util.Bitmap.to_bytes bitmap))
  in
  check Alcotest.int "form oid" 7 oid;
  check Alcotest.bool "bitmap preserved" true
    (Hyper_util.Bitmap.equal bitmap (Hyper_util.Bitmap.of_bytes bytes))

let () =
  Alcotest.run "hyper_engine"
    [
      ( "engine",
        [
          Alcotest.test_case "bracketing errors" `Quick test_bracketing_errors;
          Alcotest.test_case "close rolls back open txn" `Quick
            test_close_rolls_back_open_txn;
          Alcotest.test_case "commit durable through drop" `Quick
            test_commit_then_visible_after_drop;
          Alcotest.test_case "abort restores stolen pages" `Quick
            test_abort_restores_stolen_pages;
          Alcotest.test_case "hooks fire" `Quick test_reload_hook_fires_on_abort;
          Alcotest.test_case "checkpoint truncates wal" `Quick
            test_checkpoint_truncates_wal;
          Alcotest.test_case "wal entry ordering" `Quick
            test_wal_before_after_ordering;
        ] );
      ( "group_commit",
        [
          Alcotest.test_case "solo committer unchanged" `Quick
            test_group_commit_single;
          Alcotest.test_case "tickets share one fsync" `Quick
            test_group_commit_batches_tickets;
          Alcotest.test_case "crash mid-barrier" `Quick
            test_group_commit_crash_mid_barrier;
          Alcotest.test_case "multiuser shares fsyncs" `Quick
            test_group_commit_multiuser_shares_fsyncs;
        ] );
      ( "codecs",
        [
          qtest prop_diskdb_codec_roundtrip;
          qtest prop_oid_list_roundtrip;
          qtest prop_reldb_node_roundtrip;
          qtest prop_reldb_relationship_rows;
          Alcotest.test_case "text/form rows" `Quick test_text_form_rows;
        ] );
    ]
