(* Concurrency-support tests: 2PL lock manager (compatibility, upgrade,
   timeout/deadlock, multi-threaded exclusion), optimistic concurrency
   control (validation, first-committer-wins), the multi-version store
   (R5) and cooperative workspaces (R9). *)

open Hyper_txn

let check = Alcotest.check

(* The whole battery runs under the lockdep deadlock detector: any
   lock-order inversion performed during the run is a failure even if
   every assertion passes (checked after the run). *)
module Lockdep = Hyper_util.Sync.Lockdep

let () = Lockdep.enable ()

(* --- Lock manager --- *)

let test_shared_compatible () =
  let lm = Lock_manager.create () in
  Lock_manager.acquire lm ~txn:1 ~resource:10 Lock_manager.Shared;
  Lock_manager.acquire lm ~txn:2 ~resource:10 Lock_manager.Shared;
  check Alcotest.bool "third shared too" true
    (Lock_manager.try_acquire lm ~txn:3 ~resource:10 Lock_manager.Shared);
  check Alcotest.bool "exclusive blocked" false
    (Lock_manager.try_acquire lm ~txn:4 ~resource:10 Lock_manager.Exclusive)

let test_exclusive_excludes () =
  let lm = Lock_manager.create () in
  Lock_manager.acquire lm ~txn:1 ~resource:5 Lock_manager.Exclusive;
  check Alcotest.bool "shared blocked" false
    (Lock_manager.try_acquire lm ~txn:2 ~resource:5 Lock_manager.Shared);
  check Alcotest.bool "exclusive blocked" false
    (Lock_manager.try_acquire lm ~txn:2 ~resource:5 Lock_manager.Exclusive);
  (* Reentrant for the owner. *)
  check Alcotest.bool "owner re-acquires" true
    (Lock_manager.try_acquire lm ~txn:1 ~resource:5 Lock_manager.Exclusive);
  Lock_manager.release_all lm ~txn:1;
  check Alcotest.bool "released" true
    (Lock_manager.try_acquire lm ~txn:2 ~resource:5 Lock_manager.Exclusive)

let test_upgrade () =
  let lm = Lock_manager.create () in
  Lock_manager.acquire lm ~txn:1 ~resource:7 Lock_manager.Shared;
  (* Sole shared holder upgrades. *)
  check Alcotest.bool "upgrade ok" true
    (Lock_manager.try_acquire lm ~txn:1 ~resource:7 Lock_manager.Exclusive);
  check (Alcotest.option Alcotest.bool) "now exclusive" (Some true)
    (Option.map
       (fun m -> m = Lock_manager.Exclusive)
       (Lock_manager.holds lm ~txn:1 ~resource:7));
  (* No downgrade: re-acquiring shared keeps exclusive. *)
  check Alcotest.bool "shared re-acquire" true
    (Lock_manager.try_acquire lm ~txn:1 ~resource:7 Lock_manager.Shared);
  check (Alcotest.option Alcotest.bool) "still exclusive" (Some true)
    (Option.map
       (fun m -> m = Lock_manager.Exclusive)
       (Lock_manager.holds lm ~txn:1 ~resource:7))

let test_upgrade_blocked_by_other_reader () =
  let lm = Lock_manager.create ~timeout_ms:30.0 () in
  Lock_manager.acquire lm ~txn:1 ~resource:7 Lock_manager.Shared;
  Lock_manager.acquire lm ~txn:2 ~resource:7 Lock_manager.Shared;
  check Alcotest.bool "upgrade with peer blocked" false
    (Lock_manager.try_acquire lm ~txn:1 ~resource:7 Lock_manager.Exclusive)

let test_timeout () =
  let lm = Lock_manager.create ~timeout_ms:30.0 () in
  Lock_manager.acquire lm ~txn:1 ~resource:3 Lock_manager.Exclusive;
  match Lock_manager.acquire lm ~txn:2 ~resource:3 Lock_manager.Shared with
  | () -> Alcotest.fail "expected timeout"
  | exception Lock_manager.Timeout { txn = 2; resource = 3 } -> ()
  | exception e -> raise e

let test_locked_resources () =
  let lm = Lock_manager.create () in
  Lock_manager.acquire lm ~txn:1 ~resource:1 Lock_manager.Shared;
  Lock_manager.acquire lm ~txn:1 ~resource:2 Lock_manager.Exclusive;
  check (Alcotest.list Alcotest.int) "both listed" [ 1; 2 ]
    (List.sort compare (Lock_manager.locked_resources lm ~txn:1));
  Lock_manager.release_all lm ~txn:1;
  check (Alcotest.list Alcotest.int) "none" []
    (Lock_manager.locked_resources lm ~txn:1)

let test_deadlock_broken_by_timeout () =
  (* Classic deadlock: two threads take A and B in opposite orders.  The
     timeout must break the cycle — at least one thread finishes its
     work, the other sees Timeout, releases and retries successfully. *)
  let lm = Lock_manager.create ~timeout_ms:50.0 () in
  let completed = ref 0 and timeouts = ref 0 in
  let m = Mutex.create () in
  let bump r =
    Mutex.lock m;
    incr r;
    Mutex.unlock m
  in
  let worker txn first second =
    Thread.create
      (fun () ->
        let rec attempt tries =
          if tries > 10 then failwith "livelock"
          else begin
            match
              Lock_manager.acquire lm ~txn ~resource:first
                Lock_manager.Exclusive;
              Thread.delay 0.01 (* widen the window for the deadlock *);
              Lock_manager.acquire lm ~txn ~resource:second
                Lock_manager.Exclusive
            with
            | () ->
              bump completed;
              Lock_manager.release_all lm ~txn
            | exception Lock_manager.Timeout _ ->
              bump timeouts;
              Lock_manager.release_all lm ~txn;
              (* Staggered backoff so simultaneous victims don't re-deadlock
                 in lockstep. *)
              Thread.delay (0.005 *. float_of_int (txn * (tries + 1)));
              attempt (tries + 1)
          end
        in
        attempt 0)
      ()
  in
  let t1 = worker 1 100 200 in
  let t2 = worker 2 200 100 in
  Thread.join t1;
  Thread.join t2;
  check Alcotest.int "both eventually complete" 2 !completed;
  if !timeouts = 0 then
    (* Occasionally the schedule avoids the deadlock entirely; that is
       fine — the invariant is completion, timeouts are the mechanism. *)
    ()

let test_threads_mutual_exclusion () =
  (* N threads increment a shared counter under an exclusive lock; the
     final count proves no lost updates. *)
  let lm = Lock_manager.create ~timeout_ms:5000.0 () in
  let counter = ref 0 in
  let worker txn =
    Thread.create
      (fun () ->
        for _ = 1 to 200 do
          Lock_manager.acquire lm ~txn ~resource:99 Lock_manager.Exclusive;
          let v = !counter in
          (* A tiny window that would lose updates without the lock. *)
          if v mod 7 = 0 then Thread.yield ();
          counter := v + 1;
          Lock_manager.release_all lm ~txn
        done)
      ()
  in
  let threads = List.init 4 (fun i -> worker (i + 1)) in
  List.iter Thread.join threads;
  check Alcotest.int "no lost updates" 800 !counter

(* --- OCC --- *)

let test_occ_no_conflict () =
  let v = Occ.create () in
  let t1 = Occ.begin_txn v in
  Occ.note_read t1 1;
  Occ.note_write t1 2;
  check Alcotest.bool "t1 commits" true (Occ.commit t1);
  check Alcotest.int "committed count" 1 (Occ.committed_count v)

let test_occ_conflict_aborts () =
  let v = Occ.create () in
  let t1 = Occ.begin_txn v in
  let t2 = Occ.begin_txn v in
  Occ.note_read t1 10;
  Occ.note_write t1 10;
  Occ.note_read t2 10;
  Occ.note_write t2 10;
  check Alcotest.bool "first committer wins" true (Occ.commit t1);
  check Alcotest.bool "second fails validation" false (Occ.commit t2);
  check Alcotest.int "aborted count" 1 (Occ.aborted_count v)

let test_occ_disjoint_writes_both_commit () =
  (* The paper's cooperative scenario: two users updating different nodes
     of the same structure must both succeed. *)
  let v = Occ.create () in
  let t1 = Occ.begin_txn v in
  let t2 = Occ.begin_txn v in
  Occ.note_write t1 100;
  Occ.note_write t2 200;
  check Alcotest.bool "t1" true (Occ.commit t1);
  check Alcotest.bool "t2" true (Occ.commit t2)

let test_occ_read_only_sees_no_conflict () =
  let v = Occ.create () in
  let w = Occ.begin_txn v in
  Occ.note_write w 5;
  let r = Occ.begin_txn v in
  Occ.note_read r 6 (* reads something the writer does not touch *);
  check Alcotest.bool "writer commits" true (Occ.commit w);
  check Alcotest.bool "reader commits" true (Occ.commit r)

let test_occ_write_read_conflict () =
  let v = Occ.create () in
  let w = Occ.begin_txn v in
  Occ.note_write w 5;
  let r = Occ.begin_txn v in
  Occ.note_read r 5;
  check Alcotest.bool "writer commits" true (Occ.commit w);
  check Alcotest.bool "stale reader aborts" false (Occ.commit r)

let test_occ_finished_txn_rejected () =
  let v = Occ.create () in
  let t1 = Occ.begin_txn v in
  ignore (Occ.commit t1 : bool);
  Alcotest.check_raises "commit twice"
    (Invalid_argument "Occ: transaction already finished") (fun () ->
      ignore (Occ.commit t1 : bool))

(* --- Version store --- *)

let test_versions_basic () =
  let vs = Version_store.create () in
  check (Alcotest.option Alcotest.string) "empty" None
    (Version_store.latest vs ~key:1);
  let t1 = Version_store.put vs ~key:1 "v1" in
  let t2 = Version_store.put vs ~key:1 "v2" in
  let _t3 = Version_store.put vs ~key:1 "v3" in
  check (Alcotest.option Alcotest.string) "latest" (Some "v3")
    (Version_store.latest vs ~key:1);
  check (Alcotest.option Alcotest.string) "previous" (Some "v2")
    (Version_store.previous vs ~key:1);
  check (Alcotest.option Alcotest.string) "as_of t1" (Some "v1")
    (Version_store.as_of vs ~key:1 ~time:t1);
  check (Alcotest.option Alcotest.string) "as_of t2" (Some "v2")
    (Version_store.as_of vs ~key:1 ~time:t2);
  check (Alcotest.option Alcotest.string) "as_of before t1" None
    (Version_store.as_of vs ~key:1 ~time:(t1 - 1));
  check Alcotest.int "3 versions" 3 (Version_store.version_count vs ~key:1)

let test_versions_snapshot_across_keys () =
  (* Reconstruct a node structure as it was at a time-point (R5). *)
  let vs = Version_store.create () in
  ignore (Version_store.put vs ~key:1 "a1");
  ignore (Version_store.put vs ~key:2 "b1");
  let snapshot_time = Version_store.now vs in
  ignore (Version_store.put vs ~key:1 "a2");
  ignore (Version_store.put vs ~key:2 "b2");
  check (Alcotest.option Alcotest.string) "key 1 at snapshot" (Some "a1")
    (Version_store.as_of vs ~key:1 ~time:snapshot_time);
  check (Alcotest.option Alcotest.string) "key 2 at snapshot" (Some "b1")
    (Version_store.as_of vs ~key:2 ~time:snapshot_time)

let test_variants () =
  let vs = Version_store.create () in
  ignore (Version_store.put vs ~key:1 "main1");
  ignore (Version_store.put_variant vs ~key:1 ~variant:"draft" "draft1");
  ignore (Version_store.put_variant vs ~key:1 ~variant:"review" "review1");
  ignore (Version_store.put_variant vs ~key:1 ~variant:"draft" "draft2");
  check
    (Alcotest.list Alcotest.string)
    "variant names" [ "draft"; "review" ]
    (Version_store.variants vs ~key:1);
  check (Alcotest.option Alcotest.string) "draft head" (Some "draft2")
    (Version_store.latest_variant vs ~key:1 ~variant:"draft");
  check (Alcotest.option Alcotest.string) "main untouched" (Some "main1")
    (Version_store.latest vs ~key:1)

(* --- Workspaces --- *)

let test_workspace_isolation () =
  let shared = Workspace.create_shared () in
  let w1 = Workspace.checkout shared in
  let w2 = Workspace.checkout shared in
  Workspace.put w1 1 "w1-private";
  check (Alcotest.option Alcotest.string) "w1 sees own write"
    (Some "w1-private") (Workspace.get w1 1);
  check (Alcotest.option Alcotest.string) "w2 does not" None
    (Workspace.get w2 1);
  check (Alcotest.option Alcotest.string) "shared empty" None
    (Workspace.shared_get shared 1)

let test_workspace_publish () =
  let shared = Workspace.create_shared () in
  let w1 = Workspace.checkout shared in
  let w2 = Workspace.checkout shared in
  Workspace.put w1 1 "one";
  Workspace.put w1 2 "two";
  (match Workspace.publish w1 with
  | Workspace.Published 2 -> ()
  | Workspace.Published n -> Alcotest.failf "published %d" n
  | Workspace.Conflicts _ -> Alcotest.fail "unexpected conflict");
  check (Alcotest.option Alcotest.string) "w2 sees published" (Some "one")
    (Workspace.get w2 1);
  check (Alcotest.list Alcotest.int) "shared keys" [ 1; 2 ]
    (Workspace.shared_keys shared)

let test_workspace_disjoint_publishes () =
  (* Paper R9: two users update different nodes in the same structure. *)
  let shared = Workspace.create_shared () in
  let w1 = Workspace.checkout shared in
  let w2 = Workspace.checkout shared in
  Workspace.put w1 1 "user1";
  Workspace.put w2 2 "user2";
  (match Workspace.publish w1 with
  | Workspace.Published _ -> ()
  | Workspace.Conflicts _ -> Alcotest.fail "w1 conflicted");
  (match Workspace.publish w2 with
  | Workspace.Published _ -> ()
  | Workspace.Conflicts _ -> Alcotest.fail "disjoint publish conflicted");
  check (Alcotest.option Alcotest.string) "both merged" (Some "user1")
    (Workspace.shared_get shared 1);
  check (Alcotest.option Alcotest.string) "both merged 2" (Some "user2")
    (Workspace.shared_get shared 2)

let test_workspace_conflict_and_refresh () =
  let shared = Workspace.create_shared () in
  let w1 = Workspace.checkout shared in
  let w2 = Workspace.checkout shared in
  Workspace.put w1 1 "first";
  Workspace.put w2 1 "second";
  (match Workspace.publish w1 with
  | Workspace.Published _ -> ()
  | Workspace.Conflicts _ -> Alcotest.fail "w1 conflicted");
  (match Workspace.publish w2 with
  | Workspace.Conflicts [ 1 ] -> ()
  | Workspace.Conflicts ks ->
    Alcotest.failf "wrong conflict set (%d keys)" (List.length ks)
  | Workspace.Published _ -> Alcotest.fail "conflict not detected");
  (* Nothing was merged on conflict. *)
  check (Alcotest.option Alcotest.string) "shared keeps first" (Some "first")
    (Workspace.shared_get shared 1);
  (* Refresh re-baselines; publish then succeeds (w2's intent wins). *)
  Workspace.refresh w2;
  (match Workspace.publish w2 with
  | Workspace.Published 1 -> ()
  | Workspace.Published n -> Alcotest.failf "published %d" n
  | Workspace.Conflicts _ -> Alcotest.fail "refresh did not clear conflict");
  check (Alcotest.option Alcotest.string) "second wins after refresh"
    (Some "second")
    (Workspace.shared_get shared 1)

(* --- multiuser invariants over real backends ---

   Multiuser.Make drives concurrent closure1NAttSet transactions through
   a real backend; these pin its accounting exactly:
   - every attempt resolves: committed + aborted = attempted;
   - each logical transaction gets at most one retry, so the permanently
     failed count is (aborted - retried_ok) / 2 and the identity
     committed + (aborted - retried_ok) / 2 = logical transactions holds;
   - disjoint workloads converge completely (no aborts at all);
   - the database is structurally intact afterwards.  The transaction
     body complements hundred (h := 99 - h), which maps the generated
     1..100 onto -1..98, so odd numbers of commits leave some nodes out
     of the attribute range; complementing those back restores a state
     Verify accepts in full. *)

module Multiuser_invariants (B : Hyper_core.Backend.S) = struct
  module MU = Hyper_core.Multiuser.Make (B)
  module G = Hyper_core.Generator.Make (B)
  module V = Hyper_core.Verify.Make (B)

  let accounting_ok ~users ~txns_per_user (r : Hyper_core.Multiuser.result) =
    check Alcotest.int "committed + aborted = attempted" r.txns_attempted
      (r.committed + r.aborted);
    check Alcotest.bool "retried_ok bounded by aborts" true
      (r.retried_ok <= r.aborted);
    check Alcotest.int "abort parity (one retry each)" 0
      ((r.aborted - r.retried_ok) mod 2);
    let permanently_failed = (r.aborted - r.retried_ok) / 2 in
    check Alcotest.int "every logical txn accounted for"
      (users * txns_per_user)
      (r.committed + permanently_failed)

  let normalize_hundred b layout =
    B.begin_txn b;
    Hyper_core.Layout.iter_oids layout (fun oid ->
        let h = B.hundred b oid in
        if h < 1 then B.set_hundred b oid (99 - h));
    B.commit b

  let run_all b layout =
    List.iter
      (fun mode ->
        (* Fully disjoint: everyone works a private subtree, so both
           schemes must commit everything first try. *)
        let r =
          MU.run b layout ~mode ~users:3 ~txns_per_user:10 ~hot_fraction:0.0
            ~seed:11L
        in
        accounting_ok ~users:3 ~txns_per_user:10 r;
        check Alcotest.int
          (Hyper_core.Multiuser.mode_to_string mode ^ " disjoint aborts")
          0 r.aborted;
        check Alcotest.int
          (Hyper_core.Multiuser.mode_to_string mode ^ " disjoint commits")
          30 r.committed;
        (* Contended: half the transactions hit one hot subtree.  Aborts
           are allowed; the accounting identity and forward progress are
           not negotiable. *)
        let r =
          MU.run b layout ~mode ~users:3 ~txns_per_user:10 ~hot_fraction:0.5
            ~seed:13L
        in
        accounting_ok ~users:3 ~txns_per_user:10 r;
        check Alcotest.bool
          (Hyper_core.Multiuser.mode_to_string mode ^ " makes progress")
          true (r.committed > 0))
      [
        Hyper_core.Multiuser.Two_phase_locking;
        Hyper_core.Multiuser.Optimistic;
        Hyper_core.Multiuser.Mvcc;
      ];
    normalize_hundred b layout;
    let fails = Hyper_core.Verify.failures (V.run b layout) in
    match fails with
    | [] -> ()
    | c :: _ ->
      Alcotest.failf "verify failed after multiuser run: %s — %s"
        c.Hyper_core.Verify.name c.Hyper_core.Verify.detail
end

let test_multiuser_memdb () =
  let module B = Hyper_memdb.Memdb in
  let module I = Multiuser_invariants (B) in
  let b = B.create () in
  let layout, _ = I.G.generate b ~doc:1 ~leaf_level:3 ~seed:21L in
  I.run_all b layout

let test_multiuser_diskdb () =
  let module B = Hyper_diskdb.Diskdb in
  let module I = Multiuser_invariants (B) in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_txn_mu_%d.db" (Unix.getpid ()))
  in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (Hyper_storage.Engine.files path)
  in
  cleanup ();
  let b = B.open_db (B.default_config ~path) in
  Fun.protect
    ~finally:(fun () ->
      (try B.close b with _ -> ());
      cleanup ())
    (fun () ->
      let layout, _ = I.G.generate b ~doc:1 ~leaf_level:3 ~seed:21L in
      I.run_all b layout)

let () =
  Alcotest.run "hyper_txn"
    [
      ( "lock_manager",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive excludes" `Quick test_exclusive_excludes;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "upgrade blocked by reader" `Quick
            test_upgrade_blocked_by_other_reader;
          Alcotest.test_case "timeout breaks deadlock" `Quick test_timeout;
          Alcotest.test_case "real deadlock resolved" `Quick
            test_deadlock_broken_by_timeout;
          Alcotest.test_case "locked resources" `Quick test_locked_resources;
          Alcotest.test_case "threaded mutual exclusion" `Quick
            test_threads_mutual_exclusion;
        ] );
      ( "occ",
        [
          Alcotest.test_case "no conflict" `Quick test_occ_no_conflict;
          Alcotest.test_case "write-write conflict" `Quick test_occ_conflict_aborts;
          Alcotest.test_case "disjoint writes commit" `Quick
            test_occ_disjoint_writes_both_commit;
          Alcotest.test_case "independent reader ok" `Quick
            test_occ_read_only_sees_no_conflict;
          Alcotest.test_case "stale reader aborts" `Quick
            test_occ_write_read_conflict;
          Alcotest.test_case "double finish rejected" `Quick
            test_occ_finished_txn_rejected;
        ] );
      ( "version_store",
        [
          Alcotest.test_case "chains" `Quick test_versions_basic;
          Alcotest.test_case "snapshot across keys" `Quick
            test_versions_snapshot_across_keys;
          Alcotest.test_case "variants" `Quick test_variants;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "isolation" `Quick test_workspace_isolation;
          Alcotest.test_case "publish" `Quick test_workspace_publish;
          Alcotest.test_case "disjoint publishes" `Quick
            test_workspace_disjoint_publishes;
          Alcotest.test_case "conflict + refresh" `Quick
            test_workspace_conflict_and_refresh;
        ] );
      ( "multiuser",
        [
          Alcotest.test_case "invariants on memdb" `Quick test_multiuser_memdb;
          Alcotest.test_case "invariants on diskdb" `Quick
            test_multiuser_diskdb;
        ] );
    ]

(* Alcotest.run returns only when every test passed; a lockdep report
   accumulated along the way still fails the binary. *)
let () =
  match Lockdep.reports () with
  | [] -> ()
  | rs ->
    List.iter (fun r -> prerr_endline (Lockdep.report_to_string r)) rs;
    exit 70
