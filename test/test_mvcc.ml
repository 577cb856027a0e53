(* The MVCC layer: version chains and the R5 history operations,
   snapshot isolation, first-committer-wins validation, and GC
   watermark semantics.  The whole binary runs with the lockdep
   detector live (like test_txn), so a rank inversion anywhere in the
   version store or the multiuser harness fails the run. *)

module VS = Hyper_txn.Version_store
module Obs = Hyper_obs.Obs
module Lockdep = Hyper_util.Sync.Lockdep

let () = Lockdep.enable ()

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- chains and R5 round-trips --- *)

let test_chain_ordering () =
  let vs = VS.create () in
  let t1 = VS.put vs ~key:1 "a" in
  let t2 = VS.put vs ~key:1 "b" in
  let t3 = VS.put vs ~key:1 "c" in
  check Alcotest.bool "clock strictly advances" true (t1 < t2 && t2 < t3);
  check
    Alcotest.(list (pair int string))
    "history newest first"
    [ (t3, "c"); (t2, "b"); (t1, "a") ]
    (VS.history vs ~key:1);
  check Alcotest.(option string) "latest" (Some "c") (VS.latest vs ~key:1);
  check Alcotest.(option string) "previous" (Some "b") (VS.previous vs ~key:1);
  check Alcotest.int "version_count" 3 (VS.version_count vs ~key:1);
  check Alcotest.(option string) "missing latest" None (VS.latest vs ~key:9);
  check Alcotest.(option string) "missing previous" None (VS.previous vs ~key:9);
  check Alcotest.(list int) "keys" [ 1 ] (VS.keys vs)

let test_as_of_boundary () =
  let vs = VS.create () in
  let t1 = VS.put vs ~key:7 10 in
  let t2 = VS.put vs ~key:7 20 in
  (* The boundary is inclusive: a probe at exactly a version's
     timestamp sees that version. *)
  check Alcotest.(option int) "at t1" (Some 10) (VS.as_of vs ~key:7 ~time:t1);
  check Alcotest.(option int) "at t2" (Some 20) (VS.as_of vs ~key:7 ~time:t2);
  check
    Alcotest.(option int)
    "just below t2" (Some 10)
    (VS.as_of vs ~key:7 ~time:(t2 - 1));
  check
    Alcotest.(option int)
    "before first" None
    (VS.as_of vs ~key:7 ~time:(t1 - 1))

let test_variant_roundtrip () =
  let vs = VS.create () in
  ignore (VS.put vs ~key:3 "trunk" : int);
  ignore (VS.put_variant vs ~key:3 ~variant:"exp" "e1" : int);
  ignore (VS.put_variant vs ~key:3 ~variant:"exp" "e2" : int);
  ignore (VS.put_variant vs ~key:3 ~variant:"alt" "a1" : int);
  check Alcotest.(list string) "variants sorted" [ "alt"; "exp" ]
    (VS.variants vs ~key:3);
  check
    Alcotest.(option string)
    "latest on branch" (Some "e2")
    (VS.latest_variant vs ~key:3 ~variant:"exp");
  check
    Alcotest.(option string)
    "other branch" (Some "a1")
    (VS.latest_variant vs ~key:3 ~variant:"alt");
  check
    Alcotest.(option string)
    "trunk unaffected" (Some "trunk") (VS.latest vs ~key:3);
  check Alcotest.(list string) "no variants elsewhere" [] (VS.variants vs ~key:4)

(* Model test: [as_of] must agree with a replay of the put log — for
   every key and probe time, the answer is the newest put whose
   returned timestamp is <= the probe.  GC is off so the full log
   stays resolvable. *)
let test_as_of_model =
  QCheck.Test.make ~name:"as_of agrees with put-log replay" ~count:200
    QCheck.(small_list (pair (int_range 0 4) small_int))
    (fun puts ->
      let vs = VS.create ~gc_every:0 () in
      let log = List.map (fun (k, v) -> (VS.put vs ~key:k v, k, v)) puts in
      let expect key time =
        List.fold_left
          (fun acc (ts, k, v) -> if k = key && ts <= time then Some v else acc)
          None log
      in
      let ok = ref true in
      for time = 0 to VS.now vs + 1 do
        for key = 0 to 4 do
          if VS.as_of vs ~key ~time <> expect key time then ok := false
        done
      done;
      !ok)

(* --- snapshot isolation --- *)

let test_snapshot_isolation () =
  let vs = VS.create () in
  ignore (VS.put vs ~key:1 100 : int);
  ignore (VS.put vs ~key:2 200 : int);
  let snap = VS.begin_snapshot vs in
  check Alcotest.int "one active pin" 1 (VS.active_snapshots vs);
  (* Commits land after the snapshot began: a direct put and a full
     read-write transaction. *)
  ignore (VS.put vs ~key:1 111 : int);
  let txn = VS.begin_rw vs in
  VS.txn_put txn ~key:2 222;
  (match VS.commit txn with
  | VS.Committed _ -> ()
  | VS.Conflict _ -> Alcotest.fail "unexpected conflict");
  check
    Alcotest.(option int)
    "snapshot keeps key 1 pre-image" (Some 100)
    (VS.snapshot_get snap ~key:1);
  check
    Alcotest.(option int)
    "snapshot keeps key 2 pre-image" (Some 200)
    (VS.snapshot_get snap ~key:2);
  check Alcotest.(option int) "live sees put" (Some 111) (VS.latest vs ~key:1);
  check Alcotest.(option int) "live sees commit" (Some 222) (VS.latest vs ~key:2);
  ignore (VS.put vs ~key:3 300 : int);
  check
    Alcotest.(option int)
    "key born after the snapshot is invisible" None
    (VS.snapshot_get snap ~key:3);
  VS.release snap;
  check Alcotest.int "pin dropped" 0 (VS.active_snapshots vs);
  check Alcotest.bool "reads after release rejected" true
    (match VS.snapshot_get snap ~key:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Idempotent. *)
  VS.release snap

let test_first_committer_wins () =
  let vs = VS.create () in
  ignore (VS.put vs ~key:1 0 : int);
  ignore (VS.put vs ~key:2 0 : int);
  let a = VS.begin_rw vs in
  let b = VS.begin_rw vs in
  check Alcotest.(option int) "a reads committed" (Some 0) (VS.txn_get a ~key:1);
  VS.txn_put a ~key:1 10;
  check
    Alcotest.(option int)
    "own buffered write wins for a" (Some 10) (VS.txn_get a ~key:1);
  check
    Alcotest.(option int)
    "a's buffer invisible to b" (Some 0) (VS.txn_get b ~key:1);
  VS.txn_put b ~key:1 20;
  VS.txn_put b ~key:2 20;
  check Alcotest.(list int) "write set sorted" [ 1; 2 ] (VS.txn_write_set b);
  (match VS.commit a with
  | VS.Committed ts ->
    check Alcotest.(option int) "a installed" (Some 10) (VS.as_of vs ~key:1 ~time:ts)
  | VS.Conflict _ -> Alcotest.fail "first committer must win");
  (match VS.commit b with
  | VS.Committed _ -> Alcotest.fail "second committer must lose"
  | VS.Conflict keys ->
    check Alcotest.(list int) "only the overwritten key conflicts" [ 1 ] keys);
  check
    Alcotest.(option int)
    "loser installed nothing" (Some 0) (VS.latest vs ~key:2);
  check Alcotest.bool "finished txn rejected" true
    (match VS.commit b with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Disjoint writers both commit. *)
  let c = VS.begin_rw vs in
  let d = VS.begin_rw vs in
  VS.txn_put c ~key:1 30;
  VS.txn_put d ~key:2 40;
  let committed = function VS.Committed _ -> true | VS.Conflict _ -> false in
  check Alcotest.bool "disjoint c commits" true (committed (VS.commit c));
  check Alcotest.bool "disjoint d commits" true (committed (VS.commit d));
  (* An aborted transaction leaves no trace and unpins. *)
  let e = VS.begin_rw vs in
  VS.txn_put e ~key:1 99;
  VS.abort_rw e;
  check Alcotest.(option int) "abort discards" (Some 30) (VS.latest vs ~key:1);
  check Alcotest.int "no pins left" 0 (VS.active_snapshots vs)

(* --- GC watermark --- *)

let test_gc_watermark () =
  let vs = VS.create ~retain:1 ~gc_every:0 () in
  ignore (VS.put vs ~key:1 0 : int);
  let snap = VS.begin_snapshot vs in
  let pin_ts = VS.snapshot_ts snap in
  for i = 1 to 10 do
    ignore (VS.put vs ~key:1 i : int)
  done;
  check Alcotest.int "watermark is the oldest pin" pin_ts (VS.watermark vs);
  ignore (VS.gc vs : int);
  check
    Alcotest.(option int)
    "pinned read survives GC" (Some 0)
    (VS.snapshot_get snap ~key:1);
  check Alcotest.bool "chain keeps the pinned image plus the head" true
    (VS.version_count vs ~key:1 >= 2);
  VS.release snap;
  check Alcotest.int "watermark advances to now" (VS.now vs) (VS.watermark vs);
  let dropped = VS.gc vs in
  check Alcotest.bool "gc reclaims the unpinned history" true (dropped > 0);
  check Alcotest.int "chain pruned to the retain floor" 1
    (VS.version_count vs ~key:1);
  check Alcotest.(option int) "latest survives" (Some 10) (VS.latest vs ~key:1)

(* Regression for the unbounded-chain bug: with no live snapshot, the
   automatic GC cadence must bound every chain — sustained updates
   cannot accumulate more than the retain floor plus one GC period of
   installs. *)
let test_chains_stay_bounded () =
  let retain = 4 and gc_every = 64 in
  let vs = VS.create ~retain ~gc_every () in
  for i = 1 to 5_000 do
    ignore (VS.put vs ~key:(i mod 8) i : int)
  done;
  let bound = retain + gc_every in
  List.iter
    (fun key ->
      let n = VS.version_count vs ~key in
      if n > bound then
        Alcotest.failf "key %d kept %d versions (bound %d)" key n bound)
    (VS.keys vs);
  check Alcotest.bool "total versions bounded" true
    (VS.total_versions vs <= 8 * bound)

(* --- acceptance: a long snapshot reader holds zero locks --- *)

(* Writers commit throughout while snapshot readers sweep the whole
   structure.  Under [Mvcc] the read path never touches the lock
   manager, so [hyper_txn_lock_waits_total] stays exactly flat; the
   same shape under [Two_phase_locking] makes writers queue behind the
   sweeps' shared locks, which is the contrast the counter shows. *)
let test_reader_holds_zero_locks () =
  let module B = Hyper_memdb.Memdb in
  let module MU = Hyper_core.Multiuser.Make (B) in
  let module G = Hyper_core.Generator.Make (B) in
  let waits = Obs.Counter.make "hyper_txn_lock_waits_total" in
  let b = B.create () in
  let layout, _ = G.generate b ~doc:1 ~leaf_level:3 ~seed:31L in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let before = Obs.Counter.value waits in
      let r =
        MU.run ~readers:2 b layout ~mode:Hyper_core.Multiuser.Mvcc ~users:3
          ~txns_per_user:10 ~hot_fraction:0.5 ~seed:17L
      in
      check Alcotest.int "lock waits flat under MVCC readers" before
        (Obs.Counter.value waits);
      check Alcotest.bool "writers committed throughout" true (r.committed > 0);
      check Alcotest.bool "readers swept" true (r.reader_sweeps > 0);
      check Alcotest.int "snapshot sweeps never abort" 0 r.reader_aborts;
      let after_mvcc = Obs.Counter.value waits in
      let r2 =
        MU.run ~readers:2 b layout ~mode:Hyper_core.Multiuser.Two_phase_locking
          ~users:3 ~txns_per_user:10 ~hot_fraction:0.5 ~seed:17L
      in
      check Alcotest.bool "2PL writers do wait on the sweeps" true
        (Obs.Counter.value waits > after_mvcc);
      check Alcotest.bool "2PL still makes progress" true (r2.committed > 0))

(* --- differential fuzz, tiny tier-1 budget --- *)

let test_store_fuzz_smoke () =
  match
    Hyper_check.Mvcc_check.store_check ~seed:5L ~writers:3 ~readers:2 ~keys:16
      ~txns_per_writer:60
  with
  | None -> ()
  | Some v ->
    Alcotest.failf "store_check: %s"
      (Format.asprintf "%a" Hyper_check.Mvcc_check.pp_violation v)

let test_backend_fuzz_smoke () =
  match
    Hyper_check.Mvcc_check.backend_check ~gen_seed:42L ~level:3 ~snap_every:30
      (Hyper_check.Gen.trace ~seed:7L ~gen_seed:42L ~level:3 ~steps:120)
  with
  | None -> ()
  | Some v ->
    Alcotest.failf "backend_check: %s"
      (Format.asprintf "%a" Hyper_check.Mvcc_check.pp_violation v)

let () =
  Alcotest.run "hyper_mvcc"
    [
      ( "chains",
        [
          Alcotest.test_case "ordering + history" `Quick test_chain_ordering;
          Alcotest.test_case "as_of inclusive boundary" `Quick
            test_as_of_boundary;
          Alcotest.test_case "variants round-trip" `Quick test_variant_roundtrip;
          qtest test_as_of_model;
        ] );
      ( "snapshot_isolation",
        [
          Alcotest.test_case "snapshots are stable" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "first committer wins" `Quick
            test_first_committer_wins;
        ] );
      ( "gc",
        [
          Alcotest.test_case "watermark semantics" `Quick test_gc_watermark;
          Alcotest.test_case "chains stay bounded" `Quick
            test_chains_stay_bounded;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "reader holds zero locks" `Quick
            test_reader_holds_zero_locks;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "store smoke" `Quick test_store_fuzz_smoke;
          Alcotest.test_case "backend smoke" `Quick test_backend_fuzz_smoke;
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
