(* Replication and failover (ROADMAP item 2).

   Pinned here:
   - WAL torn-tail handling for streaming: a torn final record on a
     received log is truncated at reopen, never redone (the regression
     the replication design depends on);
   - frame codec round-trips and rejects garbling;
   - the ack-policy matrix survives the failover fuzz at several crash
     points and seeds (acked commits present on the promoted replica,
     survivor diffs clean against the oracle replay of its prefix);
   - promotion picks the max-LSN replica;
   - fencing: a deposed primary's late appends are rejected and it
     demotes itself to read-only;
   - quorum loss flips the primary into degraded read-only mode while
     reads keep working;
   - both catch-up paths (log replay and snapshot copy) fire, and a
     killed replica rejoins correctly through restart. *)

open Hyper_core
open Hyper_check
module Vfs = Hyper_storage.Vfs
module Wal = Hyper_storage.Wal
module Page = Hyper_storage.Page
module Storage_error = Hyper_storage.Storage_error
module D = Hyper_diskdb.Diskdb
module Link = Hyper_net.Channel.Link
module Repl = Hyper_repl.Repl
module Frame = Hyper_repl.Frame
module Replica = Hyper_repl.Repl.Replica
module Cluster = Hyper_repl.Repl.Cluster

(* The whole battery runs under the lockdep deadlock detector: any
   lock-order inversion across the replication threads is a failure
   even if every assertion passes (checked after the run). *)
module Lockdep = Hyper_util.Sync.Lockdep

let () = Lockdep.enable ()

let check = Alcotest.check
let gen_seed = 42L
let level = 3

(* --- satellite: torn final record is truncated at reopen --- *)

let test_torn_tail () =
  let env = Vfs.Faulty.create Vfs.Faulty.quiet in
  let vfs = Vfs.Faulty.vfs env in
  let wal = Wal.open_ ~vfs "/t/log" in
  let entries =
    [ Wal.Begin 1; Wal.After (1, 0, Bytes.make 16 'a'); Wal.Commit 1 ]
  in
  List.iter (Wal.append wal) entries;
  Wal.sync wal;
  Wal.close wal;
  (* Tear: append a prefix of a valid record — a crash mid-append. *)
  let torn = Wal.encode_entry (Wal.After (2, 1, Bytes.make 16 'b')) in
  let f = vfs.Vfs.open_rw "/t/log" in
  let clean_len = f.Vfs.size () in
  f.Vfs.pwrite ~buf:(Bytes.sub torn 0 (Bytes.length torn - 5)) ~off:clean_len;
  f.Vfs.sync ();
  f.Vfs.close ();
  let scan = Wal.scan ~vfs "/t/log" in
  check Alcotest.bool "scan sees the tear" true scan.Wal.torn;
  check Alcotest.int "clean prefix ends before the tear" clean_len
    scan.Wal.clean_bytes;
  check Alcotest.int "entries stop at the tear" 3
    (List.length scan.Wal.entries);
  (* Reopen must truncate the tear so appends extend the clean prefix. *)
  let wal = Wal.open_ ~vfs "/t/log" in
  Wal.append wal (Wal.Commit 9);
  Wal.sync wal;
  Wal.close wal;
  let reread = Wal.read_all ~vfs "/t/log" in
  check Alcotest.int "tear gone, append readable" 4 (List.length reread);
  check Alcotest.bool "appended entry is last" true
    (List.nth reread 3 = Wal.Commit 9)

(* A torn Append payload on the wire: the replica applies the clean
   prefix, asks for a resend, and never redoes the torn record. *)
let test_torn_frame_nak () =
  let r = Replica.create ~name:"torn" () in
  let whole =
    Bytes.concat Bytes.empty
      [ Wal.encode_entry (Wal.Begin 1);
        Wal.encode_entry (Wal.After (1, 0, Bytes.make Page.size 'x'));
        Wal.encode_entry (Wal.Commit 1) ]
  in
  let torn = Bytes.sub whole 0 (Bytes.length whole - 4) in
  (match
     Replica.handle r
       (Frame.Append { epoch = 1; base_lsn = 0; payload = torn })
   with
  | Some (Frame.Nak { epoch; lsn }) ->
    check Alcotest.int "nak carries the replica epoch" 1 epoch;
    check Alcotest.int "resend from after the clean records" 2 lsn
  | Some f -> Alcotest.failf "expected nak, got %s" (Frame.to_string f)
  | None -> Alcotest.fail "expected nak, got nothing");
  check Alcotest.int "commit was in the torn tail: nothing applied" 0
    (Replica.applied_commits r);
  (* The resend completes the transaction exactly once. *)
  (match
     Replica.handle r
       (Frame.Append { epoch = 1; base_lsn = 0; payload = whole })
   with
  | Some (Frame.Ack { epoch = _e; lsn }) ->
    check Alcotest.int "caught up" 3 lsn
  | Some f -> Alcotest.failf "expected ack, got %s" (Frame.to_string f)
  | None -> Alcotest.fail "expected ack, got nothing");
  check Alcotest.int "one commit applied" 1 (Replica.applied_commits r)

(* --- frame codec --- *)

let test_frame_codec () =
  let frames =
    [ Frame.Append { epoch = 3; base_lsn = 17; payload = Bytes.make 9 'p' };
      Frame.Heartbeat { epoch = 1; commit_lsn = 0 };
      Frame.Snapshot
        { epoch = 2; lsn = 5; commits = 4;
          files = [ ("data", Bytes.make 64 'd'); ("sum", Bytes.empty) ] };
      Frame.Ack { epoch = 7; lsn = 123 };
      Frame.Nak { epoch = 7; lsn = 9 };
      Frame.Fence { epoch = 12 } ]
  in
  List.iter
    (fun f ->
      match Frame.decode (Frame.encode f) with
      | Some g ->
        if f <> g then
          Alcotest.failf "codec not faithful: %s vs %s" (Frame.to_string f)
            (Frame.to_string g)
      | None -> Alcotest.failf "decode failed: %s" (Frame.to_string f))
    frames;
  let b = Frame.encode (Frame.Ack { epoch = 1; lsn = 2 }) in
  Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) lxor 0x40));
  check Alcotest.bool "garbled frame rejected" true (Frame.decode b = None);
  check Alcotest.bool "truncated frame rejected" true
    (Frame.decode (Bytes.sub b 0 5) = None)

(* --- shared scenario plumbing --- *)

let layout_of () = Layout.make ~doc:1 ~oid_base:0 ~leaf_level:level ()

let build_primary () =
  let env = Vfs.Faulty.create Vfs.Faulty.quiet in
  let vfs = Vfs.Faulty.vfs env in
  let db = D.open_db (Differential.crash_config vfs) in
  let module G = Generator.Make (D) in
  ignore (G.generate db ~doc:1 ~leaf_level:level ~seed:gen_seed);
  (env, vfs, db)

let cluster_of ?(cfg = Cluster.default_config) ~vfs ~db n =
  let replicas =
    List.init n (fun i -> Replica.create ~name:(Printf.sprintf "t%d" i) ())
  in
  Cluster.create ~cfg ~engine:(D.engine db) ~vfs ~path:"/fuzz/disk.db"
    ~replicas ()

let run_ops ~layout db ops =
  let inst = Backend.Instance ((module D : Backend.S with type t = D.t), db) in
  let acked = ref 0 in
  List.iter
    (fun op ->
      let out = Trace.apply ~layout inst op in
      if op = Trace.Commit && out = Trace.Done Trace.V_unit then incr acked)
    ops;
  !acked

let trace steps seed = Gen.trace ~seed ~gen_seed ~level ~steps

(* --- the ack-policy matrix, three seeds, three crash points each --- *)

let test_policy_matrix () =
  List.iter
    (fun (policy, seed) ->
      List.iter
        (fun crash_after ->
          let c =
            { Failover.fo_seed = seed; fo_gen_seed = gen_seed;
              fo_level = level; fo_steps = 50; fo_policy = policy;
              fo_replicas = 2; fo_crash_after = crash_after;
              fo_net_faults = true; fo_kill_at = None; fo_restart_at = None;
              fo_retain = 4096; fo_snapshot_lag = 1024 }
          in
          let r = Failover.failover_check c in
          if not (Failover.ok r) then
            Alcotest.failf "failover violation:@ %a" Failover.pp_report r)
        [ 0; 40; 400 ])
    [ (Repl.Async, 301L); (Repl.Sync_one, 302L); (Repl.Quorum, 303L);
      (Repl.Sync_one, 304L); (Repl.Quorum, 305L); (Repl.Async, 306L) ]

(* --- promotion picks the replica with the maximum LSN --- *)

let test_promotion_max_lsn () =
  let _env, vfs, db = build_primary () in
  let layout = layout_of () in
  let cluster = cluster_of ~vfs ~db 2 in
  let ops = trace 60 501L in
  let half = List.filteri (fun i _ -> i < 30) ops in
  let rest = List.filteri (fun i _ -> i >= 30) ops in
  ignore (run_ops ~layout db half);
  (* Partition replica 0: from here on only replica 1 advances. *)
  Link.set_down (Cluster.link_out cluster 0) true;
  Link.set_down (Cluster.link_in cluster 0) true;
  ignore (run_ops ~layout db rest);
  Cluster.heartbeat cluster;
  check Alcotest.bool "replica 1 is ahead" true
    (Replica.next_lsn (Cluster.replica cluster 1)
    > Replica.next_lsn (Cluster.replica cluster 0));
  let idx, survivor = Cluster.promote cluster in
  check Alcotest.int "max-LSN replica promoted" 1 idx;
  check Alcotest.int "survivor is fully caught up" (Cluster.lsn cluster)
    (Replica.next_lsn survivor);
  check Alcotest.int "survivor has every commit" (Cluster.commits cluster)
    (Replica.applied_commits survivor)

(* --- fencing: the deposed primary's late appends are rejected --- *)

let test_fencing () =
  let _env, vfs, db = build_primary () in
  let layout = layout_of () in
  let cluster = cluster_of ~vfs ~db 2 in
  let acked = run_ops ~layout db (trace 40 502L) in
  check Alcotest.bool "some commits acked" true (acked > 0);
  let idx, _survivor = Cluster.promote cluster in
  check Alcotest.bool "a replica was promoted" true (idx = 0 || idx = 1);
  check Alcotest.bool "not yet deposed" false (Cluster.deposed cluster);
  (* The old primary keeps running and tries to commit: the next ship
     meets a fenced replica, learns of the new epoch and demotes. *)
  let late = run_ops ~layout db (trace 40 503L) in
  check Alcotest.int "late commits rejected" 0 late;
  check Alcotest.bool "old primary deposed" true (Cluster.deposed cluster);
  check Alcotest.bool "old primary read-only" true (D.read_only db);
  check Alcotest.bool "epoch advanced on the live replica" true
    (Replica.epoch (Cluster.replica cluster (1 - idx)) > Cluster.epoch cluster)

(* --- quorum loss: primary degrades to read-only, reads keep working --- *)

let test_quorum_loss_degraded () =
  let _env, vfs, db = build_primary () in
  let layout = layout_of () in
  let cfg =
    { Cluster.default_config with
      Cluster.policy = Repl.Quorum;
      ack_retries = 2 }
  in
  let cluster = cluster_of ~cfg ~vfs ~db 2 in
  let acked = run_ops ~layout db (trace 30 504L) in
  check Alcotest.bool "healthy quorum commits" true (acked > 0);
  Cluster.kill_replica cluster 0;
  Cluster.kill_replica cluster 1;
  let acked = run_ops ~layout db (trace 30 505L) in
  check Alcotest.int "no commit without a quorum" 0 acked;
  check Alcotest.bool "cluster degraded" true (Cluster.degraded cluster);
  check Alcotest.bool "primary read-only" true (D.read_only db);
  (* Committed data must remain readable in degraded mode. *)
  let inst = Backend.Instance ((module D : Backend.S with type t = D.t), db) in
  match Trace.apply ~layout inst (Trace.Node_count 1) with
  | Trace.Done (Trace.V_int n) ->
    check Alcotest.bool "reads still served" true (n > 0)
  | out ->
    Alcotest.failf "degraded read failed: %s" (Trace.outcome_to_string out)

(* --- group commit composes with quorum acks --- *)

(* The group durability barrier sits before the ship-and-ack commit
   hook, so a quorum ack must still mean the transaction is applied on
   a quorum of replicas — batching fsyncs must not weaken the ack. *)
let test_group_commit_quorum_durable () =
  let _env, vfs, db = build_primary () in
  (match Hyper_storage.Engine.group_commit_stats (D.engine db) with
  | Some _ -> ()
  | None -> Alcotest.fail "primary must run with group commit enabled");
  let layout = layout_of () in
  let cfg = { Cluster.default_config with Cluster.policy = Repl.Quorum } in
  let cluster = cluster_of ~cfg ~vfs ~db 3 in
  let acked = run_ops ~layout db (trace 60 509L) in
  check Alcotest.bool "commits acked" true (acked > 0);
  (* Deliberately no heartbeat: whatever the replicas hold now, they
     held when the ack was returned. *)
  let applied =
    List.init 3 (fun i -> Replica.applied_commits (Cluster.replica cluster i))
  in
  let have = List.length (List.filter (fun a -> a >= acked) applied) in
  check Alcotest.bool "a majority holds every acked commit" true (have >= 2);
  let _idx, survivor = Cluster.promote cluster in
  check Alcotest.bool "survivor has every acked commit" true
    (Replica.applied_commits survivor >= acked)

(* The ticket/await split never runs the commit hook, so a replicated
   engine refuses it up front and leaves the transaction open; the
   plain commit still ships. *)
let test_ticket_refused_when_replicated () =
  let _env, vfs, db = build_primary () in
  let layout = layout_of () in
  let cfg = { Cluster.default_config with Cluster.policy = Repl.Sync_one } in
  let cluster = cluster_of ~cfg ~vfs ~db 1 in
  let engine = D.engine db in
  let inst = Backend.Instance ((module D : Backend.S with type t = D.t), db) in
  List.iter
    (fun op -> ignore (Trace.apply ~layout inst op))
    [ Trace.Begin; Trace.Set_hundred { oid = 1; value = 7 } ];
  let shipped () = Replica.applied_commits (Cluster.replica cluster 0) in
  let before = shipped () in
  (match Hyper_storage.Engine.commit_ticket engine with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "commit_ticket accepted a replicated engine");
  check Alcotest.bool "transaction still open" true
    (Hyper_storage.Engine.in_txn engine);
  check Alcotest.bool "commit acked" true
    (Trace.apply ~layout inst Trace.Commit = Trace.Done Trace.V_unit);
  check Alcotest.int "commit shipped" (before + 1) (shipped ())

(* --- sync-one: the laggard is demoted to async, commits continue --- *)

let test_sync_laggard_demoted () =
  let _env, vfs, db = build_primary () in
  let layout = layout_of () in
  let cfg =
    { Cluster.default_config with
      Cluster.policy = Repl.Sync_one;
      ack_retries = 2;
      demote_after = 2 }
  in
  let cluster = cluster_of ~cfg ~vfs ~db 2 in
  (* Partition replica 0 only: replica 1 keeps acking, so commits must
     not stall; the laggard accumulates strikes and goes async. *)
  Link.set_down (Cluster.link_out cluster 0) true;
  Link.set_down (Cluster.link_in cluster 0) true;
  let acked = run_ops ~layout db (trace 60 506L) in
  check Alcotest.bool "commits kept flowing" true (acked > 0);
  check Alcotest.bool "laggard demoted to async" false
    (Cluster.synced cluster 0);
  check Alcotest.bool "acking replica still sync" true
    (Cluster.synced cluster 1);
  check Alcotest.bool "no degradation" false (Cluster.degraded cluster);
  check Alcotest.bool "demotion counted" true
    ((Cluster.counters cluster).Cluster.demotions > 0)

(* --- catch-up: both paths, via a killed-and-rejoining replica --- *)

let test_catchup_replay () =
  let _env, vfs, db = build_primary () in
  let layout = layout_of () in
  let cluster = cluster_of ~vfs ~db 2 in
  ignore (run_ops ~layout db (trace 20 507L));
  Cluster.kill_replica cluster 0;
  ignore (run_ops ~layout db (trace 20 508L));
  (* Modest gap, retained tail still covers it: log replay. *)
  Cluster.restart_replica cluster 0;
  Cluster.heartbeat cluster;
  check Alcotest.bool "replay catch-up used" true
    ((Cluster.counters cluster).Cluster.replays > 0);
  check Alcotest.int "rejoined replica caught up" (Cluster.lsn cluster)
    (Replica.next_lsn (Cluster.replica cluster 0));
  check Alcotest.int "rejoined replica has every commit"
    (Cluster.commits cluster)
    (Replica.applied_commits (Cluster.replica cluster 0))

let test_catchup_snapshot () =
  let _env, vfs, db = build_primary () in
  let layout = layout_of () in
  let cfg =
    { Cluster.default_config with Cluster.retain_records = 8;
      snapshot_lag = 16 }
  in
  let cluster = cluster_of ~cfg ~vfs ~db 2 in
  ignore (run_ops ~layout db (trace 20 509L));
  Cluster.kill_replica cluster 0;
  ignore (run_ops ~layout db (trace 40 510L));
  (* The retained tail (8 records) long since evicted the gap. *)
  Cluster.restart_replica cluster 0;
  Cluster.heartbeat cluster;
  check Alcotest.bool "snapshot catch-up used" true
    ((Cluster.counters cluster).Cluster.snapshots > 0);
  check Alcotest.int "rejoined replica caught up" (Cluster.lsn cluster)
    (Replica.next_lsn (Cluster.replica cluster 0));
  (* After a snapshot the replica's base holds the commits; promote it
     and make sure the store opens clean. *)
  let _idx, survivor = Cluster.promote ~idx:0 cluster in
  let recovered =
    D.open_db
      { (Differential.crash_config (Replica.vfs survivor)) with
        D.path = Replica.path survivor }
  in
  check Alcotest.bool "promoted snapshot store opens" true
    (D.stored_result_count recovered >= 0);
  D.close recovered

(* --- failover fuzz exercises kill/restart and both catch-up paths --- *)

let test_failover_with_replica_crash () =
  List.iter
    (fun (seed, retain, snapshot_lag) ->
      let c =
        { Failover.fo_seed = seed; fo_gen_seed = gen_seed; fo_level = level;
          fo_steps = 60; fo_policy = Repl.Quorum; fo_replicas = 3;
          fo_crash_after = 300; fo_net_faults = true;
          fo_kill_at = Some (0, 15); fo_restart_at = Some 35;
          fo_retain = retain; fo_snapshot_lag = snapshot_lag }
      in
      let r = Failover.failover_check c in
      if not (Failover.ok r) then
        Alcotest.failf "failover violation:@ %a" Failover.pp_report r)
    [ (601L, 4096, 1024); (602L, 8, 16); (603L, 4096, 1024) ]

(* --- repro files round-trip --- *)

let test_repro_roundtrip () =
  let c =
    { Failover.fo_seed = 77L; fo_gen_seed = gen_seed; fo_level = level;
      fo_steps = 50; fo_policy = Repl.Quorum; fo_replicas = 3;
      fo_crash_after = 120; fo_net_faults = true; fo_kill_at = Some (1, 9);
      fo_restart_at = Some 30; fo_retain = 64; fo_snapshot_lag = 128 }
  in
  let path = Filename.temp_file "failover" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Failover.save_repro ~path c;
      let c' = Failover.load_repro ~path in
      if c <> c' then
        Alcotest.failf "repro not faithful:@ %a@ vs@ %a" Failover.pp_fcase c
          Failover.pp_fcase c')

let () =
  Alcotest.run "replication"
    [
      ( "wal-tail",
        [
          Alcotest.test_case "torn tail truncated at reopen" `Quick
            test_torn_tail;
          Alcotest.test_case "torn frame nakked, never redone" `Quick
            test_torn_frame_nak;
        ] );
      ("frame", [ Alcotest.test_case "codec" `Quick test_frame_codec ]);
      ( "failover",
        [
          Alcotest.test_case "ack-policy matrix x crash points" `Slow
            test_policy_matrix;
          Alcotest.test_case "promotion picks max lsn" `Quick
            test_promotion_max_lsn;
          Alcotest.test_case "fencing rejects deposed primary" `Quick
            test_fencing;
          Alcotest.test_case "replica crash mid-trace" `Slow
            test_failover_with_replica_crash;
          Alcotest.test_case "repro round-trip" `Quick test_repro_roundtrip;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "quorum ack implies replica-durable" `Quick
            test_group_commit_quorum_durable;
          Alcotest.test_case "ticket refused when replicated" `Quick
            test_ticket_refused_when_replicated;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "quorum loss goes read-only" `Quick
            test_quorum_loss_degraded;
          Alcotest.test_case "sync laggard demoted to async" `Quick
            test_sync_laggard_demoted;
        ] );
      ( "catch-up",
        [
          Alcotest.test_case "log replay" `Quick test_catchup_replay;
          Alcotest.test_case "snapshot copy" `Quick test_catchup_snapshot;
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
