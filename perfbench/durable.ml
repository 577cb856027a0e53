(* The durable-commit section of the traced run: Multiuser in MVCC mode
   with two writer threads and no readers on a level-5 diskdb with
   fsync at commit and group commit at its default configuration.
   Each writer flips the [hundred] values of its own level-3 subtree
   (31 nodes), so no transaction conflicts and the commit path carries
   the time.  It is not an end-to-end workload: its timings follow the
   host's fsync latency, which drifts between runs by more than any
   usable bound (see README.md). *)

open Hyper_core
open Common
module D = Hyper_diskdb.Diskdb
module E = Hyper_storage.Engine
module M = Multiuser.Make (D)
module Obs = Hyper_obs.Obs

let level = 5
let path = "d5.db"
let writers = 2

(* Odd, so a writer's subtree ends flipped after an odd number of
   rounds and as generated after an even number. *)
let txns_per_round = 51

let config =
  { (D.default_config ~path) with
    D.durable_sync = true;
    group_commit = Some Hyper_storage.Group_commit.default_config }

let setup ~seed () =
  let db, layout, _ = generate_store config ~level ~seed in
  (db, layout)

(* Latencies measured at Multiuser's commit seam: the ticket is taken
   inside the database mutex, the durability wait runs outside it. *)
type seam = {
  commit_ms : Stats.t;  (* entering the seam to await_durable's return *)
  ticket_us : Stats.t;
  await_ms : Stats.t;
  lock : Hyper_util.Sync.Mutex.t;
}

let new_seam () =
  { commit_ms = Stats.create (); ticket_us = Stats.create (); await_ms = Stats.create ();
    lock = Hyper_util.Sync.Mutex.create ~rank:40 "perfbench.durable.samples" }

let commit_seam s engine () =
  let t0 = Hyper_util.Mtime_stub.now_ns () in
  let ticket = E.commit_ticket engine in
  let t1 = Hyper_util.Mtime_stub.now_ns () in
  fun () ->
    E.await_durable engine ticket;
    let t2 = Hyper_util.Mtime_stub.now_ns () in
    let ns a b = Int64.to_float (Int64.sub b a) in
    Hyper_util.Sync.Mutex.with_lock s.lock (fun () ->
        Stats.add s.commit_ms (ns t0 t2 /. 1e6);
        Stats.add s.ticket_us (ns t0 t1 /. 1e3);
        Stats.add s.await_ms (ns t1 t2 /. 1e6))

type rounds = {
  mutable rounds : int;
  mutable attempted : int;
  mutable committed : int;
  mutable wall_ms : float;
}

let run_rounds db layout seam ~seed ~seconds =
  let r = { rounds = 0; attempted = 0; committed = 0; wall_ms = 0.0 } in
  let commit = commit_seam seam (D.engine db) in
  let t0 = now_s () in
  while r.rounds = 0 || now_s () -. t0 < seconds do
    let res =
      M.run ~commit db layout ~mode:Multiuser.Mvcc ~users:writers
        ~txns_per_user:txns_per_round ~hot_fraction:0.0 ~seed
    in
    if res.Multiuser.committed <> res.Multiuser.txns_attempted
       || res.Multiuser.aborted <> 0
    then
      fail "round %d committed %d of %d attempted (%d aborted)" r.rounds
        res.Multiuser.committed res.Multiuser.txns_attempted res.Multiuser.aborted;
    r.rounds <- r.rounds + 1;
    r.attempted <- r.attempted + res.Multiuser.txns_attempted;
    r.committed <- r.committed + res.Multiuser.committed;
    r.wall_ms <- r.wall_ms +. res.Multiuser.wall_ms
  done;
  r

(* After close and reopen, every level-3 subtree is wholly as generated
   (compared with a fresh in-memory generation from the same seed) or
   wholly flipped (h -> 99 - h); nodes above level 3 are untouched, and
   exactly the writers whose commit count is odd left a subtree
   flipped. *)
let verify ~seed layout (r : rounds) =
  let module Mem = Hyper_memdb.Memdb in
  let module GM = Generator.Make (Mem) in
  let reference = Mem.create () in
  ignore (GM.generate reference ~doc:1 ~leaf_level:level ~seed : Layout.t * Generator.timings);
  let db = D.open_db config in
  Fun.protect
    ~finally:(fun () -> D.close db)
    (fun () ->
      let state oid =
        let h = D.hundred db oid and g = Mem.hundred reference oid in
        if h = g then `Same else if h = 99 - g then `Flipped else `Other
      in
      let flipped = ref 0 in
      Layout.iter_oids layout (fun oid ->
          let l = Layout.level_of_oid layout oid in
          if l < 3 && state oid <> `Same then fail "node %d above level 3 changed" oid;
          if l = 3 then begin
            let rec subtree oid =
              oid :: List.concat_map subtree (Array.to_list (Layout.children_of layout oid))
            in
            let states = List.map state (subtree oid) in
            match states with
            | `Same :: rest when List.for_all (( = ) `Same) rest -> ()
            | `Flipped :: rest when List.for_all (( = ) `Flipped) rest -> incr flipped
            | _ -> fail "subtree of %d is neither as generated nor wholly flipped" oid
          end);
      let per_writer = r.committed / writers in
      let expect = if per_writer mod 2 = 1 then writers else 0 in
      if !flipped <> expect then
        fail "%d subtrees flipped; %d writers committed %d transactions each" !flipped
          writers per_writer)

let teardown (db, _) =
  D.close db;
  remove_store path

(* A bare 4 KiB write plus fsync in the run's directory: the device
   floor under a durable commit. *)
let device_fsync_ms () =
  let f = Hyper_storage.Vfs.real.Hyper_storage.Vfs.open_rw "fsync.probe" in
  let buf = Bytes.make 4096 'x' and s = Stats.create () in
  for _ = 1 to 50 do
    let t0 = now_s () in
    f.Hyper_storage.Vfs.pwrite ~buf ~off:0;
    f.Hyper_storage.Vfs.sync ();
    Stats.add s ((now_s () -. t0) *. 1e3)
  done;
  f.Hyper_storage.Vfs.close ();
  Hyper_storage.Vfs.real.Hyper_storage.Vfs.remove "fsync.probe";
  Stats.median s

let traced ~seed ~seconds =
  let sd = seeds seed 2 in
  let fsync_ms = device_fsync_ms () in
  Obs.enable ();
  Obs.reset ();
  let db, layout = setup ~seed:sd.(0) () in
  let engine = D.engine db in
  let seam = new_seam () in
  let measure () =
    let syncs0 = E.wal_sync_count engine and groups0 = E.group_commit_stats engine in
    let writes0 = (D.io_counters db).D.pager_writes in
    let r = run_rounds db layout seam ~seed:sd.(1) ~seconds in
    let group_size =
      match (E.group_commit_stats engine, groups0) with
      | Some (g, m), Some (g0, m0) -> ratio (float_of_int (m - m0)) (float_of_int (g - g0))
      | _ -> fail "group commit is off"
    in
    (r, E.wal_sync_count engine - syncs0, group_size,
     (D.io_counters db).D.pager_writes - writes0)
  in
  let r, syncs, group_size, pager_writes =
    match measure () with
    | x ->
      D.close db;
      x
    | exception ex ->
      teardown (db, layout);
      raise ex
  in
  Fun.protect
    ~finally:(fun () -> remove_store path)
    (fun () -> verify ~seed:sd.(0) layout r);
  Obs.disable ();
  let per_commit x = ratio (float_of_int x) (float_of_int r.committed) in
  let counter name = float_of_int (Obs.Counter.value (Obs.Counter.make name)) in
  { attempted = r.attempted;
    failed = r.attempted - r.committed;
    metrics =
      [ metric "core.multiuser.commit_tps" "1/s" (ratio (float_of_int r.committed) (r.wall_ms /. 1000.0));
        metric "core.multiuser.commit_p50_ms" "ms" (Stats.median seam.commit_ms);
        metric "core.multiuser.commit_p99_ms" "ms" (percentile seam.commit_ms 99.0);
        metric "storage.engine.commit_ticket_us" "us" (Stats.median seam.ticket_us);
        metric "storage.engine.await_durable_ms" "ms" (Stats.median seam.await_ms);
        metric "storage.wal.fsyncs_per_commit" "fsyncs/commit" (per_commit syncs);
        metric "storage.group_commit.mean_group_size" "commits" group_size;
        metric "storage.group_commit.wait_ms" "ms"
          (Obs.Histogram.quantile (Obs.Histogram.make "hyper_wal_group_wait_ns") 0.5 /. 1e6);
        metric "storage.pager.writes_per_commit" "writes/commit" (per_commit pager_writes);
        metric "device.fsync_ms" "ms" fsync_ms;
        metric "txn.version_store.commits" "count" (counter "hyper_mvcc_commits_total");
        metric "txn.version_store.conflicts" "count" (counter "hyper_mvcc_conflicts_total") ] }
