module Prng = Hyper_util.Prng
module Sync = Hyper_util.Sync
module VS = Hyper_txn.Version_store
module Trace = Hyper_core.Trace
module Backend = Hyper_core.Backend

type violation = { v_kind : string; v_detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.v_kind v.v_detail

let violation v_kind fmt =
  Printf.ksprintf (fun v_detail -> { v_kind; v_detail }) fmt

(* --- store_check: concurrent snapshots vs writers over one store --- *)

(* Values encode their provenance so a misdirected read names the
   writer that produced it.  Key [k]'s initial image is [-k - 1]
   (distinct from every written value, which is non-negative). *)
let encode ~writer ~iter = (writer * 1_000_000) + iter

let store_check ~seed ~writers ~readers ~keys ~txns_per_writer =
  if writers < 1 || readers < 0 || keys < 1 || txns_per_writer < 1 then
    invalid_arg "Mvcc_check.store_check: bad shape";
  let vs = VS.create ~retain:2 ~gc_every:64 () in
  for k = 0 to keys - 1 do
    ignore (VS.put vs ~key:k (-k - 1) : int)
  done;
  let all_keys = List.init keys (fun k -> k) in
  let first_bad = ref None in
  let bad_mutex = Sync.Mutex.create ~rank:40 "check.mvcc.report" in
  let report v =
    Sync.Mutex.with_lock bad_mutex (fun () ->
        if !first_bad = None then first_bad := Some v)
  in
  let writers_done = ref 0 in
  let writer w =
    Thread.create
      (fun () ->
        let rng = Prng.create (Int64.add seed (Int64.of_int (w * 7919))) in
        for iter = 1 to txns_per_writer do
          let txn = VS.begin_rw vs in
          let nwrites = 1 + Prng.int rng 4 in
          for _ = 1 to nwrites do
            let k = Prng.int rng keys in
            (* Read through the transaction first: the read must be
               either our own pending write or a value as of our
               timestamp — never an unborn (future) value. *)
            (match VS.txn_get txn ~key:k with
            | None -> report (violation "missing-key" "key %d has no version" k)
            | Some _ -> ());
            VS.txn_put txn ~key:k (encode ~writer:w ~iter)
          done;
          Thread.yield ();
          (match VS.commit txn with
          | VS.Committed _ | VS.Conflict _ -> ());
          (* Force pruning races with the pinned snapshots. *)
          if iter mod 32 = 0 then ignore (VS.gc vs : int)
        done;
        Sync.Mutex.with_lock bad_mutex (fun () -> incr writers_done))
      ()
  in
  let all_writers_done () =
    Sync.Mutex.with_lock bad_mutex (fun () -> !writers_done = writers)
  in
  let reader r =
    Thread.create
      (fun () ->
        (* Keep sweeping until every writer has finished, so snapshots
           race both commits and GC for the whole run. *)
        while not (all_writers_done ()) do
          let snap = VS.begin_snapshot vs in
          let ts = VS.snapshot_ts snap in
          let sweep () =
            List.map (fun k -> (k, VS.snapshot_get snap ~key:k)) all_keys
          in
          let first = sweep () in
          Thread.yield ();
          let second = sweep () in
          if first <> second then
            report
              (violation "torn-snapshot"
                 "reader %d: two sweeps of the snapshot at ts %d disagree" r ts);
          (* Validate against history while the pin still protects every
             version at or below [ts] from GC. *)
          List.iter
            (fun (k, got) ->
              let expect =
                let rec find = function
                  | [] -> None
                  | (vts, v) :: rest -> if vts <= ts then Some v else find rest
                in
                find (VS.history vs ~key:k)
              in
              if got <> expect then
                report
                  (violation "stale-read"
                     "reader %d: key %d at ts %d read %s, history says %s" r k
                     ts
                     (match got with
                     | None -> "nothing"
                     | Some v -> string_of_int v)
                     (match expect with
                     | None -> "nothing"
                     | Some v -> string_of_int v)))
            first;
          VS.release snap
        done)
      ()
  in
  let wt = List.init writers (fun w -> writer (w + 1)) in
  let rt = List.init readers (fun r -> reader (r + 1)) in
  List.iter Thread.join wt;
  List.iter Thread.join rt;
  (* Quiescent sanity: with no snapshot pinned, a GC must bound every
     chain by the retain floor. *)
  ignore (VS.gc vs : int);
  List.iter
    (fun k ->
      let n = VS.version_count vs ~key:k in
      if n > 2 then
        report (violation "gc-leak" "key %d kept %d versions past GC" k n))
    all_keys;
  !first_bad

(* --- backend_check: memdb snapshot views vs an oracle replay --- *)

let backend_check ~gen_seed ~level ~snap_every ops =
  let live = (Differential.oracle ~gen_seed ~level).fresh () in
  let in_txn = ref false in
  let applied = ref [] in
  let since_snap = ref 0 in
  let views = ref [] in
  (* views: (position, cloned instance, applied prefix newest-first) *)
  List.iter
    (fun op ->
      (match (op, live.apply op) with
      | Trace.Begin, Trace.Done _ -> in_txn := true
      | (Trace.Commit | Trace.Abort), _ -> in_txn := false
      | _ -> ());
      applied := op :: !applied;
      incr since_snap;
      if (not !in_txn) && !since_snap >= snap_every then begin
        since_snap := 0;
        match Backend.instance_snapshot live.store with
        | None -> ()
        | Some view ->
          views := (List.length !applied, view, !applied) :: !views
      end)
    ops;
  (* Every view is probed only now, after the rest of the trace mutated
     the live database: agreement with the prefix oracle proves the
     clone was both consistent and detached.  Views are cloned outside
     transactions, so a view holds exactly its prefix's commits. *)
  List.find_map
    (fun (pos, view, rev_prefix) ->
      let prefix = List.rev rev_prefix in
      let commits = List.length (List.filter (( = ) Trace.Commit) prefix) in
      match
        Differential.verdict ~gen_seed ~level ~backend:"memdb-snapshot" prefix
          view [ commits ]
      with
      | _, None -> None
      | _, Some d ->
        Some
          (violation "leaky-snapshot"
             "view cloned after op %d diverges from its prefix oracle: %s" pos
             (Format.asprintf "%a" Differential.pp_divergence d)))
    (List.rev !views)
