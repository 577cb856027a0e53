module Obs = Hyper_obs.Obs
module Vfs = Hyper_storage.Vfs
module Wal = Hyper_storage.Wal
module Pager = Hyper_storage.Pager
module Recovery = Hyper_storage.Recovery
module Engine = Hyper_storage.Engine
module Storage_error = Hyper_storage.Storage_error
module Link = Hyper_net.Channel.Link
module Vclock = Hyper_util.Vclock

let m_ships =
  Obs.Counter.make "hyper_repl_ship_frames_total"
    ~help:"append frames shipped to replicas"

let m_acks =
  Obs.Counter.make "hyper_repl_acks_total" ~help:"replica acks processed"

let m_naks =
  Obs.Counter.make "hyper_repl_naks_total"
    ~help:"replica resend requests processed"

let m_redo =
  Obs.Counter.make "hyper_repl_redo_records_total"
    ~help:"WAL records applied by replica continuous redo"

let m_snapshots =
  Obs.Counter.make "hyper_repl_snapshots_total"
    ~help:"snapshot-copy catch-ups shipped"

let m_replays =
  Obs.Counter.make "hyper_repl_replays_total"
    ~help:"log-replay catch-ups shipped"

let m_fenced =
  Obs.Counter.make "hyper_repl_fenced_total"
    ~help:"frames rejected because they carried a stale epoch"

let m_demotions =
  Obs.Counter.make "hyper_repl_demotions_total"
    ~help:"sync replicas demoted to async for lagging"

let m_failovers =
  Obs.Counter.make "hyper_repl_failovers_total" ~help:"promotions performed"

let g_lag =
  Obs.Gauge.make "hyper_repl_lag_records"
    ~help:"records the slowest live replica trails the primary by"

let h_ack_ns =
  Obs.Histogram.make "hyper_repl_ack_latency_ns"
    ~help:"virtual nanoseconds from commit to ack-policy satisfaction"

type policy = Async | Sync_one | Quorum

let policy_to_string = function
  | Async -> "async"
  | Sync_one -> "sync-one"
  | Quorum -> "quorum"

let policy_of_string = function
  | "async" -> Some Async
  | "sync-one" | "sync_one" | "sync1" -> Some Sync_one
  | "quorum" -> Some Quorum
  | _ -> None

(* ------------------------------------------------------------------ *)

module Replica = struct
  type t = {
    name : string;
    env : Vfs.Faulty.env;
    vfs : Vfs.t;
    path : string;
    mutable up : bool;
    mutable epoch : int;
    mutable base_lsn : int; (* LSN of the first record in the rlog *)
    mutable base_commits : int; (* commits already folded into the base *)
    mutable next_lsn : int; (* next record LSN expected *)
    mutable applied_commits : int;
    mutable pager : Pager.t;
    mutable rlog : Wal.t;
    (* the (single, serial) transaction currently being streamed *)
    mutable cur_txn : int option;
    mutable cur_writes : Wal.entry list; (* its After records, reversed *)
  }

  let rlog_path path = path ^ ".rlog"
  let meta_path path = path ^ ".replmeta"

  let persist_meta t =
    let f = t.vfs.Vfs.open_rw (meta_path t.path) in
    let s =
      Printf.sprintf "%d %d %d" t.epoch t.base_lsn t.base_commits
    in
    f.Vfs.truncate 0;
    f.Vfs.pwrite ~buf:(Bytes.of_string s) ~off:0;
    f.Vfs.sync ();
    f.Vfs.close ()

  let read_meta vfs path =
    if not (vfs.Vfs.exists (meta_path path)) then (0, 0, 0)
    else begin
      let f = vfs.Vfs.open_rw (meta_path path) in
      let len = f.Vfs.size () in
      let b = Bytes.create len in
      if len > 0 then f.Vfs.pread ~buf:b ~off:0;
      f.Vfs.close ();
      match
        String.split_on_char ' ' (String.trim (Bytes.to_string b))
      with
      | [ e; bl; bc ] -> (
        try (int_of_string e, int_of_string bl, int_of_string bc)
        with Failure _ -> (0, 0, 0))
      | _ -> (0, 0, 0)
    end

  let create ?(plan = Vfs.Faulty.quiet) ~name () =
    let env = Vfs.Faulty.create plan in
    let vfs = Vfs.Faulty.vfs env in
    let path = "/repl/" ^ name ^ ".db" in
    { name; env; vfs; path; up = true; epoch = 0; base_lsn = 0;
      base_commits = 0; next_lsn = 0; applied_commits = 0;
      pager = Pager.create ~vfs path;
      rlog = Wal.open_ ~vfs (rlog_path path);
      cur_txn = None; cur_writes = [] }

  let name t = t.name
  let env t = t.env
  let vfs t = t.vfs
  let path t = t.path
  let up t = t.up
  let epoch t = t.epoch
  let next_lsn t = t.next_lsn
  let applied_commits t = t.applied_commits

  (* Continuous redo: collect the streamed transaction's After records
     and patch them in, with crash recovery's log-order resolution,
     when (and only when) its commit record arrives.  The primary runs
     one write transaction at a time, so the stream never interleaves
     transactions. *)
  let redo_record t e =
    match e with
    | Wal.Begin id ->
      t.cur_txn <- Some id;
      t.cur_writes <- []
    | Wal.After (id, _, _) ->
      if t.cur_txn = Some id then t.cur_writes <- e :: t.cur_writes
    | Wal.Commit id ->
      if t.cur_txn = Some id then begin
        ignore
          (Recovery.apply_log (List.rev (e :: t.cur_writes)) t.pager
            : int * int);
        Obs.Counter.add m_redo (List.length t.cur_writes);
        t.cur_txn <- None;
        t.cur_writes <- [];
        t.applied_commits <- t.applied_commits + 1
      end
    | Wal.Before _ | Wal.Checkpoint -> ()

  let apply_record t e =
    Wal.append t.rlog e;
    redo_record t e

  let write_file vfs p data =
    if vfs.Vfs.exists p then vfs.Vfs.remove p;
    let f = vfs.Vfs.open_rw p in
    if Bytes.length data > 0 then f.Vfs.pwrite ~buf:data ~off:0;
    f.Vfs.sync ();
    f.Vfs.close ()

  let install_snapshot t ~epoch ~lsn ~commits ~files =
    Pager.close t.pager;
    Wal.close t.rlog;
    t.vfs.Vfs.remove t.path;
    if t.vfs.Vfs.exists (Pager.sum_path t.path) then
      t.vfs.Vfs.remove (Pager.sum_path t.path);
    t.vfs.Vfs.remove (rlog_path t.path);
    List.iter
      (fun (tag, data) ->
        match tag with
        | "data" -> write_file t.vfs t.path data
        | "sum" -> write_file t.vfs (Pager.sum_path t.path) data
        | _ -> ())
      files;
    t.pager <- Pager.create ~vfs:t.vfs t.path;
    t.rlog <- Wal.open_ ~vfs:t.vfs (rlog_path t.path);
    t.epoch <- epoch;
    t.base_lsn <- lsn;
    t.base_commits <- commits;
    t.next_lsn <- lsn;
    t.applied_commits <- commits;
    t.cur_txn <- None;
    t.cur_writes <- [];
    persist_meta t

  let fence t = Frame.Fence { epoch = t.epoch }

  let adopt_epoch t epoch =
    if epoch > t.epoch then begin
      t.epoch <- epoch;
      persist_meta t
    end

  (* The replica's whole protocol: one frame in, at most one frame out.
     Epoch first, always. *)
  let handle t frame =
    if not t.up then None
    else
      match frame with
      | Frame.Append { epoch; base_lsn; payload } ->
        if epoch < t.epoch then begin
          Obs.Counter.incr m_fenced;
          Some (fence t)
        end
        else begin
          adopt_epoch t epoch;
          if base_lsn > t.next_lsn then
            (* gap: something before this payload never arrived *)
            Some (Frame.Nak { epoch = t.epoch; lsn = t.next_lsn })
          else begin
            let entries, torn = Wal.decode_entries payload in
            let skip = t.next_lsn - base_lsn in
            let fresh = List.filteri (fun i _ -> i >= skip) entries in
            List.iter (apply_record t) fresh;
            t.next_lsn <- max t.next_lsn (base_lsn + List.length entries);
            (* Durability before acknowledgement: the received log hits
               the replica's disk before the primary may count us. *)
            Wal.sync t.rlog;
            if torn then Some (Frame.Nak { epoch = t.epoch; lsn = t.next_lsn })
            else Some (Frame.Ack { epoch = t.epoch; lsn = t.next_lsn })
          end
        end
      | Frame.Heartbeat { epoch; commit_lsn = _ } ->
        if epoch < t.epoch then begin
          Obs.Counter.incr m_fenced;
          Some (fence t)
        end
        else begin
          adopt_epoch t epoch;
          Some (Frame.Ack { epoch = t.epoch; lsn = t.next_lsn })
        end
      | Frame.Snapshot { epoch; lsn; commits; files } ->
        if epoch < t.epoch then begin
          Obs.Counter.incr m_fenced;
          Some (fence t)
        end
        else begin
          install_snapshot t ~epoch ~lsn ~commits ~files;
          Some (Frame.Ack { epoch = t.epoch; lsn = t.next_lsn })
        end
      | Frame.Fence { epoch } ->
        adopt_epoch t epoch;
        None
      | Frame.Ack { epoch; lsn = _ } | Frame.Nak { epoch; lsn = _ } ->
        (* not addressed to a replica; at most adopt the newer epoch *)
        adopt_epoch t epoch;
        None

  (* Crash the replica process: power-fail its vfs (unsynced state is
     settled per the fault plan) and stop answering. *)
  let kill t =
    if t.up then begin
      t.up <- false;
      Vfs.Faulty.power_fail t.env
    end

  (* Reboot after [kill]: reread the meta, truncate the rlog's torn
     tail, rebuild the data pages by replaying the whole received log
     over the (possibly stale) on-disk base.  Replay uses the same
     log-order image resolution as crash recovery, so a transaction
     whose commit record is missing from the clean prefix is undone. *)
  let restart t =
    let epoch, base_lsn, base_commits = read_meta t.vfs t.path in
    t.epoch <- epoch;
    t.base_lsn <- base_lsn;
    t.base_commits <- base_commits;
    let scan = Wal.scan ~vfs:t.vfs (rlog_path t.path) in
    t.pager <- Pager.create ~vfs:t.vfs t.path;
    let _redone, _undone = Recovery.apply_log scan.Wal.entries t.pager in
    Pager.sync t.pager;
    t.rlog <- Wal.open_ ~vfs:t.vfs (rlog_path t.path);
    t.next_lsn <- base_lsn + List.length scan.Wal.entries;
    t.applied_commits <-
      base_commits
      + List.length
          (List.filter
             (function Wal.Commit _ -> true | _ -> false)
             scan.Wal.entries);
    (* A torn frame can leave the clean log mid-transaction; rebuild the
       in-flight collection state so the resent commit record still
       finds its After ranges and applies them. *)
    t.cur_txn <- None;
    t.cur_writes <- [];
    List.iter
      (fun e ->
        match e with
        | Wal.Begin id ->
          t.cur_txn <- Some id;
          t.cur_writes <- []
        | Wal.After (id, _, _) ->
          if t.cur_txn = Some id then t.cur_writes <- e :: t.cur_writes
        | Wal.Commit id ->
          if t.cur_txn = Some id then begin
            t.cur_txn <- None;
            t.cur_writes <- []
          end
        | Wal.Before _ | Wal.Checkpoint -> ())
      scan.Wal.entries;
    t.up <- true

  (* Make the replica's files a complete, openable store: settle the
     pager and the received log to disk and release the handles.  Run
     before handing the files to a fresh [Diskdb]-style open. *)
  let finalize t =
    Wal.sync t.rlog;
    Pager.sync t.pager;
    Pager.close t.pager;
    Wal.close t.rlog;
    t.up <- false
end

(* ------------------------------------------------------------------ *)

module Cluster = struct
  type config = {
    policy : policy;
    heartbeat_miss_limit : int;
    ack_retries : int;
    demote_after : int;
    retain_records : int;
    snapshot_lag : int;
    link_plan : Link.plan;
  }

  let default_config =
    { policy = Async; heartbeat_miss_limit = 3; ack_retries = 6;
      demote_after = 2; retain_records = 4096; snapshot_lag = 1024;
      link_plan = Link.reliable }

  type peer = {
    replica : Replica.t;
    out : Link.t; (* primary -> replica *)
    inl : Link.t; (* replica -> primary *)
    mutable acked_lsn : int;
    mutable alive : bool;
    mutable hb_missed : int;
    mutable strikes : int;
    mutable synced : bool; (* counted towards sync-one / quorum acks *)
  }

  type counters = {
    mutable ships : int;
    mutable acks : int;
    mutable naks : int;
    mutable retries : int;
    mutable snapshots : int;
    mutable replays : int;
    mutable demotions : int;
    mutable fences : int;
    mutable heartbeats : int;
  }

  type t = {
    cfg : config;
    engine : Engine.t;
    vfs : Vfs.t;
    path : string;
    peers : peer array;
    mutable epoch : int;
    mutable next_lsn : int; (* primary's record stream position *)
    mutable commits : int; (* commits since the cluster was formed *)
    (* retained record tail for log-replay catch-up: oldest first *)
    retained : (int * bytes) Queue.t;
    mutable retained_base : int; (* lowest LSN still retained *)
    mutable degraded : bool;
    mutable deposed : bool;
    counters : counters;
  }

  let read_file vfs p =
    if not (vfs.Vfs.exists p) then Bytes.empty
    else begin
      let f = vfs.Vfs.open_rw p in
      let len = f.Vfs.size () in
      let b = Bytes.create len in
      if len > 0 then f.Vfs.pread ~buf:b ~off:0;
      f.Vfs.close ();
      b
    end

  let snapshot_files t =
    [ ("data", read_file t.vfs t.path);
      ("sum", read_file t.vfs (Pager.sum_path t.path)) ]

  let retain t lsn bytes =
    Queue.push (lsn, bytes) t.retained;
    if Queue.length t.retained > t.cfg.retain_records then begin
      ignore (Queue.pop t.retained : int * bytes);
      t.retained_base <- lsn + 1 - Queue.length t.retained
    end

  (* Concatenated encoded records in [from_lsn, next_lsn), or None when
     the tail has been evicted and only a snapshot can help. *)
  let backlog t from_lsn =
    if from_lsn < t.retained_base then None
    else begin
      let buf = Buffer.create 256 in
      Queue.iter
        (fun (lsn, b) -> if lsn >= from_lsn then Buffer.add_bytes buf b)
        t.retained;
      Some (Buffer.to_bytes buf)
    end

  let depose t =
    if not t.deposed then begin
      t.deposed <- true;
      t.counters.fences <- t.counters.fences + 1;
      Engine.demote_read_only t.engine
    end

  (* Move every deliverable frame across both directions of every
     link.  Single-threaded and deterministic: the only concurrency in
     the system is the one the link fault plans simulate. *)
  let pump t =
    Array.iter
      (fun peer ->
        let rec deliver () =
          match Link.poll peer.out with
          | Some msg ->
            (match Frame.decode msg with
            | Some f -> (
              match Replica.handle peer.replica f with
              | Some resp -> Link.send peer.inl (Frame.encode resp)
              | None -> ())
            | None -> () (* garbled on the wire: dropped *));
            deliver ()
          | None -> ()
        in
        deliver ();
        let rec collect () =
          match Link.poll peer.inl with
          | Some msg ->
            (match Frame.decode msg with
            | Some (Frame.Ack { epoch; lsn }) ->
              if epoch > t.epoch then depose t
              else if epoch = t.epoch then begin
                if lsn > peer.acked_lsn then peer.acked_lsn <- lsn;
                peer.hb_missed <- 0;
                if not peer.alive then peer.alive <- true;
                t.counters.acks <- t.counters.acks + 1;
                Obs.Counter.incr m_acks
              end
            | Some (Frame.Nak { epoch; lsn }) ->
              if epoch > t.epoch then depose t
              else if epoch = t.epoch then begin
                t.counters.naks <- t.counters.naks + 1;
                Obs.Counter.incr m_naks;
                if lsn < peer.acked_lsn then peer.acked_lsn <- lsn
              end
            | Some (Frame.Fence { epoch }) -> if epoch > t.epoch then depose t
            | Some (Frame.Append { epoch; base_lsn = _; payload = _ })
            | Some (Frame.Heartbeat { epoch; commit_lsn = _ })
            | Some (Frame.Snapshot { epoch; lsn = _; commits = _; files = _ })
              ->
              (* a primary never receives these; a newer epoch on one
                 still fences us *)
              if epoch > t.epoch then depose t
            | None -> ());
            collect ()
          | None -> ()
        in
        collect ())
      t.peers

  let send_to _t peer frame = Link.send peer.out (Frame.encode frame)

  (* Catch a peer up from its acked position: ship the retained log
     tail when it still covers the gap and the gap is modest, else fall
     back to a full snapshot copy (checkpointing first so the data file
     holds everything).  Never snapshot inside a transaction: the data
     file may hold its stolen, uncommitted pages, and the snapshot's LSN
     would skip its Begin, so the replica would drop its Commit.  The
     next commit hook catches the peer up. *)
  let catch_up t peer =
    let lag = t.next_lsn - peer.acked_lsn in
    if lag <= 0 then ()
    else
      match
        if lag > t.cfg.snapshot_lag then None else backlog t peer.acked_lsn
      with
      | Some payload ->
        t.counters.replays <- t.counters.replays + 1;
        Obs.Counter.incr m_replays;
        Obs.Span.with_span "repl.catchup.replay" (fun () ->
            send_to t peer
              (Frame.Append
                 { epoch = t.epoch; base_lsn = peer.acked_lsn; payload }))
      | None when Engine.in_txn t.engine -> ()
      | None ->
        t.counters.snapshots <- t.counters.snapshots + 1;
        Obs.Counter.incr m_snapshots;
        Obs.Span.with_span "repl.catchup.snapshot" (fun () ->
            Engine.checkpoint t.engine;
            send_to t peer
              (Frame.Snapshot
                 { epoch = t.epoch; lsn = t.next_lsn; commits = t.commits;
                   files = snapshot_files t }))

  let update_lag_gauge t =
    let worst = ref 0 in
    Array.iter
      (fun peer ->
        if peer.alive && Replica.up peer.replica then
          worst := max !worst (t.next_lsn - peer.acked_lsn))
      t.peers;
    Obs.Gauge.set g_lag (float_of_int !worst)

  (* Replica acks needed beyond the primary's own vote. *)
  let required_acks t =
    match t.cfg.policy with
    | Async -> 0
    | Sync_one -> 1
    | Quorum -> (Array.length t.peers + 1) / 2

  let satisfied_acks t =
    let n = ref 0 in
    Array.iter
      (fun peer ->
        if peer.synced && peer.acked_lsn >= t.next_lsn then incr n)
      t.peers;
    !n

  let quorum_loss t =
    t.degraded <- true;
    Engine.demote_read_only t.engine;
    raise (Storage_error.Error Storage_error.Read_only)

  (* Ship everything outstanding and enforce the ack policy.  Runs as
     the engine's commit hook, i.e. after the transaction is locally
     durable; raising here tells the committer the cluster could not
     give the durability it asked for. *)
  let ship_commit t _txn_id =
    if t.deposed then raise (Storage_error.Error Storage_error.Read_only);
    if t.degraded then raise (Storage_error.Error Storage_error.Read_only);
    Obs.Span.with_span "repl.ship" (fun () ->
        let _, span =
          Vclock.time (fun () ->
              Array.iter
                (fun peer ->
                  if Replica.up peer.replica && peer.alive then begin
                    t.counters.ships <- t.counters.ships + 1;
                    Obs.Counter.incr m_ships;
                    catch_up t peer
                  end)
                t.peers;
              let needed = required_acks t in
              let attempt = ref 0 in
              let finished = ref (needed = 0) in
              let exhausted = ref false in
              pump t;
              if t.deposed then
                raise (Storage_error.Error Storage_error.Read_only);
              while not !finished do
                if satisfied_acks t >= needed then finished := true
                else if !attempt >= t.cfg.ack_retries then begin
                  finished := true;
                  exhausted := true
                end
                else begin
                  t.counters.retries <- t.counters.retries + 1;
                  (* exponential backoff on the virtual clock *)
                  Vclock.advance_ns (1_000_000. *. (2. ** float_of_int !attempt));
                  Array.iter
                    (fun peer ->
                      if
                        Replica.up peer.replica && peer.alive && peer.synced
                        && peer.acked_lsn < t.next_lsn
                      then catch_up t peer)
                    t.peers;
                  incr attempt;
                  pump t;
                  if t.deposed then
                    raise (Storage_error.Error Storage_error.Read_only)
                end
              done;
              (* Degradation ladder.  A synced peer that stayed behind
                 while the commit waited takes a strike; chronic
                 laggards are demoted to async rather than stalling
                 every future commit (they stop counting towards
                 satisfaction and heartbeat catch-up keeps them warm).
                 Acking on time clears the record.  When even after
                 demotions the policy itself went unsatisfied, the
                 primary degrades to read-only. *)
              if needed > 0 then
                Array.iter
                  (fun peer ->
                    if peer.synced then
                      if peer.acked_lsn >= t.next_lsn then peer.strikes <- 0
                      else begin
                        peer.strikes <- peer.strikes + 1;
                        if peer.strikes >= t.cfg.demote_after then begin
                          peer.synced <- false;
                          t.counters.demotions <- t.counters.demotions + 1;
                          Obs.Counter.incr m_demotions
                        end
                      end)
                  t.peers;
              if !exhausted && satisfied_acks t < needed then quorum_loss t)
        in
        Obs.Histogram.observe h_ack_ns (Vclock.total_ns span);
        update_lag_gauge t)

  let create ?(cfg = default_config) ~engine ~vfs ~path ~replicas () =
    (* Settle the primary so the seed snapshot is just a file copy. *)
    if not (Engine.in_txn engine) then Engine.checkpoint engine;
    let t =
      { cfg; engine; vfs; path;
        peers =
          Array.of_list
            (List.map
               (fun replica ->
                 { replica;
                   out = Link.create ~plan:cfg.link_plan ();
                   inl = Link.create ~plan:cfg.link_plan ();
                   acked_lsn = 0; alive = true; hb_missed = 0; strikes = 0;
                   synced = true })
               replicas);
        epoch = 1; next_lsn = 0; commits = 0; retained = Queue.create ();
        retained_base = 0; degraded = false;
        deposed = false;
        counters =
          { ships = 0; acks = 0; naks = 0; retries = 0; snapshots = 0;
            replays = 0; demotions = 0; fences = 0; heartbeats = 0 } }
    in
    let files = snapshot_files t in
    Array.iter
      (fun peer ->
        match
          Replica.handle peer.replica
            (Frame.Snapshot
               { epoch = t.epoch; lsn = 0; commits = 0; files })
        with
        | Some resp -> (
          match Frame.ack_lsn resp with
          | Some lsn -> peer.acked_lsn <- lsn
          | None -> ())
        | None -> ())
      t.peers;
    let wal = Engine.wal engine in
    Wal.set_on_append wal
      (Some
         (fun _wal_lsn entry record ->
           (* The cluster keeps its own LSN space: it survives WAL
              reopens and starts at the moment the cluster formed. *)
           let lsn = t.next_lsn in
           t.next_lsn <- lsn + 1;
           (match entry with
           | Wal.Commit _ -> t.commits <- t.commits + 1
           | Wal.Begin _ | Wal.Before _ | Wal.After _ | Wal.Checkpoint -> ());
           retain t lsn record));
    Engine.set_commit_hook engine (Some (ship_commit t));
    t

  (* Detach from the engine without fencing anything — the hooks are
     what make a deposed primary keep talking (and get fenced), so
     tests that need that behaviour simply don't call this. *)
  let detach t =
    Wal.set_on_append (Engine.wal t.engine) None;
    Engine.set_commit_hook t.engine None

  let heartbeat t =
    t.counters.heartbeats <- t.counters.heartbeats + 1;
    Array.iter
      (fun peer ->
        if Replica.up peer.replica || peer.alive then
          send_to t peer
            (Frame.Heartbeat { epoch = t.epoch; commit_lsn = t.next_lsn }))
      t.peers;
    (* Give delayed frames a few polls to surface before judging. *)
    pump t;
    pump t;
    pump t;
    Array.iter
      (fun peer ->
        if peer.acked_lsn >= t.next_lsn then peer.hb_missed <- 0
        else begin
          peer.hb_missed <- peer.hb_missed + 1;
          if peer.hb_missed >= t.cfg.heartbeat_miss_limit then
            peer.alive <- false
        end;
        if peer.alive && peer.acked_lsn < t.next_lsn then catch_up t peer)
      t.peers;
    pump t;
    update_lag_gauge t

  let kill_replica t i =
    let peer = t.peers.(i) in
    Replica.kill peer.replica;
    peer.alive <- false

  let restart_replica t i =
    let peer = t.peers.(i) in
    Replica.restart peer.replica;
    peer.alive <- true;
    peer.hb_missed <- 0;
    peer.strikes <- 0;
    (* Its clean rlog prefix tells us what it really has. *)
    peer.acked_lsn <- min t.next_lsn (Replica.next_lsn peer.replica);
    catch_up t peer;
    pump t

  (* Failover: pick the most-caught-up live replica (max next_lsn —
     replica logs are gap-free prefixes of the primary's stream, so
     max-LSN dominates every acked commit), bump the epoch, fence the
     others, and finalize the survivor's files for a fresh open.  The
     old primary's hooks stay installed: if it is still alive it will
     learn about its deposition the hard way, from a Fence. *)
  let promote ?idx t =
    Obs.Counter.incr m_failovers;
    Obs.Span.with_span "repl.failover" (fun () ->
        let candidates =
          Array.to_list
            (Array.mapi (fun i peer -> (i, peer)) t.peers)
          |> List.filter (fun (_, peer) -> Replica.up peer.replica)
        in
        let chosen =
          match idx with
          | Some i -> Some (i, t.peers.(i))
          | None ->
            List.fold_left
              (fun best (i, peer) ->
                match best with
                | None -> Some (i, peer)
                | Some (_, b)
                  when Replica.next_lsn peer.replica > Replica.next_lsn b.replica
                  -> Some (i, peer)
                | Some _ -> best)
              None candidates
        in
        match chosen with
        | None -> invalid_arg "Cluster.promote: no live replica"
        | Some (i, peer) ->
          let new_epoch = t.epoch + 1 in
          Array.iteri
            (fun j other ->
              if j <> i && Replica.up other.replica then
                ignore
                  (Replica.handle other.replica
                     (Frame.Fence { epoch = new_epoch })))
            t.peers;
          ignore
            (Replica.handle peer.replica (Frame.Fence { epoch = new_epoch }));
          Replica.finalize peer.replica;
          (i, peer.replica))

  let policy t = t.cfg.policy
  let epoch t = t.epoch
  let lsn t = t.next_lsn
  let commits t = t.commits
  let degraded t = t.degraded
  let deposed t = t.deposed
  let counters t = t.counters
  let replica t i = t.peers.(i).replica
  let acked_lsn t i = t.peers.(i).acked_lsn
  let alive t i = t.peers.(i).alive
  let synced t i = t.peers.(i).synced
  let link_out t i = t.peers.(i).out
  let link_in t i = t.peers.(i).inl
  let n_replicas t = Array.length t.peers

  let report t =
    let c = t.counters in
    Printf.sprintf
      "policy=%s epoch=%d lsn=%d commits=%d ships=%d acks=%d naks=%d \
       retries=%d snapshots=%d replays=%d demotions=%d fences=%d \
       degraded=%b"
      (policy_to_string t.cfg.policy)
      t.epoch t.next_lsn t.commits c.ships c.acks c.naks c.retries
      c.snapshots c.replays c.demotions c.fences t.degraded
end
