module Obs = Hyper_obs.Obs

let m_begins =
  Obs.Counter.make "hyper_txn_begins_total" ~help:"engine transactions begun"

let m_commits =
  Obs.Counter.make "hyper_txn_commits_total"
    ~help:"engine transactions committed"

let m_aborts =
  Obs.Counter.make "hyper_txn_aborts_total"
    ~help:"engine transactions rolled back (explicit abort or commit failure)"

let m_checkpoints =
  Obs.Counter.make "hyper_txn_checkpoints_total"
    ~help:"WAL-size-triggered checkpoints"

(* [undo] holds each page's image from before the transaction's first
   write to it (rollback restores it, steals log Before ranges from it);
   [stolen] the image a steal last wrote to the data file.  A page's
   next After record is diffed against its [stolen] image when it has
   one, else its [undo] image: the image on disk, so the ranges cover
   every byte a torn write of the page can get wrong. *)
type txn = {
  id : int;
  undo : (int, bytes) Hashtbl.t;
  stolen : (int, bytes) Hashtbl.t;
}

type t = {
  pager : Pager.t;
  wal : Wal.t;
  pool : Buffer_pool.t;
  durable_sync : bool;
  group : Group_commit.t option; (* Some iff durable_sync and configured *)
  checkpoint_wal_bytes : int;
  is_fresh : bool;
  recovery_report : Recovery.report option;
  mutable on_save : unit -> unit;
  mutable on_reload : unit -> unit;
  mutable txn : txn option;
  mutable txn_counter : int;
  mutable read_only : bool;
  mutable closed : bool;
  mutable commit_hook : (int -> unit) option;
}

(* A WAL append/flush failing with ENOSPC means the log can no longer
   uphold the write-ahead contract: demote to read-only rather than risk
   committing without durability. *)
let is_wal_full = function
  | Storage_error.Error
      (Storage_error.Io { fault = Storage_error.Enospc; _ }) ->
    true
  | _ -> false

let wal_path path = path ^ ".wal"
let files path = [ path; Pager.sum_path path; wal_path path ]

let open_ ?(vfs = Vfs.real) ~path ~pool_pages ?(durable_sync = false)
    ?group_commit ?(checkpoint_wal_bytes = 64 * 1024 * 1024) () =
  (* One retry policy for every storage path: transient faults are
     absorbed here, so Pager/Wal/Recovery only ever see hard errors.
     The observer sits outside the retry layer so each logical
     operation counts once; absorbed faults surface only as
     hyper_vfs_retries_total. *)
  let vfs = Vfs.observed (Vfs.retrying vfs) in
  let wal_path = wal_path path in
  let pager = Pager.create ~vfs path in
  let needs_recovery =
    try Recovery.needs_recovery ~vfs wal_path
    with Storage_error.Error (Storage_error.Unsupported_format _) as e ->
      Pager.close pager;
      raise e
  in
  let recovery_report =
    if needs_recovery then begin
      let report = Recovery.recover ~vfs ~wal_path pager in
      Pager.sync pager;
      Some report
    end
    else None
  in
  let wal = Wal.open_ ~vfs wal_path in
  Wal.truncate wal;
  let pool = Buffer_pool.create pager ~capacity:pool_pages in
  (* Without durable_sync there is no per-commit fsync to batch, so a
     group-commit config is inert rather than an error — callers can set
     both unconditionally and flip durability alone. *)
  let group =
    match group_commit with
    | Some cfg when durable_sync -> Some (Group_commit.create cfg wal)
    | _ -> None
  in
  { pager; wal; pool; durable_sync; group; checkpoint_wal_bytes;
    is_fresh = Pager.page_count pager = 0; recovery_report;
    on_save = (fun () -> ()); on_reload = (fun () -> ()); txn = None;
    txn_counter = 0; read_only = false; closed = false; commit_hook = None }

let fresh t = t.is_fresh
let recovery t = t.recovery_report
let read_only t = t.read_only
let wal t = t.wal
let set_commit_hook t hook = t.commit_hook <- hook

let demote_read_only t = t.read_only <- true

let set_hooks t ~on_save ~on_reload =
  t.on_save <- on_save;
  t.on_reload <- on_reload

let pool t = t.pool
let pager t = t.pager

let in_txn t = t.txn <> None

let require_txn t =
  if t.txn = None then invalid_arg "Engine: mutation outside a transaction"

let current_txn t =
  match t.txn with
  | Some txn -> txn
  | None -> invalid_arg "Engine: no active transaction"

(* Log [img]'s changes to [page] since its last logged image; a page
   dirtied before the transaction began has no base and is logged
   whole. *)
let log_after t txn page img =
  let base =
    match Hashtbl.find_opt txn.stolen page with
    | Some _ as b -> b
    | None -> Hashtbl.find_opt txn.undo page
  in
  let rs =
    match base with
    | Some base -> Wal.ranges img (Wal.diff base img)
    | None -> [ (0, img) ]
  in
  if rs <> [] then Wal.append t.wal (Wal.After (txn.id, page, rs))

let begin_txn t =
  if t.read_only then raise (Storage_error.Error Storage_error.Read_only);
  if t.txn <> None then invalid_arg "Engine: nested transaction";
  t.txn_counter <- t.txn_counter + 1;
  Obs.Counter.incr m_begins;
  let txn =
    { id = t.txn_counter; undo = Hashtbl.create 16;
      stolen = Hashtbl.create 1 }
  in
  t.txn <- Some txn;
  Wal.append t.wal (Wal.Begin txn.id);
  Buffer_pool.set_txn_hooks t.pool
    ~on_first_dirty:(fun page img ->
      (* [img] is the live frame buffer (pool hook contract): the undo
         set outlives this call, so snapshot it.  A page stolen and
         dirtied again keeps its first image. *)
      if not (Hashtbl.mem txn.undo page) then
        Hashtbl.add txn.undo page (Bytes.copy img))
    ~on_evict_dirty:(fun page img ->
      (* Write-ahead rule: before an uncommitted page reaches the data
         file, log the old bytes it overwrites (undo) and its changes
         since the last logged image (redo, should the transaction
         commit). *)
      (match Hashtbl.find_opt txn.undo page with
      | Some pre -> (
        match Wal.diff pre img with
        | [] -> ()
        | spans -> Wal.append t.wal (Wal.Before (txn.id, page, Wal.ranges pre spans)))
      | None -> ());
      log_after t txn page img;
      Hashtbl.replace txn.stolen page (Bytes.copy img);
      try Wal.flush t.wal
      with e when is_wal_full e ->
        t.read_only <- true;
        raise e)

(* Roll the open transaction back in memory: discard in-pool writes,
   restore stolen pages from the undo set, re-attach the owner's roots
   from the meta page.  Shared by [abort] and by commit-failure
   degradation; needs no WAL.  Every caller runs before any commit
   write-back, so only a stolen page can differ on disk from its
   pre-image; every other dirtied page lives only in the dirty frames
   [discard_dirty] drops. *)
let rollback t txn =
  Buffer_pool.clear_txn_hooks t.pool;
  Buffer_pool.discard_dirty t.pool;
  Hashtbl.iter
    (fun page _ ->
      Buffer_pool.invalidate t.pool page;
      Option.iter (Pager.write t.pager page) (Hashtbl.find_opt txn.undo page))
    txn.stolen;
  t.txn <- None;
  Obs.Counter.incr m_aborts;
  t.on_reload ()

let maybe_checkpoint t =
  if Wal.size_bytes t.wal > t.checkpoint_wal_bytes then begin
    Obs.Counter.incr m_checkpoints;
    Buffer_pool.flush_all t.pool;
    Pager.sync t.pager;
    Wal.truncate t.wal
  end

type ticket = { txn_id : int; wait : unit -> unit }

(* First phase of commit: log the After ranges and the commit record,
   issue (and, without a group scheduler, fsync) the log, flush the pool
   and leave the engine in a clean non-transactional state.  With a
   group scheduler the durability barrier is deferred: the returned
   ticket's [wait] blocks until a group fsync covers the commit record.
   The flush-before-register ordering the scheduler relies on holds
   because both happen here, under whatever serialization the caller
   already imposes on engine calls.

   Note the pool write-back can reach the data file before the group
   fsync.  That is safe under the FIFO write-back model (DESIGN.md §15):
   the commit record was issued to the log first, so any persisted
   prefix that includes one of these page writes also includes the
   commit and its After ranges, and a page stolen earlier had its
   Before ranges issued before its write. *)
let take_ticket t =
  let txn = current_txn t in
  t.on_save ();
  let dirty = Buffer_pool.take_dirty_set t.pool in
  (try
     List.iter (fun (page, img) -> log_after t txn page img) dirty;
     Wal.append t.wal (Wal.Commit txn.id);
     (match t.group with
     | Some _ -> Wal.flush t.wal
     | None -> if t.durable_sync then Wal.sync t.wal else Wal.flush t.wal)
   with e when is_wal_full e ->
     (* The commit record never reached the log, so the transaction is
        not committed: undo it in memory and degrade to read-only.  All
        previously committed state on disk is untouched and readable. *)
     t.read_only <- true;
     rollback t txn;
     raise e);
  Obs.Counter.incr m_commits;
  (* Force policy: committed pages reach the data file eagerly. *)
  Buffer_pool.flush_all t.pool;
  Buffer_pool.clear_txn_hooks t.pool;
  t.txn <- None;
  let wait =
    match t.group with
    | Some g ->
      let tk = Group_commit.register g in
      fun () -> Group_commit.await g tk
    | None -> fun () -> ()
  in
  { txn_id = txn.id; wait }

(* The split never runs the commit hook, so on a replicated engine it
   would ack commits that were never shipped. *)
let commit_ticket t =
  if Option.is_some t.commit_hook then
    invalid_arg "Engine.commit_ticket: engine has a commit hook; use commit";
  take_ticket t

let await_durable t tk =
  try tk.wait ()
  with e ->
    (* The group's durability barrier failed after the transaction state
       was already torn down, so there is nothing left to roll back and
       the commit record may or may not survive a restart.  The caller
       must not ack; the engine stops accepting writes. *)
    demote_read_only t;
    raise e

let commit t =
  let tk = take_ticket t in
  await_durable t tk;
  (* The transaction is locally durable by this point; the hook (e.g.
     replication shipping, which may raise to signal quorum loss) runs
     with the engine back in a clean non-transactional state. *)
  (match t.commit_hook with None -> () | Some f -> f tk.txn_id);
  maybe_checkpoint t

let group_commit_stats t = Option.map Group_commit.stats t.group
let wal_sync_count t = Wal.sync_count t.wal

let abort t = rollback t (current_txn t)

let clear_caches t =
  if t.txn <> None then invalid_arg "Engine: clear_caches inside a transaction";
  Buffer_pool.drop_all t.pool

let checkpoint t =
  if t.txn <> None then invalid_arg "Engine: checkpoint inside a transaction";
  Buffer_pool.flush_all t.pool;
  Pager.sync t.pager;
  Wal.truncate t.wal

let close t =
  if not t.closed then begin
    (* An open transaction at close has no commit record, so it was
       never durable — recovery after a crash here would discard it.
       Roll it back rather than raise: close usually runs from a
       [Fun.protect] finalizer, where raising would mask whatever
       exception abandoned the transaction in the first place. *)
    (match t.txn with Some txn -> rollback t txn | None -> ());
    (* A read-only (degraded) engine has no dirty state to save and its
       WAL is unusable — just release the handles. *)
    if not t.read_only then checkpoint t;
    Wal.close t.wal;
    Pager.close t.pager;
    t.closed <- true
  end

let wal_bytes t = Wal.size_bytes t.wal
