(** Transactional storage session shared by the disk backends.

    Bundles one pager, its buffer pool and its write-ahead log into a
    unit with ACID bracketing:

    - [begin_txn] installs buffer-pool hooks that keep each page's
      pre-image on first dirty (nothing is logged then) and, when a
      dirty page is stolen, log its undo ranges (the old bytes it
      overwrites) and redo ranges before it is written (write-ahead
      rule);
    - [commit] calls the owner's [on_save] hook (persist roots into the
      meta page), logs one [After] record per dirty page holding the
      byte ranges that changed since the page's last logged image,
      seals the log, and force-flushes the pool;
    - [abort] discards in-pool writes, restores stolen pages from the
      undo set, and calls the owner's [on_reload] hook so in-memory roots
      (B+tree roots, heap tails, counters) are re-attached from the meta
      page;
    - [open_] runs crash recovery from the log when needed.

    Owners (the object backend, the relational backend) provide the data
    structures; this module provides the transaction discipline, so the
    recovery semantics are identical across backends.

    Failure handling: all I/O flows through the supplied {!Vfs.t},
    wrapped once in {!Vfs.retrying} so transient faults are retried with
    bounded backoff.  If the WAL can no longer be appended (permanent
    [ENOSPC]), the engine rolls the open transaction back in memory and
    demotes itself to {!read_only}: committed data stays readable,
    [begin_txn] raises {!Storage_error.Error} [Read_only]. *)

type t

val files : string -> string list
(** Every file of the store whose data file is at the given path: the
    data file, its checksum sidecar ({!Pager.sum_path}) and the WAL.
    Remove all of them to delete a store. *)

val open_ :
  ?vfs:Vfs.t ->
  path:string ->
  pool_pages:int ->
  ?durable_sync:bool ->
  ?group_commit:Group_commit.config ->
  ?checkpoint_wal_bytes:int ->
  unit ->
  t
(** Defaults: {!Vfs.real}, no fsync, no group commit, 64 MiB checkpoint
    threshold.  The store's files are {!files} [path].  [group_commit]
    batches the per-commit fsyncs of concurrent committers through a
    {!Group_commit} scheduler; it only
    takes effect together with [durable_sync] (without it there is no
    fsync to batch) and changes nothing for a single-threaded caller
    except that the fsync happens in {!await_durable} (inside {!commit}
    for most callers). *)

val fresh : t -> bool
(** Whether the store was empty at [open_] (owner must format it). *)

val recovery : t -> Recovery.report option

val read_only : t -> bool
(** Whether the engine degraded to read-only after a WAL append failure. *)

val set_hooks : t -> on_save:(unit -> unit) -> on_reload:(unit -> unit) -> unit
(** Must be called once right after [open_] (and before any
    transaction). *)

val pool : t -> Buffer_pool.t
val pager : t -> Pager.t

val wal : t -> Wal.t
(** The engine's write-ahead log — replication installs its stream
    cursor ({!Wal.set_on_append}) here. *)

val set_commit_hook : t -> (int -> unit) option -> unit
(** Called with the transaction id after each successful [commit], once
    the transaction is locally durable and the engine is back in a
    clean non-transactional state.  Replication gates the commit on its
    ack policy here; the hook may raise (e.g. quorum loss) and the
    exception propagates to the committer with local durability
    already established. *)

val demote_read_only : t -> unit
(** Degrade to read-only: committed data stays readable, [begin_txn]
    raises {!Storage_error.Error} [Read_only].  Replication uses this
    when the primary loses its quorum or is fenced by a newer epoch. *)

val begin_txn : t -> unit
val commit : t -> unit
val abort : t -> unit
val in_txn : t -> bool

type ticket
(** A committed-but-not-yet-durable transaction (group commit). *)

val commit_ticket : t -> ticket
(** First phase of {!commit}: everything up to (but not including) the
    group durability barrier — the [After] ranges and the commit record are
    logged and issued, the pool is flushed, the engine is back in a
    clean non-transactional state.  Without a group scheduler the fsync
    (or plain flush) already happened and the ticket is trivially
    durable.  The point of the split is concurrency: a caller that
    serializes engine access through a lock can take the ticket inside
    the lock and {!await_durable} outside it, which is what lets
    concurrent committers share one fsync.  A transaction must not be
    acked before its ticket is awaited.
    @raise Invalid_argument on an engine with a commit hook
    ({!set_commit_hook}), before touching the transaction: the split
    never runs the hook, so use {!commit} there. *)

val await_durable : t -> ticket -> unit
(** Block until the ticket's commit record is covered by a durability
    barrier.  On barrier failure the engine demotes itself to
    {!read_only} and re-raises: the transaction state is already torn
    down, so there is nothing to roll back, and whether the commit
    record survives a restart is unknown — the caller must not ack.
    Unlike {!commit}, the split never runs the commit hook or the
    checkpoint check, which is why {!commit_ticket} refuses an engine
    with a replication hook. *)

val group_commit_stats : t -> (int * int) option
(** [(groups, members)] from the {!Group_commit} scheduler, or [None]
    when group commit is off. *)

val wal_sync_count : t -> int
(** {!Wal.sync_count} of the engine's log. *)

val require_txn : t -> unit
(** @raise Invalid_argument outside a transaction. *)

val clear_caches : t -> unit
(** Drop the buffer pool (cold-run reset).
    @raise Invalid_argument inside a transaction. *)

val checkpoint : t -> unit

val close : t -> unit
(** Checkpoint and release the file handles.  A transaction still open
    at close was never durable (its commit record does not exist), so
    it is rolled back first — close is typically called from a
    [Fun.protect] finalizer, where raising would mask the exception
    that abandoned the transaction.  Idempotent. *)

val wal_bytes : t -> int
