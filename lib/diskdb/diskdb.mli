(** Disk-based object database — the GemStone/Vbase analogue.

    Architecture: a page file accessed through a CLOCK buffer pool; node
    records in a slotted-page heap with overflow chains; a persistent
    object table mapping OIDs to relocatable records; B+tree indexes on
    uniqueId, hundred and million; a write-ahead log of changed byte
    ranges giving atomic commit, abort and crash recovery (R10);
    optional physical clustering along the 1-N hierarchy (§5.2); and an
    optional simulated workstation/server channel (R6) that charges
    network and server-disk latency to the virtual clock on every page
    transfer.

    Cold runs (after [clear_caches]) fault pages in from the file or the
    simulated server; warm runs hit the buffer pool — exactly the
    cold/warm structure of the paper's protocol. *)

type remote = Hyper_net.Channel.profile = {
  network : Hyper_net.Latency_model.t;
  server_disk : Hyper_net.Latency_model.t;
  server_cache_pages : int;
}

type config = {
  path : string; (** data file; {!Hyper_storage.Engine.files} lists the store's files *)
  pool_pages : int; (** client buffer-pool capacity *)
  durable_sync : bool; (** fsync the WAL at commit *)
  group_commit : Hyper_storage.Group_commit.config option;
      (** batch concurrent committers' WAL fsyncs through one
          {!Hyper_storage.Group_commit} scheduler.  Only meaningful
          together with [durable_sync]; see
          {!Hyper_storage.Engine.open_}.  Commits still fsync before
          returning — a caller that wants to overlap the wait takes the
          engine's commit ticket directly
          ({!Hyper_storage.Engine.commit_ticket}). *)
  checkpoint_wal_bytes : int; (** checkpoint threshold *)
  remote : remote option; (** workstation/server simulation *)
  object_cache : int;
      (** capacity of the decoded-object (check-out) cache; 0 disables.
          The paper's R7 cites ECKL87: interactive applications need
          100–10 000 objects/second, so "parts of the database have to
          be cached/checked-out to main memory in the workstations".
          With the cache on, warm-run attribute access skips the object
          table, the buffer pool and record decoding entirely. *)
  uid_hash_index : bool;
      (** maintain a linear-hash access path on (doc, uniqueId) alongside
          the B+tree; [lookup_unique] (op 01) then probes the hash — the
          access-method ablation of bench §T5 *)
  prefetch : bool;
      (** traversal prefetch: closure operations (via
          [prefetch_nodes]) batch-fetch the heap pages of the nodes
          they are about to visit through
          {!Hyper_storage.Buffer_pool.prefetch}.  On a remote channel a
          batch costs one round trip (group transfer) instead of one
          per page — the page-at-a-time vs. group-fetch axis of the
          paper's Vbase/GemStone discussion.  Off by default so the
          baseline measurements keep page-at-a-time behaviour. *)
  vfs : Hyper_storage.Vfs.t option;
      (** the VFS all storage I/O (data file, [.sum] checksum sidecar,
          WAL) flows through; [None] = real files.  Supplying
          [Some (Vfs.Faulty.vfs env)] runs the whole store over the
          deterministic fault-injecting VFS — crashes, torn writes,
          lying fsync, typed I/O errors — for durability testing. *)
}

val default_config : path:string -> config
(** 2048-page pool (8 MiB), no fsync (simulated durability cost instead),
    64 MiB checkpoint threshold, local disk, object cache off, traversal
    prefetch off. *)

val remote_1988 : remote
(** 10 Mbit/s LAN + late-80s server disk, 1024-page server cache. *)

include Hyper_core.Backend.S

val open_db : config -> t
(** Open or create; runs crash recovery from the WAL when needed. *)

val close : t -> unit
(** Checkpoint and close.  @raise Invalid_argument inside a transaction. *)

val checkpoint : t -> unit
(** Force all committed state into the data file and truncate the WAL. *)

val last_recovery : t -> Hyper_storage.Recovery.report option
(** The report of the recovery pass performed by [open_db], if any. *)

val read_only : t -> bool
(** Whether the store degraded to read-only because the WAL could not be
    appended (e.g. [ENOSPC]).  Committed data remains readable; mutating
    operations raise {!Hyper_storage.Storage_error.Error} [Read_only]. *)

val engine : t -> Hyper_storage.Engine.t
(** The underlying transactional engine — the attachment point for
    replication ([Hyper_repl.Cluster.create]) and other layers that
    need the WAL stream or commit hooks. *)

type io_counters = {
  pager_reads : int;
  pager_writes : int;
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  pool_prefetches : int;
      (** pages fetched by prefetch batches (not counted as misses) *)
  round_trips : int; (** 0 when local; a batched fetch counts once *)
  batched_round_trips : int;
      (** the subset of [round_trips] that were group fetches *)
  server_hits : int;
  server_misses : int;
  wal_bytes : int;
  object_hits : int; (** decoded-object cache hits (0 when disabled) *)
  object_misses : int;
}

val io_counters : t -> io_counters

val file_bytes : t -> int
(** Current size of the data file (experiment T1). *)

val record : t -> Hyper_core.Oid.t -> bytes
(** A copy of node [oid]'s encoded record, assembled whole (see
    {!Codec}) — for checking the projected readers against
    {!Codec.decode}.  @raise Invalid_argument on an unknown oid. *)

val stored_result_count : t -> int

val stored_result : t -> int -> Hyper_core.Oid.t list
(** [stored_result t i]: the i-th stored closure list (0-based). *)

val collect_garbage : t -> int
(** Mark-and-sweep collection of unreachable pages (R10: "garbage
    collection of non-referenced objects").  Aborted transactions that
    extended the file leave orphan pages; this returns them to the free
    list and reports how many were reclaimed.  Runs in its own
    transaction.  @raise Invalid_argument inside a transaction. *)
