(** WAL-shipping primary/replica replication (ROADMAP item 2).

    The primary taps its engine's write-ahead log with a stream cursor
    ({!Hyper_storage.Wal.set_on_append}) and ships every record, in its
    on-disk encoding, to N replicas over {!Hyper_net.Channel.Link}
    message links.  Each replica appends the records to its own
    received log, syncs it, patches committed transactions' byte ranges
    into its pager (continuous redo — the same log-order patching crash
    recovery uses), and acknowledges.  The engine's commit hook
    then gates the commit on the cluster's ack {!policy}.

    Failure handling is the point:

    - {b fencing}: every frame carries an epoch; stale-epoch frames are
      answered with [Fence], and a fenced (deposed) primary demotes
      itself to read-only;
    - {b failure detection}: heartbeats with a miss limit mark dead
      replicas, acks revive them;
    - {b catch-up}: a lagging or rejoining replica is fed the retained
      log tail when the gap is small, or a full snapshot copy when the
      tail was evicted or the gap exceeds [snapshot_lag];
    - {b degradation}: a lagging sync replica is demoted to async
      rather than stalling commits; when the ack policy becomes
      unsatisfiable the primary degrades to read-only (the ENOSPC
      pattern: committed data stays readable);
    - {b promotion}: failover picks the live replica with the maximum
      LSN — replica logs are gap-free prefixes of the primary's record
      stream, so the max-LSN survivor contains every acked commit.

    Everything is synchronous and deterministic: frames move only when
    the cluster pumps its links, and all "time" (backoff, ack latency)
    is charged to the virtual clock. *)

type policy = Async | Sync_one | Quorum

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

module Replica : sig
  type t

  val create : ?plan:Hyper_storage.Vfs.Faulty.plan -> name:string -> unit -> t
  (** A replica with its own in-memory faulty VFS (default plan:
      {!Hyper_storage.Vfs.Faulty.quiet}); its store lives at
      [/repl/<name>.db], its received log at [.rlog], its epoch and
      snapshot base at [.replmeta]. *)

  val handle : t -> Frame.t -> Frame.t option
  (** One frame in, at most one frame out.  Epoch is checked first:
      stale frames get [Fence], newer epochs are adopted.  A killed
      replica returns [None] to everything. *)

  val kill : t -> unit
  (** Crash: power-fail the VFS and stop answering. *)

  val restart : t -> unit
  (** Reboot after {!kill}: truncate the received log's torn tail and
      rebuild the data pages by replaying the clean prefix over the
      on-disk base (log-order image resolution, uncommitted tail
      undone). *)

  val finalize : t -> unit
  (** Settle the files to disk and release the handles, so a fresh
      store open (e.g. [Hyper_diskdb]) can take over. *)

  val name : t -> string
  val env : t -> Hyper_storage.Vfs.Faulty.env
  val vfs : t -> Hyper_storage.Vfs.t
  val path : t -> string
  val up : t -> bool
  val epoch : t -> int

  val next_lsn : t -> int
  (** Next record LSN expected — the length of the gap-free prefix the
      replica holds. *)

  val applied_commits : t -> int
  (** Committed transactions applied since the replica joined. *)
end

module Cluster : sig
  type t

  type config = {
    policy : policy;
    heartbeat_miss_limit : int;  (** unanswered heartbeats before dead *)
    ack_retries : int;  (** resend rounds before striking a laggard *)
    demote_after : int;  (** strikes before a sync peer goes async *)
    retain_records : int;  (** log tail kept for replay catch-up *)
    snapshot_lag : int;  (** lag beyond which catch-up snapshots *)
    link_plan : Hyper_net.Channel.Link.plan;
  }

  val default_config : config
  (** Async, reliable links, 3-miss detector, 6 retry rounds, demote
      after 2 strikes, 4096 retained records, snapshot beyond 1024. *)

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

  val create :
    ?cfg:config ->
    engine:Hyper_storage.Engine.t ->
    vfs:Hyper_storage.Vfs.t ->
    path:string ->
    replicas:Replica.t list ->
    unit ->
    t
  (** Form a cluster around a running primary: checkpoint it, seed
      every replica with a direct snapshot of the data files, install
      the WAL stream cursor and the commit hook.  From here on every
      commit on [engine] ships before it returns, per the policy; the
      hook raises {!Hyper_storage.Storage_error.Error} [Read_only] when
      the policy cannot be satisfied (the commit is locally durable but
      not replicated to the promised degree). *)

  val detach : t -> unit
  (** Remove the engine hooks (an orderly shutdown — a deposed primary
      that never detaches keeps shipping and gets fenced). *)

  val heartbeat : t -> unit
  (** One failure-detector round: probe every peer, mark the
      unresponsive dead, revive and catch up the lagging. *)

  val pump : t -> unit
  (** Move deliverable frames across every link, both directions. *)

  val kill_replica : t -> int -> unit
  val restart_replica : t -> int -> unit

  val promote : ?idx:int -> t -> int * Replica.t
  (** Fail over: pick the live replica with the maximum LSN (or [idx]),
      bump the epoch, fence the other replicas, finalize the survivor's
      files and return it.  The old primary's hooks stay installed so a
      still-running deposed primary learns of its deposition from the
      next Fence it receives.
      @raise Invalid_argument when no live replica exists. *)

  val policy : t -> policy
  val epoch : t -> int

  val lsn : t -> int
  (** Next record LSN the primary will assign (stream length). *)

  val commits : t -> int
  (** Commits shipped since the cluster was formed. *)

  val degraded : t -> bool
  (** Primary went read-only after the ack policy became unsatisfiable. *)

  val deposed : t -> bool
  (** Primary was fenced by a newer epoch. *)

  val counters : t -> counters
  val replica : t -> int -> Replica.t
  val acked_lsn : t -> int -> int
  val alive : t -> int -> bool
  val synced : t -> int -> bool
  val link_out : t -> int -> Hyper_net.Channel.Link.t
  val link_in : t -> int -> Hyper_net.Channel.Link.t
  val n_replicas : t -> int
  val report : t -> string
end
