(** The concurrent socket server: a {!Netaddr} accept loop serving
    {!Wire} op batches against one {!Hyper_core.Backend.instance}.

    {2 Scheduling and the engine lease}

    One thread per connection, plus an accept thread.  Every blocking
    point is a [select] with a short timeout, so stop/drain flags are
    honoured promptly.  The engine itself is single-writer: a batch
    executes under a global engine mutex (the same db-mutex discipline
    as {!Hyper_core.Multiuser}).  If a batch leaves a transaction open
    ([Begin] without a closing [Commit]/[Abort]), the session {e keeps
    holding} the mutex across batches — an engine lease — until the
    transaction closes, so per-session transactions are serialisable by
    construction and never interleave.

    {2 Snapshot sessions (MVCC reads)}

    A [Snapshot] request pins a detached read-only view of the committed
    state ({!Hyper_core.Backend.S.snapshot} — the lease is held only for
    the clone itself).  While the view is active, the session's batches
    execute against it {e without taking the lease}: pipelined snapshot
    reads proceed while another session's open transaction holds it —
    readers never block writers.  Mutations and [Begin]/[Commit]/[Abort]
    in a snapshot batch return [Raised "Snapshot_read_only"]; backends
    that cannot clone (disk, relational, remote) answer the [Snapshot]
    request itself with an [F_bad_op] fault.

    {2 Session lifecycle}

    A client disconnect (EOF, reset) while a transaction is open rolls
    it back and releases the lease.  [drain] stops accepting, lets each
    session finish the requests it has already received, replies, then
    closes; sessions still inside a transaction after the grace period
    are aborted.  [kill] is abrupt — sockets close with no replies and
    the engine is not touched — and exists for the crash fuzzer.

    If applying an op raises an exception for which [reraise] returns
    [true] (the fault-injecting VFS's crash), the server records it and
    kills itself without acking the in-flight batch: exactly the
    acked-prefix discipline the net fuzzer checks. *)

type t

val start :
  ?name:string ->
  ?reraise:(exn -> bool) ->
  ?max_frame:int ->
  layout:Hyper_core.Layout.t ->
  Hyper_core.Backend.instance ->
  Netaddr.t ->
  t
(** Bind, listen and spawn the accept loop.  A pre-existing unix-socket
    path is unlinked first.  @raise Unix.Unix_error if binding fails. *)

val addr : t -> Netaddr.t

val session_count : t -> int
(** Live sessions (for tests and the load harness). *)

val drain : ?grace_s:float -> t -> unit
(** Graceful shutdown: stop accepting, finish in-flight requests,
    reply, close.  Blocks until every session thread has exited;
    sessions still in a transaction after [grace_s] (default 5s) are
    aborted and closed.  A Unix socket file the server bound is then
    removed. *)

val kill : t -> unit
(** Abrupt shutdown: close every socket now, send nothing, leave the
    engine alone.  Blocks until the threads have exited. *)

val crashed : t -> exn option
(** The reraised exception that killed the server, if any. *)
