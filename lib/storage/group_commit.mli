(** WAL group commit: one fsync for a batch of concurrent committers.

    Protocol.  A committer appends and {!Wal.flush}es its own log bytes
    (under whatever serialization the owner already imposes on the
    engine — e.g. the multiuser harness's database mutex), then
    {!register}s for a ticket and {!await}s it, typically {e outside}
    that serialization so other committers can prepare meanwhile.  The
    first waiter becomes the group leader: it holds the group open until
    [max_batch] committers are pending or [max_hold_ns] of virtual-clock
    time has passed, snapshots the pending set, issues a single
    {!Wal.sync_file}, and wakes every member.  [await] returns only once
    the caller's bytes are covered by a completed fsync — a transaction
    must not be acked before that.

    Correctness rests on two orderings, both established by the caller:
    flush-before-register (so the snapshot covers every member's bytes)
    and the write-ahead rule (a page's records flushed before its
    write-back, with undo ranges for a steal), which is what lets a
    crash between the page writes and the group fsync roll unacked
    members back on recovery.

    Failure: if the group fsync raises (full disk, injected crash), the
    scheduler is poisoned — the exception propagates to every current
    and future waiter.  The engine reacts by demoting itself to
    read-only; a reopen builds a fresh scheduler.

    OCaml 4.14's [Condition] has no timed wait, so the leader's hold
    window is a yield loop against {!Hyper_util.Vclock} — cheap at the
    microsecond scales involved, and it keeps the hold time on the same
    virtual clock the benchmark measures with. *)

type config = {
  max_batch : int;  (** fsync as soon as this many committers are pending *)
  max_hold_ns : float;
      (** longest the leader holds the group open (virtual-clock ns);
          [0.] means fsync immediately for whoever is already pending *)
}

val default_config : config
(** [{ max_batch = 8; max_hold_ns = 2e6 }] (2 ms). *)

type t

val create : config -> Wal.t -> t
(** @raise Invalid_argument when [max_batch < 1] or [max_hold_ns < 0]. *)

type ticket

val register : t -> ticket
(** Join the open group.  The caller's WAL bytes must already be
    flushed. *)

val await : t -> ticket -> unit
(** Block until a group fsync covers the ticket.  Re-raises the fsync's
    exception (for every member) if the barrier failed. *)

val stats : t -> int * int
(** [(groups, members)]: fsyncs issued and committers covered since
    [create].  [members / groups] is the mean batch size; [groups <
    members] is the saving.  Counted unconditionally (not gated on the
    metrics sink); the [hyper_wal_group_size] / [hyper_wal_group_wait_ns]
    histograms carry the distributions when the sink is on. *)
