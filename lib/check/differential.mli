(** The fuzz harness: one trace, one oracle, one subject.

    The oracle is always memdb — the simplest backend, kept
    deliberately free of caching, paging and recovery machinery.  A
    subject is a fresh store over the in-memory fault-injecting VFS
    ({!Hyper_storage.Vfs.Faulty}) and the generated database
    ([gen_seed]/[level]): a local backend, the same behind the socket
    stack ({!Netcheck}), or a replicated primary ({!Failover}).

    Two checks run a subject:
    - {!check} replays a trace op by op; the first step whose
      normalised outcome ({!Hyper_core.Trace.outcome}) differs from the
      oracle's is a divergence, and {!shrink} minimises it;
    - {!crash_check} is the crash loop: replay with a crash armed [k]
      mutating VFS ops past setup (and the subject's own faults), stop
      at the crash, recover, and hand the recovered state to the one
      acked-prefix verdict ({!verdict}).

    Everything here is deterministic: equal inputs find equal
    divergences and shrink them to equal minimal repros. *)

open Hyper_core

type divergence = {
  step : int;  (** 0-based index into the checked op list *)
  op : Trace.op;
  oracle : Trace.outcome;
  subject : Trace.outcome;
  backend : string;
}

val pp_divergence : Format.formatter -> divergence -> unit

val layout_of : level:int -> Layout.t

(** {2 Subjects} *)

val is_crash : exn -> bool
(** The exceptions that mean "the subject crashed": a local
    {!Hyper_storage.Vfs.Crash}, or {!Hyper_net.Client.Connection_lost}
    from a server its [reraise] hook killed. *)

(** A subject's state after the crash loop, and the commit prefixes it
    may legally equal. *)
type recovered = {
  state : Backend.instance;  (** what the probes read *)
  prefixes : int list;  (** allowed commit counts, tried in order *)
  acked_durable : bool;
      (** every acked commit must lie within the matched prefix *)
  note : string;  (** subject facts for the report (survivor, ...) *)
  catchups : int * int;  (** replication snapshot / log-replay catch-ups *)
  release : unit -> unit;
}

type instance = {
  store : Backend.instance;  (** the local store (what a server serves) *)
  env : Hyper_storage.Vfs.Faulty.env;  (** the VFS crashes are armed on *)
  apply : Trace.op -> Trace.outcome;  (** raises an {!is_crash} exception *)
  before_op : int -> unit;  (** the subject's fault schedule, before op [i] *)
  recover : crashed:bool -> acked:int -> in_flight:bool -> recovered;
      (** after the loop, whether or not the crash fired: power-fail
          (or fail over) and reopen *)
  close : unit -> unit;
}

(** A constructor, not a connection: shrinking and the crash loop need
    fresh, identically-seeded instances. *)
type subject = { name : string; fresh : unit -> instance }

val generate : gen_seed:int64 -> level:int -> Backend.instance -> unit
(** Build the generated database into an empty store. *)

val local :
  name:string ->
  gen_seed:int64 ->
  level:int ->
  (Hyper_storage.Vfs.t -> Backend.instance * (unit -> unit)) ->
  subject
(** A local store: [open_ vfs] opens it (and, after the power failure,
    recovers it) with its closer.  Recovery allows the acked prefix, or
    acked+1 when a commit was in flight at the crash. *)

val oracle : gen_seed:int64 -> level:int -> subject

val crash_config : Hyper_storage.Vfs.t -> Hyper_diskdb.Diskdb.config
(** The crash-mode diskdb configuration ([durable_sync], group commit
    with a zero hold window, local, no prefetch, path ["/fuzz/disk.db"])
    over the given VFS. *)

val disk_instance : Hyper_diskdb.Diskdb.t -> Backend.instance

val quietly : ('a -> unit) -> 'a -> unit -> unit
(** [quietly close store] is a closer that ignores storage errors (a
    crashed store may refuse to close cleanly). *)

(** The local subjects.  [Disk_remote] runs diskdb over the simulated
    workstation/server channel ({!Hyper_net.Channel.profile_test}) with
    traversal prefetch on, so group fetches are checked too. *)
type kind = Disk | Disk_remote | Rel

val kind_name : kind -> string
val kind_of_name : string -> kind option
val all_kinds : kind list

val subject : ?durable:bool -> gen_seed:int64 -> level:int -> kind -> subject
(** [durable] (default [false]) turns on [durable_sync] (and, for the
    disk kinds, group commit): an acked commit must survive a power
    failure by its own fsync. *)

(** {2 The differential check} *)

val check :
  oracle:subject -> subject:subject -> Trace.op list -> divergence option
(** Replay the trace on fresh oracle and subject instances; return the
    first step that disagrees.  A trailing [Verify_checks] is appended,
    so structural corruption no generated read observed still fails the
    run. *)

val shrink :
  oracle:subject ->
  subject:subject ->
  Trace.op list ->
  divergence ->
  Trace.op list * divergence
(** Minimise a diverging trace, qcheck-style, preserving the trace
    shape invariants ({!Gen}): truncate after the divergence step, then
    repeatedly drop whole transaction blocks / standalone ops, then
    single ops inside surviving blocks, to a fixpoint.  [Begin] and
    [Commit]/[Abort] are only ever removed together with their whole
    block, so mutations never escape transactions (which would
    manufacture false divergences out of memdb's leniency).  Returns
    the minimal trace and its divergence. *)

(** {2 The crash loop and the acked-prefix verdict} *)

type crash_report = {
  crash_step : int option;  (** op the crash interrupted; [None]: never fired *)
  acked : int;  (** commits acknowledged before the crash *)
  in_flight : bool;  (** the crash fired during a commit *)
  matched : int option;  (** the allowed prefix the recovered state equals *)
  acked_lost : bool;  (** an acked commit is missing while promised *)
  divergence : divergence option;  (** against the first allowed prefix *)
  note : string;
  catchups : int * int;
}

val crash_ok : crash_report -> bool
val pp_crash_report : Format.formatter -> crash_report -> unit

val crash_writes : subject -> Trace.op list -> int
(** Dry run on an unfaulted instance: how many mutating VFS ops the
    trace performs after setup — the size of the crash-point space. *)

val crash_check :
  gen_seed:int64 ->
  level:int ->
  crash_after:int ->
  subject ->
  Trace.op list ->
  crash_report
(** Arm a crash after [crash_after] mutating VFS ops (0: none), replay
    until the subject crashes, recover, and judge the recovered state
    with {!verdict}. *)

val verdict :
  gen_seed:int64 ->
  level:int ->
  backend:string ->
  Trace.op list ->
  Backend.instance ->
  int list ->
  int option * divergence option
(** [verdict ops state prefixes]: the first commit count [k] in
    [prefixes] at which an exhaustive read-only probe of every OID the
    layout or [ops] mentions (plus scans, ranges and [Verify_checks])
    agrees with a memdb oracle replaying [ops] through its [k]-th
    commit; otherwise the divergence against the first [k]. *)
