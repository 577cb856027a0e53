(** A fuzz case: a subject, a fault schedule and the trace — what every
    [hyperfuzz] preset generates, what {!check} judges, and what a
    repro file holds.  A saved finding replays through {!check}, the
    very check that found it.

    Repro files are one header line of [key=value] fields followed by
    one {!Hyper_core.Trace.op} per line:
    {v
# hyperfuzz v1 gen_seed=42 level=3 preset=net subject=diskdb seed=7 crash_after=40
    v}
    [preset] picks the subject family ([run], [net], [failover],
    [mvcc]; default [run]), [subject] the store, and [crash_after] the
    crash loop.  [failover] adds its {!Failover.config} fields, [mvcc]
    its snapshot interval or version-store shape.  A bare
    [# hyperfuzz v1 gen_seed=… level=…] header (the [test/corpus]
    traces) is the differential check on every local subject. *)

type subject =
  | Local of Differential.kind  (** [run] *)
  | Wire of Differential.kind  (** [net]: the durable store behind a server *)
  | Replicated of Failover.config  (** [failover]: a diskdb primary *)
  | Snapshots of int  (** [mvcc]: memdb views cloned every [n] ops *)
  | Store of { writers : int; readers : int; keys : int; txns : int }
      (** [mvcc]: {!Mvcc_check.store_check}; runs no trace *)

type case = {
  subject : subject;
  crash_after : int option;
      (** [Some k]: the crash loop, a crash armed after [k] mutating VFS
          ops (0: none); [None]: the op-by-op differential check *)
  seed : int64;  (** the trace seed (and the failover link-fault seed) *)
  gen_seed : int64;
  level : int;
  ops : Hyper_core.Trace.op list;
}

val preset : case -> string

type outcome = {
  ok : bool;
  repro : case;  (** the case to save on failure: shrunk when asked *)
  report : string;
  crashed : bool;  (** a crash point fired *)
  catchups : int * int;  (** replication snapshot / log-replay catch-ups *)
}

val check : ?shrink:bool -> case -> outcome
(** Run the case's check.  [shrink] (default [false]) minimises a
    differential divergence ({!Differential.shrink}). *)

val file_name : case -> string
(** [<preset>-<seed>-<subject>[-crash<k>].trace] *)

val save : path:string -> case -> unit

val load : ?local:Differential.kind list -> string -> case list
(** One case, or one per [local] subject (default all) for a header
    without [subject].  @raise Failure on a malformed file. *)
