(** MVCC snapshot-consistency fuzzing.

    Two generators, both seed-deterministic in what they schedule (the
    thread interleaving itself is the only nondeterminism — which is
    the point):

    {!store_check} hammers one {!Hyper_txn.Version_store} with writer
    threads running first-committer-wins transactions while reader
    threads pin snapshots and sweep every key.  Each sweep is validated
    {e while the snapshot is still pinned} (so GC cannot have touched
    the versions it depends on) against the store's own history: a
    snapshot at [ts] must see exactly the newest version with
    timestamp ≤ [ts], and two sweeps of one snapshot must agree even
    though commits landed in between.  Version GC runs throughout, so
    watermark violations (pruning a version a live snapshot needs)
    surface as stale or torn reads.

    {!backend_check} replays a generated trace ({!Gen}) on a live
    memdb, cloning a {!Hyper_core.Backend.S.snapshot} view at points
    between transactions.  After the full trace has run, each view is
    probed exhaustively and compared against a fresh oracle replay of
    exactly the prefix that was committed when the view was cloned
    ({!Differential.verdict}) — any write that leaked through
    the clone after the fact is a divergence. *)

type violation = {
  v_kind : string;  (** e.g. ["stale-read"], ["torn-snapshot"] *)
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val store_check :
  seed:int64 ->
  writers:int ->
  readers:int ->
  keys:int ->
  txns_per_writer:int ->
  violation option
(** First violation any thread observed, if any.  [writers]/[readers]
    are thread counts; values written encode (writer, iteration) so a
    misdirected read identifies its source. *)

val backend_check :
  gen_seed:int64 ->
  level:int ->
  snap_every:int ->
  Hyper_core.Trace.op list ->
  violation option
(** Replay the trace on memdb, cloning a view whenever at least
    [snap_every] ops have passed outside a transaction. *)
