(** Write-ahead log (R10: logging, backup and recovery).

    ARIES-lite, page-granular:

    - [Begin t] opens transaction [t];
    - [Before (t, p, img)] is logged when [p] is first dirtied inside [t]
      (undo image);
    - [After (t, p, img)] is logged at commit for every dirty page, and
      earlier if a dirty page must be stolen by the buffer pool (redo
      image, honouring the write-ahead rule);
    - [Commit t] seals the transaction;
    - [Checkpoint] states that all committed work has reached the main
      file, allowing log truncation.

    A record is a 14-byte header ({!entry_magic}, kind, txn, page,
    payload length), the payload, and a CRC-32 ({!Page.checksum}) over
    header and payload.  {!read_all} stops cleanly at a torn or corrupt
    tail, which is what makes crash-recovery tests meaningful. *)

type entry =
  | Begin of int
  | Before of int * int * bytes
  | After of int * int * bytes
  | Commit of int
  | Checkpoint

val entry_magic : int
(** First byte of every record.  A log whose first record carries the
    previous format's magic is refused with
    {!Storage_error.Unsupported_format} by {!open_} and {!scan}. *)

type t

val open_ : ?vfs:Vfs.t -> string -> t
(** Opens for appending (creates when absent) through [vfs] (default
    {!Vfs.real}).  A torn or garbled tail left by a crash is truncated
    away so subsequent appends extend the clean prefix.  A log in the
    previous record format raises {!Storage_error.Error} rather than
    being truncated as torn.  Appends are
    buffered in memory; {!flush} issues them to the vfs, which is what
    establishes write-ahead ordering relative to page writes. *)

val append : t -> entry -> unit

val lsn : t -> int
(** Sequence number the next {!append} will be assigned.  LSNs count
    appends since [open_] — they are not byte offsets, and survive
    {!truncate} (replication keys its shipping cursor on them). *)

val set_on_append : t -> (int -> entry -> unit) option -> unit
(** Stream cursor: called synchronously on every append with the
    assigned LSN.  At most one observer; [None] detaches. *)

val encode_entry : entry -> bytes
(** Wire/on-disk image of one record: header, payload and the record
    CRC — the exact bytes {!append} buffers.  Shipped replication
    frames carry these verbatim so the per-record checksum travels. *)

val decode_entries : bytes -> entry list * bool
(** Decode a clean prefix of concatenated records; the flag is [true]
    when trailing bytes were torn or garbled. *)

type scan_result = { entries : entry list; clean_bytes : int; torn : bool }

val scan : ?vfs:Vfs.t -> string -> scan_result
(** Like {!read_all} but also reports where the clean prefix ends. *)

val flush : t -> unit
val sync : t -> unit
(** [flush] then fsync — the commit durability point. *)

val sync_file : t -> unit
(** Fsync {e without} flushing: the group-commit durability barrier.
    Every committer covered by the barrier must have {!flush}ed its own
    bytes before the call (the {!Group_commit} scheduler enforces this
    by construction).  Unlike {!sync} this never touches the append
    buffer, so the group leader may call it while other threads are
    appending their next transactions. *)

val sync_count : t -> int
(** Durability barriers ({!sync} + {!sync_file}) since [open_] — a
    plain per-log counter, counted whether or not the metrics sink is
    enabled (the benchmark reports fsyncs per committed transaction
    from this). *)

val truncate : t -> unit
(** Discard the log contents (after a checkpoint). *)

val size_bytes : t -> int
val close : t -> unit

val read_all : ?vfs:Vfs.t -> string -> entry list
(** Entire readable prefix of the log, ignoring a torn tail.  Returns []
    for a missing file. *)

val entry_to_string : entry -> string
