(** Write-ahead log (R10: logging, backup and recovery).

    Redo records of the bytes a transaction changed, plus undo records
    for the pages the buffer pool steals before commit:

    - [Begin t] opens transaction [t];
    - [After (t, p, ranges)] carries the new bytes of every span of [p]
      that [t] changed since the page's last logged image.  The engine
      logs one per dirty page at commit (diffed against the page's
      pre-image or last stolen image), and one when a dirty page is
      stolen, before it is written (the write-ahead rule);
    - [Before (t, p, ranges)] carries the bytes [p] held before [t] for
      every span a steal is about to overwrite.  It is logged only on
      steal: a page that never reaches the data file before commit needs
      no undo;
    - [Commit t] seals the transaction;
    - [Checkpoint] states that all committed work has reached the main
      file, allowing log truncation.

    A record is one {!Frame_codec} frame with magic {!entry_magic}.  Its
    body is the txn (u32), then for [Before]/[After] the page (u32) and
    the ranges back to back, each a u16 page offset, a u16 length and
    the bytes: 14 bytes of overhead for [Begin]/[Commit], 18 for a range
    record.  {!read_all} stops cleanly at the first short or bad frame,
    a torn or corrupt tail, which is what makes crash-recovery tests
    meaningful. *)

type range = int * bytes
(** A page offset and the bytes found there. *)

type entry =
  | Begin of int
  | Before of int * int * range list
  | After of int * int * range list
  | Commit of int
  | Checkpoint

val entry_magic : int
(** First byte of every record ([0xAA]).  A log whose first record
    carries an earlier format's magic ([0xA7]-[0xA9]) is refused with
    {!Storage_error.Unsupported_format} by {!open_} and {!scan}. *)

val diff : bytes -> bytes -> (int * int) list
(** [diff old cur] lists the spans, as (offset, length) in ascending
    order, where [cur] differs from [old]; spans at most 4 equal bytes
    apart (a range header) are merged.  Equal buffers give [[]].
    @raise Invalid_argument if the lengths differ. *)

val ranges : bytes -> (int * int) list -> range list
(** [ranges src spans] copies the bytes of [src] under each span. *)

val patch : bytes -> range list -> unit
(** Write each range's bytes into the page at its offset, in order. *)

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

val set_on_append : t -> (int -> entry -> bytes -> unit) option -> unit
(** Stream cursor: called synchronously on every append with the
    assigned LSN, the entry and the record bytes {!append} encoded
    ({!encode_entry}'s image; the observer must not mutate them).  At
    most one observer; [None] detaches. *)

val encode_entry : entry -> bytes
(** Wire/on-disk image of one record: its frame — the exact bytes
    {!append} buffers.  Shipped replication
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
