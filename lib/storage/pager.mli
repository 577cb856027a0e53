(** File-backed page store.

    One pager owns one database file addressed as an array of
    {!Page.size}-byte pages.  All physical I/O in a backend flows through
    here, which gives a single point for

    - counting reads and writes (the benchmark's I/O statistics),
    - simulating slower media or a remote page server: the [on_read] /
      [on_write] hooks fire once per physical page transfer, and typically
      advance {!Hyper_util.Vclock} by a modelled latency, and
    - fault injection: all physical I/O goes through a {!Vfs.t}, never
      through [Unix] directly.

    Every page carries a CRC-32 stored in a [path ^ ".sum"] sidecar
    (4 bytes per page, written on every page write).  Reads verify it and
    raise {!Storage_error.Error} ([Corrupt_page]) on mismatch, so a torn
    write or bit rot is caught at the pager instead of corrupting the
    heap or the indexes silently.  A zero slot (sidecar hole, or a file
    that predates checksums) is accepted unverified. *)

type t

type stats = { mutable reads : int; mutable writes : int; mutable allocs : int }

val sum_path : string -> string
(** The checksum sidecar of the data file at the given path. *)

val create : ?vfs:Vfs.t -> string -> t
(** [create path] opens (or creates) the file at [path] (and its
    {!sum_path} sidecar) through [vfs] (default {!Vfs.real}).  A partial page at the
    tail of the file — a torn append left by a crash — is truncated away;
    WAL replay re-extends the file if a committed transaction mentions
    the page. *)

val in_memory : unit -> t
(** A pager backed by an expandable in-RAM array instead of a file —
    used in tests and by backends running in "diskless" mode.  Hooks and
    statistics behave identically. *)

val page_count : t -> int

val allocate : t -> int
(** Extend the store by one zeroed page and return its id. *)

val read : t -> int -> bytes
(** A fresh copy of the page contents.
    @raise Invalid_argument for an id that was never allocated. *)

val read_view : t -> int -> bytes * bool
(** Zero-copy read: the page contents plus an ownership flag.  [(buf,
    true)] — [buf] is freshly allocated and the caller may keep and
    mutate it (File backing).  [(buf, false)] — [buf]
    aliases the pager's in-memory backing store: treat it as read-only,
    copy before mutating, and do not retain it past the next {!write}
    or {!allocate} of the same page (the store then swaps the buffer
    out and the view goes stale).  Hooks and statistics fire exactly
    like {!read}. *)

val read_many : t -> int list -> bytes list
(** [read_many t ids] reads the pages as one vectored
    {!Vfs.file.pread_multi} (data and checksum sidecar each get a single
    call) and verifies every page's CRC.  Statistics count one read per
    page, but the batched hook — when installed via [set_hooks
    ~on_read_many] — fires {e once} with the whole id list, so a remote
    channel can charge one round trip for the group.  Without a batched
    hook, [on_read] fires per page as usual.  Duplicate ids are read
    twice; order of the result matches [ids].
    @raise Invalid_argument if any id was never allocated. *)

val read_many_views : t -> int list -> (bytes * bool) list
(** {!read_many} without the defensive copies: each page comes back as
    a {!read_view}-style [(buf, owned)] pair.  Same vectored I/O,
    verification, hook and statistics behaviour as {!read_many}. *)

val read_unverified : t -> int -> bytes
(** Like {!read} but skips checksum verification, fires no hooks and
    counts no statistics.  For probing pages whose integrity is unknown
    by design — e.g. deciding whether page 0 of a file that survived a
    crash during formatting carries the meta magic. *)

val write : t -> int -> bytes -> unit
(** @raise Invalid_argument on an unallocated id or wrong buffer size. *)

val sync : t -> unit
(** Flush to stable storage (no-op for in-memory pagers). *)

val close : t -> unit

val set_hooks :
  ?on_read_many:(int list -> unit) ->
  t -> on_read:(int -> unit) -> on_write:(int -> unit) -> unit
(** Install I/O hooks.  [on_read]/[on_write] receive the page id, once
    per physical page transfer.  [on_read_many], when supplied, replaces
    the per-page [on_read] for {!read_many} batches: it receives the
    whole id list once (the "group fetch" of the remote channel).  When
    absent, batches fall back to per-page [on_read]. *)

val clear_hooks : t -> unit
val stats : t -> stats
val reset_stats : t -> unit
