(** Crash recovery from the write-ahead log.

    One pass in log order over the records after the last checkpoint:
    the After ranges of committed transactions and the Before ranges of
    transactions without a commit record are patched into the data
    file, page by page.  Under the engine's force policy and the FIFO
    write-back model, a page on disk differs from its recovered image
    only inside logged ranges, so patching repairs torn page writes
    too.  The engine runs one write transaction at a time, so at most
    one transaction is in flight at a crash. *)

type report = {
  committed : int list;   (** transactions redone *)
  rolled_back : int list; (** transactions undone *)
  pages_redone : int;
  pages_undone : int;
}

val apply_log : Wal.entry list -> Pager.t -> int * int
(** Log-order range resolution over a decoded entry list: committed
    transactions' After ranges and uncommitted transactions' Before
    ranges, in log order per page, patched into the pages read with
    {!Pager.read_unverified} and written back with {!Pager.write}
    (which rewrites the checksum).  Pages past the end of the store are
    allocated first.  Returns [(pages_redone, pages_undone)], each page
    counted once, by the kind of its last applied record.  This is the
    core of {!recover} exposed so a replication replica can redo its
    received log without owning a WAL file. *)

val recover : ?vfs:Vfs.t -> wal_path:string -> Pager.t -> report
(** Replay [wal_path] into the pager with {!apply_log}.  Pages
    referenced by the log but beyond the current end of file are
    allocated first (a torn log can legitimately mention pages past the
    data file's end — recovery must extend the file, never crash). *)

val needs_recovery : ?vfs:Vfs.t -> string -> bool
(** True when the log contains entries after the last checkpoint. *)
