(** Typed storage failures.

    Everything that can go wrong between the storage engine and the
    physical medium is reported through this one type instead of raw
    [Unix.Unix_error]s escaping from arbitrary depths:

    - [Io] — a read, write, sync or open failed.  [transient] faults
      (e.g. [EINTR], or a fault-injection rule marked transient) are
      retried with bounded backoff by {!Vfs.retrying}; what callers see
      is therefore already post-retry.
    - [Corrupt_page] — a page read back from disk failed its checksum
      (torn write, bit rot, or an overwritten sidecar); detected at read
      time by {!Pager} so corruption never propagates silently into the
      heap or the indexes.
    - [Read_only] — the engine demoted itself to read-only because the
      WAL could no longer be appended (e.g. [ENOSPC]); committed data
      remains readable, mutations are refused.
    - [Unsupported_format] — a file (the WAL) was written in an older
      on-disk format this build no longer reads; [found] is the magic
      byte seen, [expected] the current one.  Refused rather than
      discarded, so committed but unapplied work is never dropped. *)

type fault = Eio | Enospc | Efault of string  (** any other [Unix.error] *)

type t =
  | Io of { op : string; path : string; fault : fault; transient : bool }
  | Corrupt_page of { path : string; page : int; expected : int; actual : int }
  | Read_only
  | Unsupported_format of { path : string; found : int; expected : int }

exception Error of t

val fault_to_string : fault -> string
val to_string : t -> string

val is_transient : t -> bool
(** Whether a bounded retry is worthwhile. *)

val raise_io : op:string -> path:string -> fault:fault -> transient:bool -> 'a
