(** Replication wire frames.

    Every frame carries the sender's [epoch] — the fencing token.  A
    node that receives a frame from an older epoch answers [Fence] with
    its own epoch instead of acting on it; a frame from a newer epoch
    makes the receiver adopt that epoch.  Handlers must therefore
    always look at the epoch field before anything else (the
    [epoch-check] hyperlint rule enforces this at the pattern level).

    [Append] payloads are concatenated WAL records in their on-disk
    encoding ({!Hyper_storage.Wal.encode_entry}), so every shipped
    record keeps its own CRC; the frame adds a second, frame-level CRC
    over the whole message.  [base_lsn] is the LSN of the payload's
    first record.

    Layout: a magic byte ([0xB5]), a tag byte, then the little-endian u32 fields
    of the variant (byte strings as u32 length plus bytes), then a full
    32-bit CRC-32 ({!Hyper_storage.Page.checksum}) of everything before
    it.

    [Ack { lsn; _ }] means "my received log is contiguous through
    [lsn - 1]; [lsn] is the next record I expect".  [Nak] requests a
    resend from [lsn] (gap, or a torn/garbled payload). *)

type t =
  | Append of { epoch : int; base_lsn : int; payload : bytes }
  | Heartbeat of { epoch : int; commit_lsn : int }
  | Snapshot of {
      epoch : int;
      lsn : int;
      commits : int;
      files : (string * bytes) list;
    }
  | Ack of { epoch : int; lsn : int }
  | Nak of { epoch : int; lsn : int }
  | Fence of { epoch : int }

val epoch_of : t -> int

val ack_lsn : t -> int option
(** [Some lsn] when the frame is an [Ack]. *)

val encode : t -> bytes

val decode : bytes -> t option
(** [None] on bad magic, bad CRC, truncation or an unknown tag — a
    garbled frame is dropped, never half-parsed. *)

val to_string : t -> string
