(** Replication wire frames.

    Every frame carries the sender's [epoch] — the fencing token.  A
    node that receives a frame from an older epoch answers [Fence] with
    its own epoch instead of acting on it; a frame from a newer epoch
    makes the receiver adopt that epoch.  Handlers must therefore
    always look at the epoch field before anything else (the
    [epoch-check] hyperlint rule enforces this at the pattern level).

    A message is one {!Hyper_storage.Frame_codec} frame (DESIGN.md
    §15): magic [0xB6], the variant's tag as the kind, the body length
    and one CRC-32 over header and body.  The body is the epoch, then
    the variant's u32 fields; a snapshot file is a u32-length name and
    u32-length data.  An [Append] payload fills the rest of the body: it
    is concatenated WAL records as written
    ({!Hyper_storage.Wal.encode_entry}), so every shipped record keeps
    its own CRC inside the message's.  [base_lsn] is the LSN of the
    payload's first record.

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
(** [None] on a bad or short frame, an unknown tag, or a body that does
    not hold exactly the tag's fields — a garbled frame is dropped,
    never half-parsed. *)

val to_string : t -> string
