(** The binary wire protocol of the socket server.

    A frame is one {!Hyper_storage.Frame_codec} frame (DESIGN.md §15):
    magic [0xC2], the kind (requests < 128 <= responses), the body
    length and one CRC-32 over header and body.  Protocol 1's ["HM"]
    frames fail with [Bad_magic].

    Request bodies carry batches of reified {!Hyper_core.Trace.op} —
    the same vocabulary the differential fuzzer replays, serialised in
    its canonical one-line grammar — so anything expressible against
    {!Hyper_core.Backend.S} is expressible on the wire, and a captured
    byte stream doubles as a replayable trace.  Response bodies carry
    {!Hyper_core.Trace.outcome} values in a binary codec (the text
    rendering of outcomes elides long lists and is not re-readable).

    Decoding is stream-oriented and partial-read resilient: bytes are
    fed to a {!Decoder} in whatever chunks the transport produced
    (including one byte at a time) and whole frames pop out as they
    complete.  Every failure is a typed {!error}; no input, however
    torn or corrupt, raises. *)

open Hyper_core

val protocol_version : int

val max_frame_default : int
(** Default decode-side frame cap (16 MiB): an [Ops] batch over a
    level-6 store result or a snapshot-sized form fits; a corrupt
    length field does not cause a multi-gigabyte allocation. *)

(** {2 Frames} *)

type request =
  | Hello of { client : string; protocol : int }
      (** First frame on a connection; the server replies [Welcome]. *)
  | Ops of { rid : int; ops : Trace.op list }
      (** One pipelined request: apply the batch in order, reply
          [Results] with one outcome per op under the same [rid].
          Clients assign [rid]s monotonically; the server replies in
          request order. *)
  | Ping of { rid : int }
  | Snapshot of { rid : int; active : bool }
      (** Toggle snapshot mode on the session.  [active = true] pins a
          consistent read-only view of the committed state; subsequent
          [Ops] batches read the view without taking the engine lease,
          so they proceed while another session holds it.  Mutations and
          transaction control inside a snapshot raise
          [Snapshot_read_only].  [active = false] drops the view.  The
          server replies [Results] with one [Done V_unit], or [Fault]
          with [F_bad_op] when the backend cannot snapshot or the
          session is inside a transaction. *)
  | Bye  (** Orderly goodbye; the server closes after its in-flight
             replies. *)

type fault_code =
  | F_bad_frame  (** framing/decoding error; the connection is dropped *)
  | F_bad_op  (** an op line failed to parse *)
  | F_draining  (** server is draining; no new requests accepted *)
  | F_internal  (** unexpected server-side failure *)

type response =
  | Welcome of { session : int; server : string; protocol : int }
  | Results of { rid : int; outcomes : Trace.outcome list }
  | Fault of { rid : int; code : fault_code; message : string }
      (** [rid = -1] means the fault is connection-level, not a reply
          to a particular request. *)
  | Pong of { rid : int }

val fault_code_to_string : fault_code -> string

(** {2 Encoding} *)

val encode_request : request -> bytes
val encode_response : response -> bytes

(** {2 Decoding} *)

type error = Hyper_storage.Frame_codec.error =
  | Bad_magic of int
  | Unknown_kind of int
  | Oversized of { length : int; limit : int }
  | Bad_crc of { expected : int; got : int }
  | Malformed of string  (** the body does not parse *)

val error_to_string : error -> string

module Decoder : sig
  (** A streaming decoder for one direction of one connection.

      [feed] {e copies} the given slice into the decoder's own buffer:
      callers may (and the server does) reuse their read buffer for the
      next [read] immediately — no decoded frame ever aliases transport
      memory.

      Any error poisons the stream: after a framing or body error,
      every subsequent {!next} returns the same error.  Resynchronising
      inside a corrupt byte stream is guesswork; the peer must drop the
      connection, which is what both ends do. *)

  type 'a t

  val create_request : ?max_frame:int -> unit -> request t
  val create_response : ?max_frame:int -> unit -> response t

  val feed : _ t -> bytes -> off:int -> len:int -> unit
  (** Append a received slice.  @raise Invalid_argument on an invalid
      slice (not on any property of the bytes themselves). *)

  val next : 'a t -> ('a, error) result option
  (** The next complete frame, a typed error, or [None] when more
      bytes are needed.  The body is parsed in place in the decoder's
      buffer and must fill the frame exactly. *)

  val buffered : _ t -> int
  (** Bytes fed but not yet consumed by completed frames. *)
end
