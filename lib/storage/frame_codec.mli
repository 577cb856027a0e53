(** The one frame codec: WAL records ({!Wal}), replication messages
    ([Hyper_repl.Frame]) and wire frames ([Hyper_net.Wire]) share one
    header, one CRC rule and one decoder.

    {v
    offset 0   magic   1 byte   one per stream
    offset 1   kind    1 byte   the stream's record or message tag
    offset 2   length  4 bytes  body length, little-endian
    offset 6   CRC     4 bytes  CRC-32 ({!Page.checksum}) of bytes 0-5, then the body
    offset 10  body
    v}

    The CRC covers the header too, so a flipped length or kind fails like
    a flipped body byte.  Only this module and the pager checksum (the
    [one-checksum] hyperlint rule). *)

val header_bytes : int
(** 10: the bytes a frame adds to its body. *)

type error =
  | Bad_magic of int
  | Unknown_kind of int
  | Oversized of { length : int; limit : int }
  | Bad_crc of { expected : int; got : int }
  | Malformed of string
      (** A stream's body parser rejected a frame that {!check} passed;
          {!check} itself never returns it. *)

val error_to_string : error -> string

val write :
  magic:int -> kind:int -> len:int -> ('a -> bytes -> int -> unit) -> 'a ->
  bytes
(** [write ~magic ~kind ~len fill v] allocates one frame with a [len]-byte
    body, calls [fill v b off] to write the body at [b.(off ..)], then
    stamps the header and the CRC.  The body is never copied, and [v] is
    passed apart so a top-level [fill] needs no closure. *)

type checked =
  | Frame of { kind : int; body : int; len : int; stop : int }
      (** A whole frame: its kind, its body's offset and length, and the
          offset just past it. *)
  | Short
  | Bad of error

val check :
  magic:int -> kinds:(int -> bool) -> max:int -> bytes -> off:int -> len:int ->
  checked
(** [check ~magic ~kinds ~max b ~off ~len] looks for one frame at the
    start of the window [b.(off .. off + len - 1)]: [Frame] when a whole
    frame with a good CRC is there, [Short] when every byte present is
    consistent with one but more are needed, or [Bad] with the first
    header field that is wrong ([kinds] names this stream's kinds, [max]
    caps the body length).  The magic and kind are judged as soon as
    their bytes arrive, so garbage fails before a frame's worth of it is
    buffered.  Never raises for any window inside [b]. *)
