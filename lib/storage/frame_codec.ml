let header_bytes = 10

type error =
  | Bad_magic of int
  | Unknown_kind of int
  | Oversized of { length : int; limit : int }
  | Bad_crc of { expected : int; got : int }
  | Malformed of string

let error_to_string = function
  | Bad_magic m -> Printf.sprintf "bad magic 0x%02x" m
  | Unknown_kind k -> Printf.sprintf "unknown frame kind %d" k
  | Oversized { length; limit } ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" length limit
  | Bad_crc { expected; got } ->
    Printf.sprintf "frame CRC mismatch (expected %08x, got %08x)" expected got
  | Malformed msg -> "malformed body: " ^ msg

(* Header fields through the Bytes primitives, which inline here. *)
let get_u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF
let set_u32 b i v = Bytes.set_int32_le b i (Int32.of_int v)

let stamp b off ~magic ~kind ~len =
  Bytes.set_uint8 b off magic;
  Bytes.set_uint8 b (off + 1) kind;
  set_u32 b (off + 2) len

(* The header is first stamped right before the body, at offset 4, so
   one CRC call covers it and the body (on a small body the call costs
   more than the bytes); the real header then overwrites that copy. *)
let write ~magic ~kind ~len fill v =
  let b = Bytes.create (header_bytes + len) in
  fill v b header_bytes;
  stamp b 4 ~magic ~kind ~len;
  let crc = Page.checksum_update 0 b ~pos:4 ~len:(6 + len) in
  stamp b 0 ~magic ~kind ~len;
  set_u32 b 6 crc;
  b

type checked =
  | Frame of { kind : int; body : int; len : int; stop : int }
  | Short
  | Bad of error

let check ~magic ~kinds ~max b ~off ~len =
  if len >= 1 && Bytes.get_uint8 b off <> magic then
    Bad (Bad_magic (Bytes.get_uint8 b off))
  else if len >= 2 && not (kinds (Bytes.get_uint8 b (off + 1))) then
    Bad (Unknown_kind (Bytes.get_uint8 b (off + 1)))
  else if len < header_bytes then Short
  else
    let blen = get_u32 b (off + 2) in
    if blen > max then Bad (Oversized { length = blen; limit = max })
    else if len - header_bytes < blen then Short
    else
      let expected = get_u32 b (off + 6)
      and got =
        Page.checksum_update (Page.checksum_update 0 b ~pos:off ~len:6) b
          ~pos:(off + header_bytes) ~len:blen
      in
      if got <> expected then Bad (Bad_crc { expected; got })
      else
        Frame
          { kind = Bytes.get_uint8 b (off + 1); body = off + header_bytes;
            len = blen; stop = off + header_bytes + blen }
