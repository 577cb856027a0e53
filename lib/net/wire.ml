open Hyper_core

let protocol_version = 1
let max_frame_default = 16 * 1024 * 1024
let magic0 = Char.code 'H'
let magic1 = Char.code 'M'
let header_bytes = 12

type request =
  | Hello of { client : string; protocol : int }
  | Ops of { rid : int; ops : Trace.op list }
  | Ping of { rid : int }
  | Snapshot of { rid : int; active : bool }
  | Bye

type fault_code = F_bad_frame | F_bad_op | F_draining | F_internal

type response =
  | Welcome of { session : int; server : string; protocol : int }
  | Results of { rid : int; outcomes : Trace.outcome list }
  | Fault of { rid : int; code : fault_code; message : string }
  | Pong of { rid : int }

let fault_code_to_string = function
  | F_bad_frame -> "bad-frame"
  | F_bad_op -> "bad-op"
  | F_draining -> "draining"
  | F_internal -> "internal"

type error =
  | Bad_magic of int
  | Bad_version of int
  | Bad_crc of { expected : int; got : int }
  | Oversized of { length : int; limit : int }
  | Unknown_kind of int
  | Malformed of string

let error_to_string = function
  | Bad_magic m -> Printf.sprintf "bad magic 0x%04x" m
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_crc { expected; got } ->
    Printf.sprintf "body CRC mismatch (expected %08x, got %08x)" expected got
  | Oversized { length; limit } ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" length limit
  | Unknown_kind k -> Printf.sprintf "unknown frame kind %d" k
  | Malformed msg -> "malformed body: " ^ msg

(* --- body writers --- *)

let add_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_bool buf b = Buffer.add_uint8 buf (if b then 1 else 0)

let encode_value buf = function
  | Trace.V_unit -> Buffer.add_uint8 buf 0
  | Trace.V_int n ->
    Buffer.add_uint8 buf 1;
    add_int buf n
  | Trace.V_int_opt None -> Buffer.add_uint8 buf 2
  | Trace.V_int_opt (Some n) ->
    Buffer.add_uint8 buf 3;
    add_int buf n
  | Trace.V_ints l ->
    Buffer.add_uint8 buf 4;
    add_int buf (List.length l);
    List.iter (add_int buf) l
  | Trace.V_oids l ->
    Buffer.add_uint8 buf 5;
    add_int buf (List.length l);
    List.iter (add_int buf) l
  | Trace.V_links l ->
    Buffer.add_uint8 buf 6;
    add_int buf (List.length l);
    List.iter
      (fun (t, f, o) ->
        add_int buf t;
        add_int buf f;
        add_int buf o)
      l
  | Trace.V_pairs l ->
    Buffer.add_uint8 buf 7;
    add_int buf (List.length l);
    List.iter
      (fun (o, d) ->
        add_int buf o;
        add_int buf d)
      l
  | Trace.V_string s ->
    Buffer.add_uint8 buf 8;
    add_str buf s
  | Trace.V_checks l ->
    Buffer.add_uint8 buf 9;
    add_int buf (List.length l);
    List.iter
      (fun (name, ok) ->
        add_str buf name;
        add_bool buf ok)
      l
  | Trace.V_form (w, h, data) ->
    Buffer.add_uint8 buf 10;
    add_int buf w;
    add_int buf h;
    add_str buf data

let encode_outcome buf = function
  | Trace.Done v ->
    Buffer.add_uint8 buf 0;
    encode_value buf v
  | Trace.Raised cls ->
    Buffer.add_uint8 buf 1;
    add_str buf cls

(* --- body readers ---

   All failures funnel through [fail]/[Failure]; the frame decoder maps
   them to [Malformed].  Every length that drives an allocation or a
   loop is validated against the remaining input first, so a corrupt
   count cannot demand gigabytes or spin. *)

let fail fmt = Printf.ksprintf failwith fmt

let read_u8 b pos =
  if !pos + 1 > Bytes.length b then fail "truncated (u8 at %d)" !pos;
  let v = Bytes.get_uint8 b !pos in
  incr pos;
  v

let read_int b pos =
  if !pos + 8 > Bytes.length b then fail "truncated (int at %d)" !pos;
  let v = Int64.to_int (Bytes.get_int64_le b !pos) in
  pos := !pos + 8;
  v

let read_len ~min_elt b pos =
  let n = read_int b pos in
  if n < 0 then fail "negative count %d" n;
  if min_elt > 0 && n * min_elt > Bytes.length b - !pos then
    fail "count %d exceeds remaining input" n;
  n

let read_str b pos =
  let n = read_len ~min_elt:1 b pos in
  if n > Bytes.length b - !pos then fail "truncated (string of %d at %d)" n !pos;
  let s = Bytes.sub_string b !pos n in
  pos := !pos + n;
  s

let read_bool b pos =
  match read_u8 b pos with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad bool %d" v

let read_list ~min_elt b pos elt =
  let n = read_len ~min_elt b pos in
  List.init n (fun _ -> elt b pos)

let decode_value b ~pos =
  match read_u8 b pos with
  | 0 -> Trace.V_unit
  | 1 -> Trace.V_int (read_int b pos)
  | 2 -> Trace.V_int_opt None
  | 3 -> Trace.V_int_opt (Some (read_int b pos))
  | 4 -> Trace.V_ints (read_list ~min_elt:8 b pos read_int)
  | 5 -> Trace.V_oids (read_list ~min_elt:8 b pos read_int)
  | 6 ->
    Trace.V_links
      (read_list ~min_elt:24 b pos (fun b pos ->
           let t = read_int b pos in
           let f = read_int b pos in
           let o = read_int b pos in
           (t, f, o)))
  | 7 ->
    Trace.V_pairs
      (read_list ~min_elt:16 b pos (fun b pos ->
           let o = read_int b pos in
           let d = read_int b pos in
           (o, d)))
  | 8 -> Trace.V_string (read_str b pos)
  | 9 ->
    Trace.V_checks
      (read_list ~min_elt:9 b pos (fun b pos ->
           let name = read_str b pos in
           let ok = read_bool b pos in
           (name, ok)))
  | 10 ->
    let w = read_int b pos in
    let h = read_int b pos in
    let data = read_str b pos in
    Trace.V_form (w, h, data)
  | t -> fail "unknown value tag %d" t

let decode_outcome b ~pos =
  match read_u8 b pos with
  | 0 -> Trace.Done (decode_value b ~pos)
  | 1 -> Trace.Raised (read_str b pos)
  | t -> fail "unknown outcome tag %d" t

(* --- frame assembly --- *)

let frame ~kind body =
  let blen = Bytes.length body in
  let out = Bytes.create (header_bytes + blen) in
  Bytes.set_uint8 out 0 magic0;
  Bytes.set_uint8 out 1 magic1;
  Bytes.set_uint8 out 2 protocol_version;
  Bytes.set_uint8 out 3 kind;
  Bytes.set_int32_le out 4 (Int32.of_int blen);
  Bytes.set_int32_le out 8 (Int32.of_int (Hyper_storage.Page.checksum body));
  Bytes.blit body 0 out header_bytes blen;
  out

let k_hello = 1
and k_ops = 2
and k_ping = 3
and k_bye = 4
and k_snapshot = 5
and k_welcome = 129
and k_results = 130
and k_fault = 131
and k_pong = 132

let encode_request r =
  let buf = Buffer.create 64 in
  let kind =
    match r with
    | Hello { client; protocol } ->
      add_str buf client;
      add_int buf protocol;
      k_hello
    | Ops { rid; ops } ->
      add_int buf rid;
      add_int buf (List.length ops);
      List.iter (fun op -> add_str buf (Trace.op_to_string op)) ops;
      k_ops
    | Ping { rid } ->
      add_int buf rid;
      k_ping
    | Snapshot { rid; active } ->
      add_int buf rid;
      add_bool buf active;
      k_snapshot
    | Bye -> k_bye
  in
  frame ~kind (Buffer.to_bytes buf)

let fault_code_tag = function
  | F_bad_frame -> 1
  | F_bad_op -> 2
  | F_draining -> 3
  | F_internal -> 4

let fault_code_of_tag = function
  | 1 -> F_bad_frame
  | 2 -> F_bad_op
  | 3 -> F_draining
  | 4 -> F_internal
  | t -> fail "unknown fault code %d" t

let encode_response r =
  let buf = Buffer.create 64 in
  let kind =
    match r with
    | Welcome { session; server; protocol } ->
      add_int buf session;
      add_str buf server;
      add_int buf protocol;
      k_welcome
    | Results { rid; outcomes } ->
      add_int buf rid;
      add_int buf (List.length outcomes);
      List.iter (encode_outcome buf) outcomes;
      k_results
    | Fault { rid; code; message } ->
      add_int buf rid;
      Buffer.add_uint8 buf (fault_code_tag code);
      add_str buf message;
      k_fault
    | Pong { rid } ->
      add_int buf rid;
      k_pong
  in
  frame ~kind (Buffer.to_bytes buf)

let parse_op line =
  try Trace.op_of_string line
  with Failure msg -> fail "op: %s" msg

let parse_request ~kind body =
  let pos = ref 0 in
  if kind = k_hello then begin
    let client = read_str body pos in
    let protocol = read_int body pos in
    Hello { client; protocol }
  end
  else if kind = k_ops then begin
    let rid = read_int body pos in
    let ops = read_list ~min_elt:9 body pos (fun b pos -> parse_op (read_str b pos)) in
    Ops { rid; ops }
  end
  else if kind = k_ping then Ping { rid = read_int body pos }
  else if kind = k_snapshot then begin
    let rid = read_int body pos in
    let active = read_bool body pos in
    Snapshot { rid; active }
  end
  else if kind = k_bye then Bye
  else fail "kind %d is not a request" kind

let parse_response ~kind body =
  let pos = ref 0 in
  if kind = k_welcome then begin
    let session = read_int body pos in
    let server = read_str body pos in
    let protocol = read_int body pos in
    Welcome { session; server; protocol }
  end
  else if kind = k_results then begin
    let rid = read_int body pos in
    let outcomes = read_list ~min_elt:2 body pos (fun b pos -> decode_outcome b ~pos) in
    Results { rid; outcomes }
  end
  else if kind = k_fault then begin
    let rid = read_int body pos in
    let code = fault_code_of_tag (read_u8 body pos) in
    let message = read_str body pos in
    Fault { rid; code; message }
  end
  else if kind = k_pong then Pong { rid = read_int body pos }
  else fail "kind %d is not a response" kind

(* --- streaming decoder --- *)

module Decoder = struct
  type 'a t = {
    parse : kind:int -> bytes -> 'a;
    request_side : bool;
    max_frame : int;
    mutable buf : bytes;
    mutable start : int;  (* first unconsumed byte *)
    mutable len : int;  (* bytes buffered from [start] *)
    mutable poisoned : error option;
  }

  let make ~request_side ~max_frame parse =
    { parse; request_side; max_frame; buf = Bytes.create 4096; start = 0;
      len = 0; poisoned = None }

  let create_request ?(max_frame = max_frame_default) () =
    make ~request_side:true ~max_frame (fun ~kind body ->
        parse_request ~kind body)

  let create_response ?(max_frame = max_frame_default) () =
    make ~request_side:false ~max_frame (fun ~kind body ->
        parse_response ~kind body)

  let buffered t = t.len

  (* Ensure room for [extra] more bytes past the live region, moving the
     live region to offset 0 first when that alone frees enough. *)
  let reserve t extra =
    let cap = Bytes.length t.buf in
    if t.start + t.len + extra > cap then begin
      if t.len + extra <= cap then begin
        Bytes.blit t.buf t.start t.buf 0 t.len;
        t.start <- 0
      end
      else begin
        let cap' = max (t.len + extra) (2 * cap) in
        let buf' = Bytes.create cap' in
        Bytes.blit t.buf t.start buf' 0 t.len;
        t.buf <- buf';
        t.start <- 0
      end
    end

  let feed t src ~off ~len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Wire.Decoder.feed: invalid slice";
    (* A poisoned stream swallows input: the connection is about to be
       dropped anyway, and retaining bytes would only grow the buffer. *)
    if t.poisoned = None && len > 0 then begin
      reserve t len;
      Bytes.blit src off t.buf (t.start + t.len) len;
      t.len <- t.len + len
    end

  let peek_u8 t i = Bytes.get_uint8 t.buf (t.start + i)

  let peek_u32 t i =
    Int32.to_int (Bytes.get_int32_le t.buf (t.start + i)) land 0xFFFFFFFF

  let poison t e =
    t.poisoned <- Some e;
    t.len <- 0;
    Some (Error e)

  let next t =
    match t.poisoned with
    | Some e -> Some (Error e)
    | None ->
      if t.len < header_bytes then None
      else begin
        let m = (peek_u8 t 0 lsl 8) lor peek_u8 t 1 in
        if m <> (magic0 lsl 8) lor magic1 then poison t (Bad_magic m)
        else if peek_u8 t 2 <> protocol_version then
          poison t (Bad_version (peek_u8 t 2))
        else begin
          let kind = peek_u8 t 3 in
          let wrong_side =
            if t.request_side then kind >= 128 else kind < 128
          in
          let known =
            List.mem kind
              [ k_hello; k_ops; k_ping; k_bye; k_snapshot; k_welcome;
                k_results; k_fault; k_pong ]
          in
          if (not known) || wrong_side then poison t (Unknown_kind kind)
          else begin
            let blen = peek_u32 t 4 in
            if blen > t.max_frame then
              poison t (Oversized { length = blen; limit = t.max_frame })
            else if t.len < header_bytes + blen then None
            else begin
              let expected = peek_u32 t 8 in
              (* Fresh copy: the decoded frame must not alias the ring
                 buffer, which the next [feed] overwrites. *)
              let body = Bytes.sub t.buf (t.start + header_bytes) blen in
              t.start <- t.start + header_bytes + blen;
              t.len <- t.len - (header_bytes + blen);
              if t.len = 0 then t.start <- 0;
              let got = Hyper_storage.Page.checksum body in
              if got <> expected then poison t (Bad_crc { expected; got })
              else
                match t.parse ~kind body with
                | v -> Some (Ok v)
                | exception Failure msg -> poison t (Malformed msg)
            end
          end
        end
      end
end
