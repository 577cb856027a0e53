open Hyper_core

module Codec = Hyper_storage.Frame_codec

let protocol_version = 2
let max_frame_default = 16 * 1024 * 1024

(* Protocol 1 framed with "HM" and a version byte; its frames fail the
   magic check. *)
let frame_magic = 0xC2

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

type error = Codec.error =
  | Bad_magic of int
  | Unknown_kind of int
  | Oversized of { length : int; limit : int }
  | Bad_crc of { expected : int; got : int }
  | Malformed of string

let error_to_string = Codec.error_to_string

(* --- body writers --- *)

let add_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_bool buf b = Buffer.add_uint8 buf (if b then 1 else 0)

let add_list buf add l =
  add_int buf (List.length l);
  List.iter (add buf) l

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
    add_list buf add_int l
  | Trace.V_oids l ->
    Buffer.add_uint8 buf 5;
    add_list buf add_int l
  | Trace.V_links l ->
    Buffer.add_uint8 buf 6;
    add_list buf (fun buf (t, f, o) -> add_int buf t; add_int buf f; add_int buf o) l
  | Trace.V_pairs l ->
    Buffer.add_uint8 buf 7;
    add_list buf (fun buf (o, d) -> add_int buf o; add_int buf d) l
  | Trace.V_string s ->
    Buffer.add_uint8 buf 8;
    add_str buf s
  | Trace.V_checks l ->
    Buffer.add_uint8 buf 9;
    add_list buf (fun buf (name, ok) -> add_str buf name; add_bool buf ok) l
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

   A reader walks a cursor over one body, in place in the decoder's
   buffer, and never past [stop], the body's end.  All failures funnel
   through [fail]/[Failure]; the decoder maps them to [Malformed].
   Every length that drives an allocation or a loop is validated
   against the remaining body first, so a corrupt count cannot demand
   gigabytes or spin. *)

type cursor = { mutable b : bytes; mutable pos : int; mutable stop : int }

let fail fmt = Printf.ksprintf failwith fmt

(* Offset of the next [n] bytes, which the caller then reads. *)
let take c n what =
  if n > c.stop - c.pos then fail "truncated (%s at %d)" what c.pos;
  c.pos <- c.pos + n;
  c.pos - n

let read_u8 c = Bytes.get_uint8 c.b (take c 1 "u8")
let read_int c = Int64.to_int (Bytes.get_int64_le c.b (take c 8 "int"))

let read_len ~min_elt c =
  let n = read_int c in
  if n < 0 then fail "negative count %d" n;
  if n > (c.stop - c.pos) / min_elt then
    fail "count %d exceeds remaining input" n;
  n

let read_str c =
  let n = read_len ~min_elt:1 c in
  Bytes.sub_string c.b (take c n "string") n

let read_bool c =
  match read_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad bool %d" v

let read_list ~min_elt c elt = List.init (read_len ~min_elt c) (fun _ -> elt c)

let read_value c =
  match read_u8 c with
  | 0 -> Trace.V_unit
  | 1 -> Trace.V_int (read_int c)
  | 2 -> Trace.V_int_opt None
  | 3 -> Trace.V_int_opt (Some (read_int c))
  | 4 -> Trace.V_ints (read_list ~min_elt:8 c read_int)
  | 5 -> Trace.V_oids (read_list ~min_elt:8 c read_int)
  | 6 ->
    Trace.V_links
      (read_list ~min_elt:24 c (fun c ->
           let t = read_int c in
           let f = read_int c in
           let o = read_int c in
           (t, f, o)))
  | 7 ->
    Trace.V_pairs
      (read_list ~min_elt:16 c (fun c ->
           let o = read_int c in
           let d = read_int c in
           (o, d)))
  | 8 -> Trace.V_string (read_str c)
  | 9 ->
    Trace.V_checks
      (read_list ~min_elt:9 c (fun c ->
           let name = read_str c in
           let ok = read_bool c in
           (name, ok)))
  | 10 ->
    let w = read_int c in
    let h = read_int c in
    let data = read_str c in
    Trace.V_form (w, h, data)
  | t -> fail "unknown value tag %d" t

let read_outcome c =
  match read_u8 c with
  | 0 -> Trace.Done (read_value c)
  | 1 -> Trace.Raised (read_str c)
  | t -> fail "unknown outcome tag %d" t

(* --- frame assembly --- *)

(* The body is built in [buf] and copied once, into the frame. *)
let blit_body buf b off = Buffer.blit buf 0 b off (Buffer.length buf)

let frame ~kind buf =
  Codec.write ~magic:frame_magic ~kind ~len:(Buffer.length buf) blit_body buf

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
      add_list buf (fun buf op -> add_str buf (Trace.op_to_string op)) ops;
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
  frame ~kind buf

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
      add_list buf encode_outcome outcomes;
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
  frame ~kind buf

let parse_op line =
  try Trace.op_of_string line
  with Failure msg -> fail "op: %s" msg

let parse_request ~kind c =
  if kind = k_hello then begin
    let client = read_str c in
    let protocol = read_int c in
    Hello { client; protocol }
  end
  else if kind = k_ops then begin
    let rid = read_int c in
    let ops = read_list ~min_elt:9 c (fun c -> parse_op (read_str c)) in
    Ops { rid; ops }
  end
  else if kind = k_ping then Ping { rid = read_int c }
  else if kind = k_snapshot then begin
    let rid = read_int c in
    let active = read_bool c in
    Snapshot { rid; active }
  end
  else Bye

let parse_response ~kind c =
  if kind = k_welcome then begin
    let session = read_int c in
    let server = read_str c in
    let protocol = read_int c in
    Welcome { session; server; protocol }
  end
  else if kind = k_results then begin
    let rid = read_int c in
    let outcomes = read_list ~min_elt:2 c read_outcome in
    Results { rid; outcomes }
  end
  else if kind = k_fault then begin
    let rid = read_int c in
    let code = fault_code_of_tag (read_u8 c) in
    let message = read_str c in
    Fault { rid; code; message }
  end
  else Pong { rid = read_int c }

(* --- streaming decoder --- *)

module Decoder = struct
  type 'a t = {
    parse : kind:int -> cursor -> 'a;
    kinds : int -> bool;  (* this side's frame kinds *)
    max_frame : int;
    body : cursor;  (* over the frame being parsed; reused, not allocated *)
    mutable buf : bytes;
    mutable start : int;  (* first unconsumed byte *)
    mutable len : int;  (* bytes buffered from [start] *)
    mutable poisoned : error option;
  }

  let make ~kinds ~max_frame parse =
    let buf = Bytes.create 4096 in
    { parse; kinds; max_frame; body = { b = buf; pos = 0; stop = 0 }; buf;
      start = 0; len = 0; poisoned = None }

  let create_request ?(max_frame = max_frame_default) () =
    make ~kinds:(fun k -> k >= k_hello && k <= k_snapshot) ~max_frame
      parse_request

  let create_response ?(max_frame = max_frame_default) () =
    make ~kinds:(fun k -> k >= k_welcome && k <= k_pong) ~max_frame
      parse_response

  let buffered t = t.len

  (* Ensure room for [extra] more bytes past the live region, moving the
     live region to offset 0 first when that alone frees enough. *)
  let reserve t extra =
    let cap = Bytes.length t.buf in
    if t.start + t.len + extra > cap then begin
      let buf' =
        if t.len + extra <= cap then t.buf
        else Bytes.create (max (t.len + extra) (2 * cap))
      in
      Bytes.blit t.buf t.start buf' 0 t.len;
      t.buf <- buf';
      t.start <- 0
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

  let poison t e =
    t.poisoned <- Some e;
    t.len <- 0;
    Some (Error e)

  let next t =
    match t.poisoned with
    | Some e -> Some (Error e)
    | None -> (
      match
        Codec.check ~magic:frame_magic ~kinds:t.kinds ~max:t.max_frame t.buf
          ~off:t.start ~len:t.len
      with
      | Codec.Short -> None
      | Codec.Bad e -> poison t e
      | Codec.Frame { kind; body; stop; len = _ } -> (
        (* The body is parsed in place: nothing is fed before [next]
           returns, and every decoded value is a fresh copy. *)
        let c = t.body in
        c.b <- t.buf;
        c.pos <- body;
        c.stop <- stop;
        t.len <- t.len - (stop - t.start);
        t.start <- (if t.len = 0 then 0 else stop);
        match t.parse ~kind c with
        | v when c.pos = c.stop -> Some (Ok v)
        | _ -> poison t (Malformed "trailing bytes")
        | exception Failure msg -> poison t (Malformed msg)))
end
