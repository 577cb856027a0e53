open Hyper_core
module Obs = Hyper_obs.Obs
module Sync = Hyper_util.Sync

exception Connection_lost of string
exception Server_fault of Wire.fault_code * string

let m_reconnects = Obs.Counter.make "hyper_net_client_reconnects_total"
let m_calls = Obs.Counter.make "hyper_net_client_calls_total"

type t = {
  address : Netaddr.t;
  client_name : string;
  max_frame : int;
  backoff_base_s : float;
  backoff_max_s : float;
  max_attempts : int;
  mutable fd : Unix.file_descr option;
  mutable dec : Wire.response Wire.Decoder.t;
  rbuf : bytes;  (* socket read buffer, reused by every response *)
  mutable session_id : int;
  mutable next_rid : int;
  mutable pending : int list;  (* submitted, not yet awaited; oldest first *)
  mutable arrived : (int * Trace.outcome list) list;  (* awaited out of order *)
  mutable txn_open : bool;
  mutable generation : int;  (* successful handshakes *)
}

let session t = t.session_id
let generation t = t.generation
let in_txn t = t.txn_open

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let lost t msg =
  (match t.fd with Some fd -> close_quiet fd | None -> ());
  t.fd <- None;
  raise (Connection_lost msg)

(* Socket I/O, not store I/O: the Vfs seam covers page/WAL files; the
   wire byte stream talks to the OS directly. *)
let[@lint.allow "vfs-boundary"] send_all t payload =
  match t.fd with
  | None -> lost t "not connected"
  | Some fd -> (
    let len = Bytes.length payload in
    let off = ref 0 in
    try
      while !off < len do
        let n = Unix.write fd payload !off (len - !off) in
        if n <= 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
        off := !off + n
      done
    with Unix.Unix_error (e, _, _) -> lost t (Unix.error_message e))

(* Read until the decoder yields one response.  Socket read — outside
   the Vfs seam, like [send_all]. *)
let[@lint.allow "vfs-boundary"] read_response t =
  let buf = t.rbuf in
  let rec go () =
    match Wire.Decoder.next t.dec with
    | Some (Ok r) -> r
    | Some (Error e) -> lost t (Wire.error_to_string e)
    | None -> (
      match t.fd with
      | None -> lost t "not connected"
      | Some fd -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> lost t "connection closed by server"
        | n ->
          Wire.Decoder.feed t.dec buf ~off:0 ~len:n;
          go ()
        | exception Unix.Unix_error (e, _, _) -> lost t (Unix.error_message e)))
  in
  go ()

let handshake t fd =
  t.fd <- Some fd;
  t.dec <- Wire.Decoder.create_response ~max_frame:t.max_frame ();
  t.pending <- [];
  t.arrived <- [];
  t.txn_open <- false;
  send_all t
    (Wire.encode_request
       (Wire.Hello
          { client = t.client_name; protocol = Wire.protocol_version }));
  match read_response t with
  | Wire.Welcome { session; _ } ->
    t.session_id <- session;
    t.generation <- t.generation + 1
  | Wire.Fault { code; message; _ } -> raise (Server_fault (code, message))
  | Wire.Results _ | Wire.Pong _ -> lost t "unexpected handshake reply"

(* Exponential backoff over connection attempts.  Uses a real sleep:
   this is wall-clock peer recovery, not simulated latency. *)
let reconnect t =
  let rec attempt n delay =
    let fd = Unix.socket (Netaddr.domain t.address) Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd (Netaddr.to_sockaddr t.address);
      handshake t fd
    with
    | () -> ()
    | exception e ->
      close_quiet fd;
      t.fd <- None;
      if n + 1 >= t.max_attempts then
        raise
          (Connection_lost
             (Printf.sprintf "%s (after %d attempts)" (Printexc.to_string e)
                (n + 1)))
      else begin
        Obs.Counter.incr m_reconnects;
        Thread.delay delay;
        attempt (n + 1) (Float.min (2.0 *. delay) t.backoff_max_s)
      end
  in
  attempt 0 t.backoff_base_s

let connect ?(client_name = "hyperclient") ?(max_frame = Wire.max_frame_default)
    ?(backoff_base_s = 0.05) ?(backoff_max_s = 2.0) ?(max_attempts = 8) address
    =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      address;
      client_name;
      max_frame;
      backoff_base_s;
      backoff_max_s;
      max_attempts;
      fd = None;
      dec = Wire.Decoder.create_response ~max_frame ();
      rbuf = Bytes.create 8192;
      session_id = 0;
      next_rid = 1;
      pending = [];
      arrived = [];
      txn_open = false;
      generation = 0;
    }
  in
  reconnect t;
  t

let track_txn t ops =
  List.iter
    (fun op ->
      match op with
      | Trace.Begin -> t.txn_open <- true
      | Trace.Commit | Trace.Abort -> t.txn_open <- false
      | _ -> ())
    ops

let submit t ops =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  send_all t (Wire.encode_request (Wire.Ops { rid; ops }));
  t.pending <- t.pending @ [ rid ];
  track_txn t ops;
  rid

let rec await t rid =
  match List.assoc_opt rid t.arrived with
  | Some outcomes ->
    t.arrived <- List.remove_assoc rid t.arrived;
    outcomes
  | None ->
    if not (List.mem rid t.pending) then
      invalid_arg (Printf.sprintf "Client.await: unknown rid %d" rid);
    (match read_response t with
    | Wire.Results { rid = got; outcomes } ->
      t.pending <- List.filter (fun r -> r <> got) t.pending;
      t.arrived <- (got, outcomes) :: t.arrived
    | Wire.Fault { rid = got; code; message } ->
      if got >= 0 then t.pending <- List.filter (fun r -> r <> got) t.pending;
      raise (Server_fault (code, message))
    | Wire.Pong _ -> ()
    | Wire.Welcome _ -> lost t "unexpected Welcome mid-stream");
    await t rid

let call t ops =
  Obs.Counter.incr m_calls;
  let was_in_txn = t.txn_open in
  try await t (submit t ops)
  with Connection_lost msg ->
    (* Retry once, but only when the lost connection had no open
       transaction: mid-txn server state is gone and a blind replay of
       this batch alone would corrupt. *)
    if was_in_txn then raise (Connection_lost msg)
    else begin
      reconnect t;
      await t (submit t ops)
    end

let snapshot t ~active =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  send_all t (Wire.encode_request (Wire.Snapshot { rid; active }));
  match read_response t with
  | Wire.Results { rid = got; _ } when got = rid -> ()
  | Wire.Results _ | Wire.Pong _ -> lost t "out-of-order snapshot reply"
  | Wire.Fault { code; message; _ } -> raise (Server_fault (code, message))
  | Wire.Welcome _ -> lost t "unexpected Welcome mid-stream"

let ping t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  send_all t (Wire.encode_request (Wire.Ping { rid }));
  match read_response t with
  | Wire.Pong { rid = got } when got = rid -> ()
  | Wire.Pong _ | Wire.Results _ -> lost t "out-of-order ping reply"
  | Wire.Fault { code; message; _ } -> raise (Server_fault (code, message))
  | Wire.Welcome _ -> lost t "unexpected Welcome mid-stream"

let close t =
  if t.fd <> None then begin
    (try send_all t (Wire.encode_request Wire.Bye)
     with Connection_lost _ -> ());
    (match t.fd with Some fd -> close_quiet fd | None -> ());
    t.fd <- None
  end

module Pool = struct
  type conn = t

  type t = {
    conns : conn array;
    lock : Sync.Mutex.t;
    mutable next : int;
  }

  let create ?client_name ?backoff_base_s ?backoff_max_s ?max_attempts ~size
      address =
    if size <= 0 then invalid_arg "Client.Pool.create: size must be positive";
    let conns =
      Array.init size (fun i ->
          let client_name =
            Option.map (fun n -> Printf.sprintf "%s-%d" n i) client_name
          in
          connect ?client_name ?backoff_base_s ?backoff_max_s ?max_attempts
            address)
    in
    { conns; lock = Sync.Mutex.create ~rank:40 "net.client.pool"; next = 0 }

  let with_conn p f =
    Sync.Mutex.lock p.lock;
    let c = p.conns.(p.next mod Array.length p.conns) in
    p.next <- p.next + 1;
    Sync.Mutex.unlock p.lock;
    f c

  let close p = Array.iter close p.conns
end
