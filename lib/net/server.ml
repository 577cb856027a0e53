open Hyper_core
module Obs = Hyper_obs.Obs
module Sync = Hyper_util.Sync

let m_sessions = Obs.Counter.make "hyper_net_sessions_total"
let m_requests = Obs.Counter.make "hyper_net_requests_total"
let m_ops = Obs.Counter.make "hyper_net_ops_total"
let m_faults = Obs.Counter.make "hyper_net_faults_total"
let m_batch_ns = Obs.Histogram.make "hyper_net_server_batch_ns"

let ignore_sigpipe () =
  (* A peer that vanished between select and write must surface as
     EPIPE, not kill the process. *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

type session = {
  sid : int;
  fd : Unix.file_descr;
  dec : Wire.request Wire.Decoder.t;
  mutable in_txn : bool;
  mutable holds_lease : bool;
  mutable snap : Backend.instance option;
      (* snapshot mode: batches read this detached view, lease-free *)
  mutable closing : bool;
  mutable thread : Thread.t option;
}

type t = {
  name : string;
  reraise : exn -> bool;
  max_frame : int;
  layout : Layout.t;
  instance : Backend.instance;
  address : Netaddr.t;
  listen_fd : Unix.file_descr;
  engine : Sync.Mutex.t;  (* the lease; see server.mli *)
  lock : Sync.Mutex.t;  (* guards sessions/flags below *)
  mutable sessions : session list;
  mutable draining : bool;
  mutable drain_grace : float;
  mutable killed : bool;
  mutable crash : exn option;
  mutable next_sid : int;
  mutable accept_thread : Thread.t option;
}

let addr t = t.address
let crashed t = t.crash

let locked t f = Sync.Mutex.with_lock t.lock f

let session_count t = locked t (fun () -> List.length t.sessions)

(* --- socket plumbing --- *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Sockets are not store files: the Vfs seam covers page/WAL I/O, and
   crash injection for the served backend happens underneath it.  The
   network byte stream talks to the OS directly. *)
let[@lint.allow "vfs-boundary"] send_all fd payload =
  let len = Bytes.length payload in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd payload !off (len - !off) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    off := !off + n
  done

(* --- session execution --- *)

let release_lease t sess =
  if sess.holds_lease then begin
    sess.holds_lease <- false;
    Sync.Mutex.unlock t.engine
  end

let rollback t sess =
  (* The client vanished (or drain expired) mid-transaction. *)
  if sess.in_txn then begin
    (match Trace.apply ~layout:t.layout t.instance Trace.Abort with
    | Trace.Done _ | Trace.Raised _ -> ());
    sess.in_txn <- false
  end;
  release_lease t sess

(* Snapshot mode: the batch reads the session's detached view and never
   touches the engine lease — a pipelined snapshot read proceeds while
   another session's writer transaction holds it.  Anything that could
   change state (or pretends to: transaction control) is refused. *)
let exec_snapshot_batch t snap rid ops =
  let t0 = Hyper_util.Mtime_stub.now_ns () in
  let outcomes =
    List.map
      (fun op ->
        match op with
        | Trace.Begin | Trace.Commit | Trace.Abort ->
          Trace.Raised "Snapshot_read_only"
        | op when Trace.is_mutation op -> Trace.Raised "Snapshot_read_only"
        | op -> Trace.apply ~reraise:t.reraise ~layout:t.layout snap op)
      ops
  in
  Obs.Counter.incr m_requests;
  Obs.Counter.add m_ops (List.length ops);
  Obs.Histogram.observe m_batch_ns
    (Int64.to_float (Int64.sub (Hyper_util.Mtime_stub.now_ns ()) t0));
  Wire.Results { rid; outcomes }

let exec_batch t sess rid ops =
  match sess.snap with
  | Some snap -> exec_snapshot_batch t snap rid ops
  | None ->
    if not sess.holds_lease then begin
      Sync.Mutex.lock t.engine;
      sess.holds_lease <- true
    end;
    let t0 = Hyper_util.Mtime_stub.now_ns () in
    let outcomes =
      List.map
        (fun op ->
          let o =
            Trace.apply ~reraise:t.reraise ~layout:t.layout t.instance op
          in
          (match (op, o) with
          | Trace.Begin, Trace.Done _ -> sess.in_txn <- true
          | (Trace.Commit | Trace.Abort), _ -> sess.in_txn <- false
          | _ -> ());
          o)
        ops
    in
    Obs.Counter.incr m_requests;
    Obs.Counter.add m_ops (List.length ops);
    Obs.Histogram.observe m_batch_ns
      (Int64.to_float (Int64.sub (Hyper_util.Mtime_stub.now_ns ()) t0));
    if not sess.in_txn then release_lease t sess;
    Wire.Results { rid; outcomes }

let take_snapshot t sess rid =
  if sess.in_txn then begin
    Obs.Counter.incr m_faults;
    Wire.Fault
      {
        rid;
        code = Wire.F_bad_op;
        message = "snapshot: session is inside a transaction";
      }
  end
  else begin
    (* Hold the lease only for the clone itself, so the view cannot
       interleave with another session's in-flight batch; it is
       released before any snapshot read runs. *)
    Sync.Mutex.lock t.engine;
    let snap = Backend.instance_snapshot t.instance in
    Sync.Mutex.unlock t.engine;
    match snap with
    | None ->
      Obs.Counter.incr m_faults;
      Wire.Fault
        {
          rid;
          code = Wire.F_bad_op;
          message =
            Printf.sprintf "snapshot: backend %s cannot produce a detached view"
              (Backend.instance_name t.instance);
        }
    | Some view ->
      sess.snap <- Some view;
      Wire.Results { rid; outcomes = [ Trace.Done Trace.V_unit ] }
  end

let handle_request t sess = function
  | Wire.Hello { client = _; protocol } ->
    if protocol <> Wire.protocol_version then begin
      Obs.Counter.incr m_faults;
      sess.closing <- true;
      Some
        (Wire.Fault
           {
             rid = -1;
             code = Wire.F_bad_frame;
             message =
               Printf.sprintf "protocol %d, server speaks %d" protocol
                 Wire.protocol_version;
           })
    end
    else
      Some
        (Wire.Welcome
           {
             session = sess.sid;
             server = t.name;
             protocol = Wire.protocol_version;
           })
  | Wire.Ping { rid } -> Some (Wire.Pong { rid })
  | Wire.Snapshot { rid; active } ->
    if active then Some (take_snapshot t sess rid)
    else begin
      sess.snap <- None;
      Some (Wire.Results { rid; outcomes = [ Trace.Done Trace.V_unit ] })
    end
  | Wire.Bye ->
    sess.closing <- true;
    None
  | Wire.Ops { rid; ops } -> (
    (* Deliberate normalization seam: crash points are checked first
       and kill the server un-acked; every other backend exception
       becomes a typed Fault reply after rollback — a serving loop
       must not die on a bad request. *)
    try Some (exec_batch t sess rid ops)
    with e ->
      (if t.reraise e then begin
        (* Crash point: die without acking the in-flight batch.  The
           engine mutex stays held by this (exiting) thread — the
           server object is dead and nothing locks it again. *)
        t.crash <- Some e;
        t.killed <- true;
        None
      end
      else begin
        Obs.Counter.incr m_faults;
        if sess.in_txn then rollback t sess else release_lease t sess;
        Some
          (Wire.Fault
             { rid; code = Wire.F_internal; message = Printexc.to_string e })
      end)
      [@lint.allow "no-catchall-swallow"])

(* Pump every complete frame out of the decoder, replying in arrival
   order — the pipelining/in-order guarantee is exactly this loop. *)
let process_frames t sess =
  let continue = ref true in
  while !continue && (not sess.closing) && not t.killed do
    match Wire.Decoder.next sess.dec with
    | None -> continue := false
    | Some (Error e) ->
      Obs.Counter.incr m_faults;
      (try
         send_all sess.fd
           (Wire.encode_response
              (Wire.Fault
                 {
                   rid = -1;
                   code = Wire.F_bad_frame;
                   message = Wire.error_to_string e;
                 }))
       with Unix.Unix_error _ -> ());
      sess.closing <- true
    | Some (Ok req) -> (
      match handle_request t sess req with
      | None -> ()
      | Some resp -> (
        try send_all sess.fd (Wire.encode_response resp)
        with Unix.Unix_error _ -> sess.closing <- true))
  done

let close_session t sess =
  (* After [kill] the engine must not be touched (the crash fuzzer's
     backend raises on any access); just drop the socket. *)
  if not t.killed then rollback t sess;
  close_quiet sess.fd;
  locked t (fun () ->
      t.sessions <- List.filter (fun s -> s.sid <> sess.sid) t.sessions)

let session_loop t sess =
  let buf = Bytes.create 8192 in
  let drain_deadline = ref None in
  (try
     while (not sess.closing) && not t.killed do
       process_frames t sess;
       if (not sess.closing) && not t.killed then begin
         (match (t.draining, !drain_deadline) with
         | true, None ->
           drain_deadline :=
             Some
               (Int64.add
                  (Hyper_util.Mtime_stub.now_ns ())
                  (Int64.of_float (t.drain_grace *. 1e9)))
         | _ -> ());
         (match Unix.select [ sess.fd ] [] [] 0.05 with
         | [], _, _ ->
           if !drain_deadline <> None then
             (* Draining and idle: everything received has been
                answered; time to go. *)
             sess.closing <- true
         | _ -> (
           (* socket read, not store I/O — outside the Vfs seam *)
           match
             (Unix.read sess.fd buf 0 (Bytes.length buf)
             [@lint.allow "vfs-boundary"])
           with
           | 0 -> sess.closing <- true (* EOF *)
           | n -> Wire.Decoder.feed sess.dec buf ~off:0 ~len:n
           | exception
               Unix.Unix_error
                 ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
             sess.closing <- true));
         match !drain_deadline with
         | Some d when Hyper_util.Mtime_stub.now_ns () > d ->
           sess.closing <- true
         | _ -> ()
       end
     done
   with Unix.Unix_error _ -> ());
  close_session t sess

(* --- accept loop and lifecycle --- *)

let accept_loop t =
  (try
     while not (t.draining || t.killed) do
       match Unix.select [ t.listen_fd ] [] [] 0.05 with
       | [], _, _ -> ()
       | _ -> (
         match Unix.accept t.listen_fd with
         | fd, _ ->
           Obs.Counter.incr m_sessions;
           let sid =
             locked t (fun () ->
                 let s = t.next_sid in
                 t.next_sid <- s + 1;
                 s)
           in
           let sess =
             {
               sid;
               fd;
               dec = Wire.Decoder.create_request ~max_frame:t.max_frame ();
               in_txn = false;
               holds_lease = false;
               snap = None;
               closing = false;
               thread = None;
             }
           in
           locked t (fun () -> t.sessions <- sess :: t.sessions);
           sess.thread <- Some (Thread.create (fun () -> session_loop t sess) ())
         | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ())
     done
   with Unix.Unix_error _ -> ());
  close_quiet t.listen_fd

let start ?(name = "hypermodel") ?(reraise = fun _ -> false)
    ?(max_frame = Wire.max_frame_default) ~layout instance address =
  ignore_sigpipe ();
  (match address with
  | Netaddr.Unix_sock path when Sys.file_exists path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let listen_fd = Unix.socket (Netaddr.domain address) Unix.SOCK_STREAM 0 in
  (match address with
  | Netaddr.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | Netaddr.Unix_sock _ -> ());
  Unix.bind listen_fd (Netaddr.to_sockaddr address);
  Unix.listen listen_fd 512;
  let t =
    {
      name;
      reraise;
      max_frame;
      layout;
      instance;
      address;
      listen_fd;
      engine = Sync.Mutex.create ~rank:10 "net.server.engine";
      lock = Sync.Mutex.create ~rank:40 "net.server.sessions";
      sessions = [];
      draining = false;
      drain_grace = 5.0;
      killed = false;
      crash = None;
      next_sid = 1;
      accept_thread = None;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let join_all t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  let rec drain_threads () =
    match locked t (fun () -> t.sessions) with
    | [] -> ()
    | sessions ->
      List.iter
        (fun s -> match s.thread with Some th -> Thread.join th | None -> ())
        sessions;
      drain_threads ()
  in
  drain_threads ()

(* The end of both [drain] and [kill]: wait for every thread, then
   remove the socket file a Unix-domain listener left behind. *)
let teardown t =
  join_all t;
  match t.address with
  | Netaddr.Unix_sock path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Netaddr.Tcp _ -> ()

let drain ?(grace_s = 5.0) t =
  locked t (fun () ->
      t.drain_grace <- grace_s;
      t.draining <- true);
  teardown t

let kill t =
  locked t (fun () -> t.killed <- true);
  close_quiet t.listen_fd;
  (* Snapshot under the lock, close outside it: [Unix.close] can block
     on a socket with unflushed data, and the session threads never
     need the list to notice [killed]. *)
  let sessions = locked t (fun () -> t.sessions) in
  List.iter (fun s -> close_quiet s.fd) sessions;
  teardown t
