(* Server integration battery over a real unix socket: per-session
   transaction isolation under concurrency, pipelined in-order replies,
   mid-transaction client death rolling back, graceful drain, and
   client reconnect-with-backoff across a server restart. *)

open Hyper_core
open Hyper_net
module M = Hyper_memdb.Memdb
module Gen = Generator.Make (M)

let check = Alcotest.check

(* The whole battery runs under the lockdep deadlock detector: any
   lock-order inversion the server threads perform during the run is a
   failure even if every assertion passes (checked after the run). *)
module Lockdep = Hyper_util.Sync.Lockdep

let () = Lockdep.enable ()

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hyper_srv_%d_%s.sock" (Unix.getpid ()) name)

(* Fresh generated memdb + server per test. *)
let with_server name k =
  let bm = M.create () in
  let layout, _ = Gen.generate bm ~doc:1 ~leaf_level:3 ~seed:11L in
  let instance = Backend.Instance ((module M : Backend.S with type t = M.t), bm) in
  let path = sock_path name in
  let srv = Server.start ~layout instance (Netaddr.Unix_sock path) in
  Fun.protect
    ~finally:(fun () ->
      Server.kill srv;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> k srv (Netaddr.Unix_sock path) layout)

let connect addr = Client.connect ~backoff_base_s:0.02 ~max_attempts:5 addr

let probe_oid layout =
  let rng = Hyper_util.Prng.create 3L in
  Layout.random_level layout rng 2

let get_hundred c oid =
  match Client.call c [ Trace.Attrs oid ] with
  | [ Trace.Done (Trace.V_ints [ _; _; _; h; _ ]) ] -> h
  | _ -> Alcotest.fail "attrs probe failed"

(* --- transactions --- *)

let test_commit_and_abort_visibility () =
  with_server "vis" (fun _srv addr _layout ->
      let a = connect addr and b = connect addr in
      let mk uid =
        Trace.Create
          {
            oid = 900000 + uid;
            doc = 1;
            uid = 900000 + uid;
            ten = 1;
            hundred = 1;
            million = 1;
            near = None;
            payload = Trace.P_internal;
          }
      in
      (* aborted work is invisible to the other session *)
      (match Client.call a [ Trace.Begin; mk 1; Trace.Abort ] with
      | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "abort batch failed");
      (match Client.call b [ Trace.Lookup_unique { doc = 1; uid = 900001 } ] with
      | [ Trace.Done (Trace.V_int_opt None) ] -> ()
      | _ -> Alcotest.fail "aborted create leaked");
      (* committed work is visible *)
      (match Client.call a [ Trace.Begin; mk 2; Trace.Commit ] with
      | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit batch failed");
      (match
         Client.call b [ Trace.Lookup_unique { doc = 1; uid = 900002 } ]
       with
      | [ Trace.Done (Trace.V_int_opt (Some _)) ] -> ()
      | _ -> Alcotest.fail "committed create not visible");
      Client.close a;
      Client.close b)

let test_concurrent_txns_serialize () =
  (* 8 clients × 8 read-modify-write transactions on one attribute.
     The engine lease serialises whole transactions, so no increment
     can be lost. *)
  with_server "rmw" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let c0 = connect addr in
      let base = get_hundred c0 oid in
      let clients = 8 and rounds = 8 in
      let worker () =
        let c = connect addr in
        for _ = 1 to rounds do
          match Client.call c [ Trace.Begin; Trace.Attrs oid ] with
          | [ Trace.Done _; Trace.Done (Trace.V_ints [ _; _; _; h; _ ]) ] -> (
            match
              Client.call c
                [ Trace.Set_hundred { oid; value = h + 1 }; Trace.Commit ]
            with
            | [ Trace.Done _; Trace.Done _ ] -> ()
            | _ -> Alcotest.fail "rmw write failed")
          | _ -> Alcotest.fail "rmw read failed"
        done;
        Client.close c
      in
      let threads = List.init clients (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      check Alcotest.int "no lost increment" (base + (clients * rounds))
        (get_hundred c0 oid);
      Client.close c0)

(* --- pipelining --- *)

let test_pipelined_in_order () =
  with_server "pipe" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let c = connect addr in
      let rids =
        List.init 10 (fun i ->
            ( i,
              Client.submit c
                [
                  Trace.Begin;
                  Trace.Set_hundred { oid; value = i };
                  Trace.Attrs oid;
                  Trace.Commit;
                ] ))
      in
      (* await out of submission order: later rids first *)
      List.iter
        (fun (i, rid) ->
          match Client.await c rid with
          | [ Trace.Done _; Trace.Done _;
              Trace.Done (Trace.V_ints [ _; _; _; h; _ ]); Trace.Done _ ] ->
            check Alcotest.int "pipelined batches applied in order" i h
          | _ -> Alcotest.fail "pipelined batch failed")
        (List.rev rids);
      Client.close c)

(* --- mid-txn disconnect --- *)

let test_client_kill_mid_txn_rolls_back () =
  with_server "kill" (fun _srv addr layout ->
      let oid = probe_oid layout in
      let observer = connect addr in
      let before = get_hundred observer oid in
      (* raw connection so we can vanish without a Bye *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match addr with
      | Netaddr.Unix_sock p -> Unix.connect fd (Unix.ADDR_UNIX p)
      | _ -> assert false);
      let send r =
        let b = Wire.encode_request r in
        ignore (Unix.write fd b 0 (Bytes.length b))
      in
      let dec = Wire.Decoder.create_response () in
      let read_one () =
        let buf = Bytes.create 4096 in
        let rec go () =
          match Wire.Decoder.next dec with
          | Some (Ok r) -> r
          | Some (Error e) -> Alcotest.failf "raw: %s" (Wire.error_to_string e)
          | None ->
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            if n = 0 then Alcotest.fail "raw: eof";
            Wire.Decoder.feed dec buf ~off:0 ~len:n;
            go ()
        in
        go ()
      in
      send (Wire.Hello { client = "killer"; protocol = Wire.protocol_version });
      (match read_one () with
      | Wire.Welcome _ -> ()
      | _ -> Alcotest.fail "no welcome");
      send
        (Wire.Ops
           {
             rid = 1;
             ops =
               [ Trace.Begin; Trace.Set_hundred { oid; value = before + 7 } ];
           });
      (match read_one () with
      | Wire.Results { rid = 1; outcomes = [ Trace.Done _; Trace.Done _ ] } ->
        ()
      | _ -> Alcotest.fail "txn ops not acked");
      (* vanish mid-transaction *)
      Unix.close fd;
      (* the observer's next call needs the engine lease, so it blocks
         until the server has rolled the dead session back *)
      check Alcotest.int "mid-txn write rolled back" before
        (get_hundred observer oid);
      Client.close observer)

(* --- drain --- *)

let test_drain_finishes_in_flight () =
  with_server "drain" (fun srv addr layout ->
      let oid = probe_oid layout in
      let c = connect addr in
      (* pipeline a pile of work, then drain while it is in flight *)
      let rids =
        List.init 20 (fun i ->
            Client.submit c
              [
                Trace.Begin;
                Trace.Set_hundred { oid; value = i };
                Trace.Commit;
              ])
      in
      let drainer = Thread.create (fun () -> Server.drain ~grace_s:5.0 srv) () in
      (* every in-flight request still gets its reply, in order *)
      List.iter
        (fun rid ->
          match Client.await c rid with
          | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
          | _ -> Alcotest.fail "drained request lost")
        rids;
      Thread.join drainer;
      check Alcotest.int "all sessions gone" 0 (Server.session_count srv);
      (* new work is refused: the server is gone *)
      (match
         Client.call c [ Trace.Attrs oid ]
       with
      | exception Client.Connection_lost _ -> ()
      | _ -> Alcotest.fail "server still serving after drain");
      Client.close c)

(* A drained server leaves no socket file behind; [start] only cleans
   up after a [kill]. *)
let test_drain_removes_socket () =
  with_server "unlink" (fun srv _addr _layout ->
      let path = sock_path "unlink" in
      check Alcotest.bool "socket bound" true (Sys.file_exists path);
      Server.drain srv;
      check Alcotest.bool "socket removed" false (Sys.file_exists path))

(* --- restart / reconnect --- *)

let test_reconnect_after_restart () =
  let name = "restart" in
  let bm = M.create () in
  let layout, _ = Gen.generate bm ~doc:1 ~leaf_level:3 ~seed:11L in
  let instance = Backend.Instance ((module M : Backend.S with type t = M.t), bm) in
  let addr = Netaddr.Unix_sock (sock_path name) in
  let srv1 = Server.start ~layout instance addr in
  let oid = probe_oid layout in
  let c = Client.connect ~backoff_base_s:0.02 ~max_attempts:10 addr in
  let h = get_hundred c oid in
  let g1 = Client.generation c in
  Server.kill srv1;
  (* restart on the same address while the client retries with backoff *)
  let srv2 = ref None in
  let restarter =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        srv2 := Some (Server.start ~layout instance addr))
      ()
  in
  (* the call sees the dead socket, reconnects with backoff, retries *)
  check Alcotest.int "same answer after restart" h (get_hundred c oid);
  if Client.generation c <= g1 then
    Alcotest.fail "expected a fresh connection after restart";
  Client.close c;
  Thread.join restarter;
  Option.iter Server.drain !srv2

let test_mid_txn_loss_is_not_retried () =
  with_server "txnloss" (fun srv addr _layout ->
      let c = connect addr in
      (match Client.call c [ Trace.Begin ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "begin failed");
      Server.kill srv;
      match Client.call c [ Trace.Commit ] with
      | exception Client.Connection_lost _ -> ()
      | _ -> Alcotest.fail "mid-txn loss must not silently retry")

(* --- snapshot sessions --- *)

let mk_create uid =
  Trace.Create
    {
      oid = 900000 + uid;
      doc = 1;
      uid = 900000 + uid;
      ten = 1;
      hundred = 1;
      million = 1;
      near = None;
      payload = Trace.P_internal;
    }

let lookup c uid =
  match Client.call c [ Trace.Lookup_unique { doc = 1; uid = 900000 + uid } ] with
  | [ Trace.Done (Trace.V_int_opt r) ] -> r
  | _ -> Alcotest.fail "lookup failed"

let test_snapshot_session_detached () =
  with_server "snap" (fun _srv addr _layout ->
      let w = connect addr and r = connect addr in
      Client.snapshot r ~active:true;
      (* A writer commits after the view was cloned; the snapshot
         session keeps the pre-image, a live session sees the write. *)
      (match Client.call w [ Trace.Begin; mk_create 1; Trace.Commit ] with
      | [ Trace.Done _; Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "writer commit failed");
      check Alcotest.bool "snapshot keeps the pre-image" true
        (lookup r 1 = None);
      check Alcotest.bool "live session sees the commit" true
        (lookup w 1 <> None);
      (* Deactivating returns the session to live reads. *)
      Client.snapshot r ~active:false;
      check Alcotest.bool "deactivated session reads live state" true
        (lookup r 1 <> None);
      Client.close w;
      Client.close r)

let test_snapshot_reads_bypass_lease () =
  with_server "snaplease" (fun _srv addr _layout ->
      let w = connect addr and r = connect addr in
      Client.snapshot r ~active:true;
      (* The writer parks inside a transaction, holding the engine
         lease across batches.  The snapshot session must still get
         replies — its reads never touch the lease. *)
      (match Client.call w [ Trace.Begin; mk_create 2 ] with
      | [ Trace.Done _; Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "begin failed");
      check Alcotest.bool "snapshot read answered mid-txn" true
        (lookup r 2 = None);
      (match Client.call w [ Trace.Commit ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit failed");
      Client.close w;
      Client.close r)

let test_snapshot_session_read_only () =
  with_server "snapro" (fun _srv addr _layout ->
      let r = connect addr in
      Client.snapshot r ~active:true;
      (match Client.call r [ mk_create 3 ] with
      | [ Trace.Raised "Snapshot_read_only" ] -> ()
      | _ -> Alcotest.fail "mutation must be rejected on a snapshot");
      (match Client.call r [ Trace.Begin ] with
      | [ Trace.Raised "Snapshot_read_only" ] -> ()
      | _ -> Alcotest.fail "txn control must be rejected on a snapshot");
      Client.close r)

let test_snapshot_inside_txn_rejected () =
  with_server "snaptxn" (fun _srv addr _layout ->
      let c = connect addr in
      (match Client.call c [ Trace.Begin ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "begin failed");
      (match Client.snapshot c ~active:true with
      | exception Client.Server_fault (Wire.F_bad_op, _) -> ()
      | () -> Alcotest.fail "snapshot inside a transaction must fault");
      (* The session survives the fault and can finish its txn. *)
      (match Client.call c [ Trace.Commit ] with
      | [ Trace.Done _ ] -> ()
      | _ -> Alcotest.fail "commit after fault failed");
      Client.close c)

let () =
  Alcotest.run "test_server"
    [
      ( "txn",
        [
          Alcotest.test_case "commit/abort visibility" `Quick
            test_commit_and_abort_visibility;
          Alcotest.test_case "concurrent rmw serialises" `Quick
            test_concurrent_txns_serialize;
          Alcotest.test_case "mid-txn kill rolls back" `Quick
            test_client_kill_mid_txn_rolls_back;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "in-order replies" `Quick test_pipelined_in_order ]
      );
      ( "lifecycle",
        [
          Alcotest.test_case "drain finishes in-flight" `Quick
            test_drain_finishes_in_flight;
          Alcotest.test_case "drain removes its socket" `Quick
            test_drain_removes_socket;
          Alcotest.test_case "reconnect after restart" `Quick
            test_reconnect_after_restart;
          Alcotest.test_case "mid-txn loss not retried" `Quick
            test_mid_txn_loss_is_not_retried;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "detached view" `Quick
            test_snapshot_session_detached;
          Alcotest.test_case "reads bypass the lease" `Quick
            test_snapshot_reads_bypass_lease;
          Alcotest.test_case "read-only enforced" `Quick
            test_snapshot_session_read_only;
          Alcotest.test_case "rejected inside txn" `Quick
            test_snapshot_inside_txn_rejected;
        ] );
    ]

(* Alcotest.run returns only when every test passed; a lockdep report
   accumulated along the way still fails the binary. *)
let () =
  match Lockdep.reports () with
  | [] -> ()
  | rs ->
    List.iter (fun r -> prerr_endline (Lockdep.report_to_string r)) rs;
    exit 70
