open Hyper_core
module Server = Hyper_net.Server
module Client = Hyper_net.Client

(* Each server gets its own socket: the fuzzer runs many cases per
   process and a lingering close must not collide with the next bind. *)
let next_sock = ref 0

let serve ~layout store =
  incr next_sock;
  let addr =
    Hyper_net.Netaddr.Unix_sock
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "hyper_netcheck_%d_%d.sock" (Unix.getpid ()) !next_sock))
  in
  let srv =
    Server.start ~name:"netcheck" ~reraise:Differential.is_crash ~layout store
      addr
  in
  (srv, Client.connect ~backoff_base_s:0.02 ~max_attempts:5 addr)

let subject ~level (inner : Differential.subject) =
  let layout = Differential.layout_of ~level in
  let fresh () =
    let i = inner.fresh () in
    let srv, c = serve ~layout i.store in
    let apply op =
      match Client.await c (Client.submit c [ op ]) with
      | [ s ] -> s
      | outcomes ->
        Trace.Raised
          (Printf.sprintf "Netcheck_reply_arity_%d" (List.length outcomes))
    in
    let recover ~crashed ~acked ~in_flight =
      Client.close c;
      Server.kill srv;
      let r = i.recover ~crashed ~acked ~in_flight in
      let srv2, c2 = serve ~layout r.state in
      { r with
        state = Hyper_net.Client_backend.(instance (make c2));
        release =
          (fun () ->
            Client.close c2;
            Server.kill srv2;
            r.release ()) }
    in
    let close () =
      Client.close c;
      Server.drain ~grace_s:2.0 srv;
      i.close ()
    in
    { i with apply; recover; close }
  in
  { Differential.name = inner.name ^ "-wire"; fresh }
