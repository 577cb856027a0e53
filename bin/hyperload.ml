(* hyperload — multi-client load generator for the socket server.

   Drives N simulated users against a hypermodel server (self-served
   in-process, or a remote address via --connect) and reports
   throughput and per-request latency percentiles per client count.

   Two arrival disciplines (Darmont's OCB line: credible multi-user
   numbers need a controlled arrival process):

   - closed loop: each user waits for its reply, thinks for a fixed
     time, then issues the next request — load self-limits to the
     server's capacity;
   - open loop: requests arrive on a Poisson process at a fixed rate
     regardless of completions, executed by a worker pool; latency is
     measured from *scheduled arrival*, so queue wait counts.

   All randomness (op mix, targets, inter-arrival times) is drawn from
   a seeded SplitMix64 stream: two runs with the same arguments issue
   the same requests. *)

open Hyper_core
open Cmdliner
module Obs = Hyper_obs.Obs
module Net = Hyper_net
module Prng = Hyper_util.Prng
module Stats = Hyper_util.Stats
module Sync = Hyper_util.Sync

let now_ns () = Hyper_util.Mtime_stub.now_ns ()

let m_lat = Obs.Histogram.make "hyper_load_request_ns"
let m_requests = Obs.Counter.make "hyper_load_requests_total"
let m_errors = Obs.Counter.make "hyper_load_protocol_errors_total"

(* --- workload --- *)

(* One simulated user action: a small read-heavy mix with a write-txn
   fraction, every target drawn from the layout arithmetic (never from
   the database — input selection must not count as server work). *)
let next_request rng layout ~write_fraction =
  if Prng.float rng 1.0 < write_fraction then
    let oid = Layout.random_node layout rng in
    [
      Trace.Begin;
      Trace.Set_hundred { oid; value = Prng.int rng 100 };
      Trace.Commit;
    ]
  else
    match Prng.int rng 3 with
    | 0 ->
      [ Trace.Lookup_unique
          { doc = layout.Layout.doc; uid = Layout.random_uid layout rng } ]
    | 1 -> [ Trace.Attrs (Layout.random_node layout rng) ]
    | _ -> [ Trace.Children (Layout.random_internal layout rng) ]

type point = {
  clients : int;
  requests : int;
  errors : int;
  wall_s : float;
  lat : Stats.t;  (* milliseconds *)
}

let run_request conn ops =
  match Net.Client.call conn ops with
  | outcomes -> List.length outcomes > 0
  | exception Net.Client.Server_fault _ -> false

(* --- closed loop --- *)

let run_closed ~addr ~layout ~clients ~think_ms ~write_fraction ~seed
    ~deadline_ns ~requests_per_client =
  let errors = ref 0
  and lock = Sync.Mutex.create ~rank:40 "bin.hyperload.errors" in
  let worker i =
    let rng = Prng.create (Int64.add seed (Int64.of_int (i * 7919))) in
    let stats = Stats.create () in
    let conn = Net.Client.connect ~client_name:(Printf.sprintf "load-%d" i) addr in
    let budget = ref requests_per_client in
    let continue () =
      (match deadline_ns with Some d -> now_ns () < d | None -> true)
      && match !budget with Some 0 -> false | _ -> true
    in
    while continue () do
      (match !budget with Some n -> budget := Some (n - 1) | None -> ());
      let ops = next_request rng layout ~write_fraction in
      let t0 = now_ns () in
      let ok = run_request conn ops in
      let dt = Int64.sub (now_ns ()) t0 in
      Obs.Counter.incr m_requests;
      Obs.Histogram.observe m_lat (Int64.to_float dt);
      Stats.add stats (Int64.to_float dt /. 1e6);
      if not ok then begin
        Obs.Counter.incr m_errors;
        Sync.Mutex.lock lock;
        incr errors;
        Sync.Mutex.unlock lock
      end;
      if think_ms > 0.0 then Thread.delay (think_ms /. 1000.0)
    done;
    Net.Client.close conn;
    stats
  in
  let results = Array.init clients (fun _ -> Stats.create ()) in
  let t0 = now_ns () in
  let threads =
    List.init clients (fun i ->
        Thread.create (fun () -> results.(i) <- worker i) ())
  in
  List.iter Thread.join threads;
  let wall_s = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
  let lat = Stats.create () in
  Array.iter (fun s -> Array.iter (Stats.add lat) (Stats.samples s)) results;
  { clients; requests = Stats.count lat; errors = !errors; wall_s; lat }

(* --- open loop --- *)

(* Poisson arrivals: exponential inter-arrival gaps at [rate] req/s,
   precomputed from the seed.  A worker pool of [clients] connections
   drains the arrival queue; a request's latency starts at its
   scheduled arrival time, so server saturation shows up as queue wait
   rather than silently thinning the offered load. *)
let run_open ~addr ~layout ~clients ~rate ~write_fraction ~seed ~duration_s =
  let rng = Prng.create seed in
  let schedule = ref [] in
  let t = ref 0.0 in
  while !t < duration_s do
    let u = Float.max 1e-12 (Prng.float rng 1.0) in
    t := !t +. (-.Float.log u /. rate);
    if !t < duration_s then
      schedule := (!t, next_request rng layout ~write_fraction) :: !schedule
  done;
  let jobs = ref (List.rev !schedule) in
  let lock = Sync.Mutex.create ~rank:40 "bin.hyperload.jobs" in
  let errors = ref 0 in
  let t0 = now_ns () in
  let take () =
    Sync.Mutex.lock lock;
    let j =
      match !jobs with
      | [] -> None
      | j :: rest ->
        jobs := rest;
        Some j
    in
    Sync.Mutex.unlock lock;
    j
  in
  let worker i =
    let conn = Net.Client.connect ~client_name:(Printf.sprintf "load-%d" i) addr in
    let stats = Stats.create () in
    let rec loop () =
      match take () with
      | None -> ()
      | Some (at_s, ops) ->
        let arrival = Int64.add t0 (Int64.of_float (at_s *. 1e9)) in
        let gap = Int64.to_float (Int64.sub arrival (now_ns ())) /. 1e9 in
        if gap > 0.0 then Thread.delay gap;
        let ok = run_request conn ops in
        let dt = Int64.sub (now_ns ()) arrival in
        Obs.Counter.incr m_requests;
        Obs.Histogram.observe m_lat (Int64.to_float dt);
        Stats.add stats (Int64.to_float dt /. 1e6);
        if not ok then begin
          Obs.Counter.incr m_errors;
          Sync.Mutex.lock lock;
          incr errors;
          Sync.Mutex.unlock lock
        end;
        loop ()
    in
    loop ();
    Net.Client.close conn;
    stats
  in
  let results = Array.init clients (fun _ -> Stats.create ()) in
  let threads =
    List.init clients (fun i ->
        Thread.create (fun () -> results.(i) <- worker i) ())
  in
  List.iter Thread.join threads;
  let wall_s = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
  let lat = Stats.create () in
  Array.iter (fun s -> Array.iter (Stats.add lat) (Stats.samples s)) results;
  { clients; requests = Stats.count lat; errors = !errors; wall_s; lat }

(* --- reporting --- *)

let point_row p =
  let q pct = if Stats.count p.lat = 0 then 0.0 else Stats.percentile p.lat pct in
  Printf.sprintf "%8d %9d %8.2f %12.0f %9.3f %9.3f %9.3f %7d" p.clients
    p.requests p.wall_s
    (if p.wall_s > 0.0 then float_of_int p.requests /. p.wall_s else 0.0)
    (q 50.0) (q 95.0) (q 99.0) p.errors

let point_json p =
  let module J = Hyper_util.Sjson in
  let q pct = if Stats.count p.lat = 0 then 0.0 else Stats.percentile p.lat pct in
  J.Obj
    [
      ("clients", J.Num (float_of_int p.clients));
      ("requests", J.Num (float_of_int p.requests));
      ("wall_s", J.Num p.wall_s);
      ( "throughput_rps",
        J.Num
          (if p.wall_s > 0.0 then float_of_int p.requests /. p.wall_s else 0.0)
      );
      ("p50_ms", J.Num (q 50.0));
      ("p95_ms", J.Num (q 95.0));
      ("p99_ms", J.Num (q 99.0));
      ("mean_ms", J.Num (if Stats.count p.lat = 0 then 0.0 else Stats.mean p.lat));
      ("errors", J.Num (float_of_int p.errors));
    ]

(* --- server bring-up --- *)

type served = {
  s_addr : Net.Netaddr.t;
  s_layout : Layout.t;
  shutdown : unit -> unit;
}

let self_serve ~backend ~level ~fanout ~seed ~sock =
  let addr = Net.Netaddr.Unix_sock sock in
  match backend with
  | "memdb" ->
    let module M = Hyper_memdb.Memdb in
    let b = M.create () in
    let module G = Generator.Make (M) in
    let layout, _ = G.generate ~fanout b ~doc:1 ~leaf_level:level ~seed in
    let srv =
      Net.Server.start ~layout
        (Backend.Instance ((module M : Backend.S with type t = M.t), b))
        addr
    in
    { s_addr = addr; s_layout = layout; shutdown = (fun () -> Net.Server.drain srv) }
  | "diskdb" ->
    let module D = Hyper_diskdb.Diskdb in
    let path = Filename.temp_file "hyperload" ".db" in
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (Hyper_storage.Engine.files path);
    let b = D.open_db (D.default_config ~path) in
    let module G = Generator.Make (D) in
    let layout, _ = G.generate ~fanout b ~doc:1 ~leaf_level:level ~seed in
    let srv =
      Net.Server.start ~layout
        (Backend.Instance ((module D : Backend.S with type t = D.t), b))
        addr
    in
    {
      s_addr = addr;
      s_layout = layout;
      shutdown =
        (fun () ->
          Net.Server.drain srv;
          D.close b;
          List.iter
            (fun p -> if Sys.file_exists p then Sys.remove p)
            (Hyper_storage.Engine.files path));
    }
  | s -> failwith (Printf.sprintf "unknown backend %S (memdb or diskdb)" s)

(* --- main --- *)

let main connect backend level fanout seed sock sweep mode duration_s
    requests_per_client think_ms rate write_fraction json metrics =
  if metrics <> None then Obs.enable ();
  let served =
    match connect with
    | Some a ->
      (* remote server: the layout is pure arithmetic over level/fanout *)
      let layout = Layout.make ~fanout ~doc:1 ~oid_base:0 ~leaf_level:level () in
      {
        s_addr = Net.Netaddr.of_string a;
        s_layout = layout;
        shutdown = (fun () -> ());
      }
    | None ->
      let sock =
        match sock with
        | Some s -> s
        | None ->
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "hyperload_%d.sock" (Unix.getpid ()))
      in
      self_serve ~backend ~level ~fanout ~seed ~sock
  in
  Fun.protect ~finally:served.shutdown @@ fun () ->
  let layout = served.s_layout and addr = served.s_addr in
  Printf.printf
    "hyperload: %s, level %d (%d nodes), %s loop, write fraction %.2f\n"
    (Net.Netaddr.to_string addr) level layout.Layout.node_count mode
    write_fraction;
  Printf.printf "%8s %9s %8s %12s %9s %9s %9s %7s\n" "clients" "requests"
    "wall_s" "rps" "p50_ms" "p95_ms" "p99_ms" "errors";
  let points =
    List.map
      (fun clients ->
        let p =
          match mode with
          | "closed" ->
            let deadline_ns =
              match requests_per_client with
              | Some _ -> None
              | None ->
                Some
                  (Int64.add (now_ns ()) (Int64.of_float (duration_s *. 1e9)))
            in
            run_closed ~addr ~layout ~clients ~think_ms ~write_fraction ~seed
              ~deadline_ns ~requests_per_client
          | "open" ->
            run_open ~addr ~layout ~clients ~rate ~write_fraction ~seed
              ~duration_s
          | s -> failwith (Printf.sprintf "unknown mode %S (closed or open)" s)
        in
        print_endline (point_row p);
        p)
      sweep
  in
  (match metrics with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (Obs.to_prometheus ());
    close_out oc;
    Printf.printf "metrics -> %s\n" file);
  (match json with
  | None -> ()
  | Some file ->
    let module J = Hyper_util.Sjson in
    let doc =
      J.Obj
        [
          ( "meta",
            J.Obj
              [
                ("schema", J.Num 1.0);
                ("tool", J.Str "hyperload");
                ("mode", J.Str mode);
                ( "backend",
                  J.Str (match connect with Some _ -> "remote" | None -> backend)
                );
                ("level", J.Num (float_of_int level));
                ("fanout", J.Num (float_of_int fanout));
                ("seed", J.Num (Int64.to_float seed));
                ("write_fraction", J.Num write_fraction);
                ("think_ms", J.Num think_ms);
              ] );
          ("points", J.List (List.map point_json points));
        ]
    in
    let oc = open_out file in
    output_string oc (J.to_string doc);
    close_out oc;
    Printf.printf "json -> %s\n" file);
  let total_errors = List.fold_left (fun a p -> a + p.errors) 0 points in
  if total_errors > 0 then begin
    Printf.printf "%d protocol error(s)\n" total_errors;
    exit 1
  end

let () =
  let connect_arg =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Drive an already-running server at $(docv) \
                 (unix:/path or host:port) instead of self-serving.")
  in
  let backend_arg =
    Arg.(value & opt string "diskdb" & info [ "serve-backend" ] ~docv:"B"
           ~doc:"Backend to self-serve: memdb or diskdb.")
  in
  let level_arg =
    Arg.(value & opt int 3 & info [ "l"; "level" ] ~docv:"LEVEL"
           ~doc:"Leaf level of the served test database.")
  in
  let fanout_arg =
    Arg.(value & opt int 5 & info [ "fanout" ] ~docv:"N"
           ~doc:"Children per internal node.")
  in
  let seed_arg =
    Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload and generator seed.")
  in
  let sock_arg =
    Arg.(value & opt (some string) None & info [ "sock" ] ~docv:"PATH"
           ~doc:"Unix-socket path when self-serving (default: a \
                 per-process path under the temp dir).")
  in
  let sweep_arg =
    Arg.(value & opt (list int) [ 64 ] & info [ "sweep"; "clients" ]
           ~docv:"N,M,.." ~doc:"Client counts to measure, in order.")
  in
  let mode_arg =
    Arg.(value & opt string "closed" & info [ "mode" ] ~docv:"MODE"
           ~doc:"Arrival discipline: closed (think time) or open \
                 (Poisson arrivals).")
  in
  let duration_arg =
    Arg.(value & opt float 10.0 & info [ "duration-s" ] ~docv:"S"
           ~doc:"Measurement window per sweep point.")
  in
  let rpc_arg =
    Arg.(value & opt (some int) None & info [ "requests-per-client" ]
           ~docv:"N"
           ~doc:"Closed loop: stop each client after $(docv) requests \
                 instead of after --duration-s (deterministic totals \
                 for CI).")
  in
  let think_arg =
    Arg.(value & opt float 1.0 & info [ "think-ms" ] ~docv:"MS"
           ~doc:"Closed loop: think time between a reply and the next \
                 request.")
  in
  let rate_arg =
    Arg.(value & opt float 500.0 & info [ "rate" ] ~docv:"RPS"
           ~doc:"Open loop: system-wide Poisson arrival rate.")
  in
  let write_arg =
    Arg.(value & opt float 0.2 & info [ "write-fraction" ] ~docv:"F"
           ~doc:"Fraction of requests that are write transactions.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the sweep results as JSON to $(docv).")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Enable the metrics sink and dump Prometheus text to \
                 $(docv).")
  in
  let doc = "Multi-client load generator for the hypermodel socket server" in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "hyperload" ~doc)
          Term.(
            const main $ connect_arg $ backend_arg $ level_arg $ fanout_arg
            $ seed_arg $ sock_arg $ sweep_arg $ mode_arg $ duration_arg
            $ rpc_arg $ think_arg $ rate_arg $ write_arg $ json_arg
            $ metrics_arg)))
