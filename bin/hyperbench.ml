(* hyperbench — command-line driver for the HyperModel benchmark.

   Subcommands: generate, verify, run, query, multiuser, gc, info.
   `hyperbench SUBCOMMAND --help` documents each. *)

open Hyper_core
open Cmdliner

type backend_kind = Mem | Disk | Rel

let backend_conv =
  let parse = function
    | "memdb" -> Ok Mem
    | "diskdb" -> Ok Disk
    | "reldb" -> Ok Rel
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S" s))
  in
  let print fmt k =
    Format.pp_print_string fmt
      (match k with Mem -> "memdb" | Disk -> "diskdb" | Rel -> "reldb")
  in
  Arg.conv (parse, print)

(* Polymorphic action over any backend instance. *)
type action = {
  act : 'a. (module Backend.S with type t = 'a) -> 'a -> unit;
}

let with_backend kind ~path ~pool_pages ~remote action =
  match kind with
  | Mem ->
    let b = Hyper_memdb.Memdb.create () in
    action.act (module Hyper_memdb.Memdb) b
  | Disk ->
    let module D = Hyper_diskdb.Diskdb in
    let config =
      { (D.default_config ~path) with
        D.pool_pages;
        remote = (if remote then Some D.remote_1988 else None) }
    in
    let b = D.open_db config in
    Fun.protect ~finally:(fun () -> D.close b) (fun () -> action.act (module D) b)
  | Rel ->
    let module R = Hyper_reldb.Reldb in
    let config =
      { (R.default_config ~path) with
        R.pool_pages;
        remote =
          (if remote then Some Hyper_net.Channel.profile_1988 else None) }
    in
    let b = R.open_db config in
    Fun.protect ~finally:(fun () -> R.close b) (fun () -> action.act (module R) b)

(* Common argument definitions. *)

let backend_arg =
  Arg.(value & opt backend_conv Mem & info [ "b"; "backend" ] ~docv:"BACKEND"
         ~doc:"Backend: memdb, diskdb or reldb.")

let level_arg =
  Arg.(value & opt int 4 & info [ "l"; "level" ] ~docv:"LEVEL"
         ~doc:"Leaf level of the test database (paper sizes: 4, 5, 6).")

let path_arg =
  Arg.(value & opt string "/tmp/hypermodel.db" & info [ "p"; "path" ]
         ~docv:"PATH" ~doc:"Database file (diskdb/reldb only).")

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED"
         ~doc:"Generator seed; equal seeds give identical databases.")

let pool_arg =
  Arg.(value & opt int 2048 & info [ "pool" ] ~docv:"PAGES"
         ~doc:"Buffer pool capacity in 4 KiB pages.")

let remote_arg =
  Arg.(value & flag & info [ "remote" ]
         ~doc:"Simulate a 1988 workstation/server channel (diskdb/reldb).")

let cluster_arg =
  Arg.(value & opt bool true & info [ "cluster" ] ~docv:"BOOL"
         ~doc:"Cluster node placement along the 1-N hierarchy.")

let reps_arg =
  Arg.(value & opt int 50 & info [ "reps" ] ~docv:"N"
         ~doc:"Repetitions per operation sequence (the paper uses 50).")

let fanout_arg =
  Arg.(value & opt int 5 & info [ "fanout" ] ~docv:"N"
         ~doc:"Children per internal node (the paper uses 5; §5.2 N.B.                requires it to be variable).")

let layout_of ?fanout level =
  Layout.make ?fanout ~doc:1 ~oid_base:0 ~leaf_level:level ()

(* generate/run build the test database from scratch; a store left at
   the target path by a previous invocation would collide with
   regeneration ("oid 1 already exists").  Remove all of its files. *)
let remove_store path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

let generate_into (type a) (module B : Backend.S with type t = a) (b : a)
    ~level ~seed ~cluster ~fanout =
  let module G = Generator.Make (B) in
  G.generate ~cluster ~fanout b ~doc:1 ~leaf_level:level ~seed

(* --- generate --- *)

let cmd_generate =
  let run backend level path seed pool_pages cluster remote fanout =
    if backend <> Mem then remove_store path;
    with_backend backend ~path ~pool_pages ~remote
      { act =
          (fun (type a) (module B : Backend.S with type t = a) (b : a) ->
            let _, timings =
              generate_into (module B) b ~level ~seed ~cluster ~fanout
            in
            print_string
              (Report.creation_table
                 ~title:
                   (Printf.sprintf
                      "Database creation (%s, level %d, seed %Ld, cluster %b)"
                      B.name level seed cluster)
                 [ (B.name, level, timings) ]);
            Printf.printf "nodes: %d\nio: %s\n"
              (B.node_count b ~doc:1) (B.io_description b)) }
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Create a test database (paper §5.2/§5.3).")
    Term.(
      const run $ backend_arg $ level_arg $ path_arg $ seed_arg $ pool_arg
      $ cluster_arg $ remote_arg $ fanout_arg)

(* --- verify --- *)

let cmd_verify =
  let run backend level path seed pool_pages fresh fanout =
    with_backend backend ~path ~pool_pages ~remote:false
      { act =
          (fun (type a) (module B : Backend.S with type t = a) (b : a) ->
            let layout = layout_of ~fanout level in
            if fresh || backend = Mem then
              ignore
                (generate_into (module B) b ~level ~seed ~cluster:true ~fanout);
            let module V = Verify.Make (B) in
            let checks = V.run b layout in
            List.iter
              (fun c ->
                Printf.printf "[%s] %s%s\n"
                  (if c.Verify.ok then "ok" else "FAIL")
                  c.Verify.name
                  (if c.Verify.ok then "" else ": " ^ c.Verify.detail))
              checks;
            if Verify.all_ok checks then print_endline "all checks passed"
            else exit 1) }
  in
  let fresh_arg =
    Arg.(value & flag & info [ "fresh" ]
           ~doc:"Generate before verifying (implied for memdb).")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify the structural invariants of a database.")
    Term.(
      const run $ backend_arg $ level_arg $ path_arg $ seed_arg $ pool_arg
      $ fresh_arg $ fanout_arg)

(* --- run --- *)

(* Replicated run (diskdb only): the whole store lives on an in-memory
   fault-injection VFS so the cluster can snapshot its files; every
   commit ships through the WAL stream under the chosen ack policy.
   After the timed ops the primary is failed over and a read-only
   operation is served from the promoted replica. *)
let run_replicated ~level ~seed ~pool_pages ~cluster ~reps ~ops ~fanout
    ~replicas ~durability =
  let module D = Hyper_diskdb.Diskdb in
  let module Vfs = Hyper_storage.Vfs in
  let module Repl = Hyper_repl.Repl in
  let policy =
    match Repl.policy_of_string durability with
    | Some p -> p
    | None ->
      failwith
        (Printf.sprintf "unknown durability %S (async, sync-one, quorum)"
           durability)
  in
  let env = Vfs.Faulty.create Vfs.Faulty.quiet in
  let vfs = Vfs.Faulty.vfs env in
  let dbpath = "/bench/disk.db" in
  let config =
    { (D.default_config ~path:dbpath) with D.pool_pages; vfs = Some vfs }
  in
  let db = D.open_db config in
  let layout, _ = generate_into (module D) db ~level ~seed ~cluster ~fanout in
  let rs =
    List.init replicas (fun i ->
        Repl.Replica.create ~name:(Printf.sprintf "bench-r%d" i) ())
  in
  let cl =
    Repl.Cluster.create
      ~cfg:{ Repl.Cluster.default_config with Repl.Cluster.policy }
      ~engine:(D.engine db) ~vfs ~path:dbpath ~replicas:rs ()
  in
  let module P = Protocol.Make (D) in
  let pconfig = { Protocol.default_config with reps } in
  let ids = if ops = [] then Protocol.op_ids else ops in
  let ms = List.map (P.run_op ~config:pconfig db layout) ids in
  Repl.Cluster.heartbeat cl;
  print_string
    (Report.operation_table
       ~title:
         (Printf.sprintf
            "HyperModel operations (diskdb + %d replica(s), %s, level %d, \
             %d reps, ms/node)"
            replicas
            (Repl.policy_to_string policy)
            level reps)
       ~levels:[ level ] [ (level, ms) ]);
  Printf.printf "io: %s\n" (D.io_description db);
  Printf.printf "replication: %s\n" (Repl.Cluster.report cl);
  (* Failover: promote the most-caught-up replica and serve a warm
     read-only operation from it. *)
  let idx, survivor = Repl.Cluster.promote cl in
  Repl.Cluster.detach cl;
  let rdb =
    D.open_db
      { (D.default_config ~path:(Repl.Replica.path survivor)) with
        D.pool_pages;
        vfs = Some (Repl.Replica.vfs survivor) }
  in
  Fun.protect
    ~finally:(fun () -> D.close rdb)
    (fun () ->
      let m = P.run_op ~config:pconfig rdb layout "01" in
      Printf.printf
        "failover: promoted r%d (%d commits); op 01 from the replica: \
         %.3f/%.3f ms/node cold/warm\n"
        idx
        (Repl.Replica.applied_commits survivor)
        (Protocol.cold_ms_per_node m)
        (Protocol.warm_ms_per_node m))

(* JSON rendering of a measurement list for `run --json`. *)
let measurements_json ms =
  let module J = Hyper_util.Sjson in
  J.List
    (List.map
       (fun m ->
         J.Obj
           [ ("op", J.Str m.Protocol.op);
             ("cold_ms_per_node", J.Num (Protocol.cold_ms_per_node m));
             ("warm_ms_per_node", J.Num (Protocol.warm_ms_per_node m)) ])
       ms)

let write_file file s =
  let oc = open_out file in
  output_string oc s;
  close_out oc

(* Wire serving: `--serve ADDR` generates the database into the chosen
   backend and serves it over the socket protocol; `--connect ADDR`
   runs the op suite through a {!Hyper_net.Client_backend}, so
   [Protocol.Make] measures wire round-trips without knowing it left
   the process.  Both together make a single-process smoke test:
   in-process server, real socket in between. *)
let run_net ~backend ~level ~path ~seed ~pool_pages ~remote ~cluster ~reps
    ~ops ~fanout ~serve ~connect ~json =
  let module Net = Hyper_net in
  let run_client addr_s =
    let addr = Net.Netaddr.of_string addr_s in
    let layout = layout_of ~fanout level in
    let module CB = Net.Client_backend in
    let cb = CB.make (Net.Client.connect addr) in
    Fun.protect
      ~finally:(fun () -> Net.Client.close (CB.conn cb))
      (fun () ->
        let module P = Protocol.Make (CB) in
        let config = { Protocol.default_config with reps } in
        let ids = if ops = [] then Protocol.op_ids else ops in
        let ms = List.map (P.run_op ~config cb layout) ids in
        (match json with
        | None -> ()
        | Some file ->
          let module J = Hyper_util.Sjson in
          write_file file
            (J.to_string
               (J.Obj
                  [ ( "meta",
                      J.Obj
                        [ ("backend", J.Str "wire");
                          ("address", J.Str addr_s);
                          ("level", J.Num (float_of_int level));
                          ("reps", J.Num (float_of_int reps)) ] );
                    ("operations", measurements_json ms) ]));
          Printf.printf "json -> %s\n" file);
        print_string
          (Report.operation_table
             ~title:
               (Printf.sprintf
                  "HyperModel operations (wire %s, level %d, %d reps, ms/node)"
                  addr_s level reps)
             ~levels:[ level ] [ (level, ms) ]);
        Printf.printf "io: %s\n" (CB.io_description cb))
  in
  match (serve, connect) with
  | None, Some addr_s -> run_client addr_s
  | None, None -> assert false
  | Some addr_s, _ ->
    if backend <> Mem then remove_store path;
    with_backend backend ~path ~pool_pages ~remote
      { act =
          (fun (type a) (module B : Backend.S with type t = a) (b : a) ->
            let layout, _ =
              generate_into (module B) b ~level ~seed ~cluster ~fanout
            in
            let addr = Net.Netaddr.of_string addr_s in
            let instance =
              Backend.Instance ((module B : Backend.S with type t = a), b)
            in
            let srv = Net.Server.start ~layout instance addr in
            Printf.printf "serving %s level %d at %s\n%!" B.name level addr_s;
            (match connect with
            | Some caddr_s ->
              (* single-process smoke: client over a real socket *)
              run_client caddr_s
            | None ->
              (* serve until interrupted, then drain *)
              let stop = ref false in
              let arm s =
                match Sys.signal s (Sys.Signal_handle (fun _ -> stop := true))
                with
                | _ -> ()
                | exception Invalid_argument _ -> ()
                | exception Sys_error _ -> ()
              in
              arm Sys.sigint;
              arm Sys.sigterm;
              while not !stop do
                Thread.delay 0.2
              done;
              Printf.printf "draining...\n%!");
            Net.Server.drain ~grace_s:5.0 srv) }

let cc_of_string s =
  match String.lowercase_ascii s with
  | "occ" -> Multiuser.Optimistic
  | "2pl" -> Multiuser.Two_phase_locking
  | "mvcc" -> Multiuser.Mvcc
  | s -> failwith (Printf.sprintf "unknown mode %S (use occ, 2pl or mvcc)" s)

let print_multiuser (r : Multiuser.result) =
  Printf.printf
    "%s  users=%d  attempted=%d  committed=%d  aborted=%d  retried-ok=%d\n\
     wall=%.1f ms  throughput=%.0f txn/s\n"
    (Multiuser.mode_to_string r.Multiuser.mode)
    r.Multiuser.users r.Multiuser.txns_attempted r.Multiuser.committed
    r.Multiuser.aborted r.Multiuser.retried_ok r.Multiuser.wall_ms
    r.Multiuser.throughput_tps;
  if r.Multiuser.readers > 0 then
    Printf.printf "readers=%d  sweeps=%d  reader-aborts=%d\n"
      r.Multiuser.readers r.Multiuser.reader_sweeps r.Multiuser.reader_aborts

let cmd_run =
  let run backend level path seed pool_pages remote cluster reps ops fanout
      trace metrics replicas durability json serve connect cc =
    let module Obs = Hyper_obs.Obs in
    if metrics <> None then Obs.enable ();
    if replicas > 0 && backend <> Disk then
      failwith "--replicas requires -b diskdb";
    if (serve <> None || connect <> None) && replicas > 0 then
      failwith "--serve/--connect and --replicas are exclusive";
    if cc <> None && (serve <> None || connect <> None || replicas > 0) then
      failwith "--cc runs locally (not with --serve/--connect/--replicas)";
    if serve <> None || connect <> None then
      run_net ~backend ~level ~path ~seed ~pool_pages ~remote ~cluster ~reps
        ~ops ~fanout ~serve ~connect ~json
    else if replicas > 0 then
      run_replicated ~level ~seed ~pool_pages ~cluster ~reps ~ops ~fanout
        ~replicas ~durability
    else begin
    if backend <> Mem then remove_store path;
    with_backend backend ~path ~pool_pages ~remote
      { act =
          (fun (type a) (module B : Backend.S with type t = a) (b : a) ->
            let layout, _ =
              generate_into (module B) b ~level ~seed ~cluster ~fanout
            in
            let module P = Protocol.Make (B) in
            let config = { Protocol.default_config with reps } in
            let ids = if ops = [] then Protocol.op_ids else ops in
            (* Span collection starts after generation so the trace
               holds exactly one tree per timed batch. *)
            if trace <> None then Obs.Span.set_tracing true;
            let ms = List.map (P.run_op ~config b layout) ids in
            (* The small multiuser leg under the chosen concurrency
               control runs before the trace/metrics dumps so its
               counters (hyper_mvcc_*, lock waits) land in them. *)
            let mu_result =
              match cc with
              | None -> None
              | Some mode_s ->
                let module M = Multiuser.Make (B) in
                Some
                  (M.run ~readers:2 b layout ~mode:(cc_of_string mode_s)
                     ~users:4 ~txns_per_user:10 ~hot_fraction:0.5 ~seed)
            in
            (match trace with
            | None -> ()
            | Some file ->
              let roots = Obs.Span.take_roots () in
              Obs.Span.set_tracing false;
              let oc = open_out file in
              output_string oc (Obs.Span.to_string roots);
              close_out oc;
              Printf.printf "trace: %d root spans -> %s\n" (List.length roots)
                file);
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
              write_file file
                (J.to_string
                   (J.Obj
                      [ ( "meta",
                          J.Obj
                            [ ("backend", J.Str B.name);
                              ("level", J.Num (float_of_int level));
                              ("reps", J.Num (float_of_int reps)) ] );
                        ("operations", measurements_json ms) ]));
              Printf.printf "json -> %s\n" file);
            print_string
              (Report.operation_table
                 ~title:
                   (Printf.sprintf
                      "HyperModel operations (%s, level %d, %d reps, ms/node)"
                      B.name level reps)
                 ~levels:[ level ] [ (level, ms) ]);
            Printf.printf "io: %s\n" (B.io_description b);
            match mu_result with
            | None -> ()
            | Some r -> print_multiuser r) }
    end
  in
  let ops_arg =
    Arg.(value & opt (list string) [] & info [ "ops" ] ~docv:"IDS"
           ~doc:"Comma-separated op ids (e.g. 01,05A,10); default: all 20.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write per-operation span trees (one root per timed \
                 cold/warm batch) to $(docv).")
  in
  let metrics_arg =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Enable the metrics sink and write a Prometheus-style \
                 dump to $(docv) after the run.")
  in
  let replicas_arg =
    Arg.(value & opt int 0 & info [ "replicas" ] ~docv:"N"
           ~doc:"Replicate every commit to $(docv) WAL-shipping replicas \
                 (diskdb only; the store then runs on an in-memory VFS). \
                 After the timed ops the primary is failed over and op 01 \
                 is served from the promoted replica.")
  in
  let durability_arg =
    Arg.(value & opt string "async" & info [ "durability" ] ~docv:"MODE"
           ~doc:"Commit ack policy with --replicas: async, sync-one or \
                 quorum.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the per-operation measurements as JSON to \
                 $(docv) (non-replicated runs).")
  in
  let serve_arg =
    Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"ADDR"
           ~doc:"Generate the database and serve it over the wire protocol \
                 at $(docv) (unix:/path or host:port) until interrupted, \
                 instead of timing ops locally.")
  in
  let connect_arg =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Run the ops through a socket client against the server at \
                 $(docv).  Combined with --serve, starts an in-process \
                 server and runs the client against it over a real socket.")
  in
  let cc_arg =
    Arg.(value & opt (some string) None & info [ "cc" ] ~docv:"MODE"
           ~doc:"After the timed ops, run a small multiuser leg under this \
                 concurrency control (occ, 2pl or mvcc) with two concurrent \
                 readers on the same database.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Generate a database and run benchmark operations (paper §6).")
    Term.(
      const run $ backend_arg $ level_arg $ path_arg $ seed_arg $ pool_arg
      $ remote_arg $ cluster_arg $ reps_arg $ ops_arg $ fanout_arg
      $ trace_arg $ metrics_arg $ replicas_arg $ durability_arg $ json_arg
      $ serve_arg $ connect_arg $ cc_arg)

(* --- query --- *)

let cmd_query =
  let run backend level path seed pool_pages explain q =
    with_backend backend ~path ~pool_pages ~remote:false
      { act =
          (fun (type a) (module B : Backend.S with type t = a) (b : a) ->
            ignore
              (generate_into (module B) b ~level ~seed ~cluster:true ~fanout:5);
            if explain then
              print_endline (Query_bridge.explain (module B) b ~doc:1 q)
            else
              print_endline
                (Hyper_query.Engine.result_to_string
                   (Query_bridge.query (module B) b ~doc:1 q))) }
  in
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"e.g. \"select where hundred between 10 and 19 limit 5\".")
  in
  let explain_arg =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan instead.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run an ad-hoc query (R12) against a fresh database.")
    Term.(
      const run $ backend_arg $ level_arg $ path_arg $ seed_arg $ pool_arg
      $ explain_arg $ query_arg)

(* --- multiuser --- *)

let cmd_multiuser =
  let run level seed users txns hot mode_s readers =
    let mode = cc_of_string mode_s in
    let module B = Hyper_memdb.Memdb in
    let b = B.create () in
    let module G = Generator.Make (B) in
    let layout, _ = G.generate b ~doc:1 ~leaf_level:level ~seed in
    let module M = Multiuser.Make (B) in
    let r =
      M.run ~readers b layout ~mode ~users ~txns_per_user:txns
        ~hot_fraction:hot ~seed
    in
    print_multiuser r
  in
  let users_arg =
    Arg.(value & opt int 4 & info [ "users" ] ~docv:"N" ~doc:"User threads.")
  in
  let txns_arg =
    Arg.(value & opt int 100 & info [ "txns" ] ~docv:"N"
           ~doc:"Transactions per user.")
  in
  let hot_arg =
    Arg.(value & opt float 0.3 & info [ "hot" ] ~docv:"F"
           ~doc:"Fraction of transactions on the shared hot subtree.")
  in
  let mode_arg =
    Arg.(value & opt string "occ" & info [ "mode"; "cc" ] ~docv:"MODE"
           ~doc:"Concurrency control: occ, 2pl or mvcc.")
  in
  let readers_arg =
    Arg.(value & opt int 0 & info [ "readers" ] ~docv:"N"
           ~doc:"Concurrent whole-structure reader threads (MVCC readers \
                 hold no locks; 2PL readers take shared locks).")
  in
  Cmd.v
    (Cmd.info "multiuser"
       ~doc:"Multi-user update experiment (paper §7) on the memory backend.")
    Term.(
      const run $ level_arg $ seed_arg $ users_arg $ txns_arg $ hot_arg
      $ mode_arg $ readers_arg)

(* --- gc --- *)

let cmd_gc =
  let run backend path pool_pages =
    match backend with
    | Mem ->
      print_endline
        "memdb objects are reclaimed by the OCaml runtime; nothing to do"
    | Disk ->
      let module D = Hyper_diskdb.Diskdb in
      let b = D.open_db { (D.default_config ~path) with D.pool_pages } in
      let freed = D.collect_garbage b in
      Printf.printf "reclaimed %d orphaned page(s); file %d KB\n" freed
        (D.file_bytes b / 1024);
      D.close b
    | Rel ->
      let module R = Hyper_reldb.Reldb in
      let b = R.open_db { (R.default_config ~path) with R.pool_pages } in
      let freed = R.collect_garbage b in
      Printf.printf "reclaimed %d orphaned page(s); file %d KB\n" freed
        (R.file_bytes b / 1024);
      R.close b
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Collect unreachable pages (R10: garbage collection of \
          non-referenced objects).")
    Term.(const run $ backend_arg $ path_arg $ pool_arg)

(* --- info --- *)

let cmd_info =
  let run level =
    Printf.printf "HyperModel test database arithmetic (paper §5.2)\n\n";
    List.iter
      (fun l ->
        Printf.printf
          "level %d: %6d nodes (%d forms, %d texts at the leaves), \
           model size %.1f MB, level-3 closure %d nodes\n"
          l
          (Schema.total_nodes ~leaf_level:l)
          (Layout.form_count (layout_of l))
          (Layout.text_count (layout_of l))
          (float_of_int (Schema.model_db_bytes ~leaf_level:l) /. 1e6)
          (Schema.closure_size ~leaf_level:l))
      [ 4; 5; 6; level ]
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print the paper's database-size arithmetic.")
    Term.(const run $ level_arg)

let () =
  let doc = "The HyperModel benchmark (Berre, Anderson, Mallison 1990)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "hyperbench" ~doc)
          [ cmd_generate; cmd_verify; cmd_run; cmd_query; cmd_multiuser;
            cmd_gc; cmd_info ]))
