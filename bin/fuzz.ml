(* hyperfuzz — the fuzz driver.

   Every subcommand but [replay] is a preset: a seed-driven schedule of
   cases (Hyper_check.Preset — a subject, a fault schedule, a trace),
   each judged by the memdb oracle, run under one budgeted loop.  Every
   failure saves a repro that [hyperfuzz replay] re-runs through the
   same check.  Exit status 1 on any failure — CI fails the job and
   uploads the repros. *)

open Cmdliner
module Dif = Hyper_check.Differential
module P = Hyper_check.Preset
module Repl = Hyper_repl.Repl

let say fmt = Printf.printf (fmt ^^ "\n%!")
let gen_seed = 42L

let parse_subjects s =
  match
    List.map
      (fun n ->
        match Dif.kind_of_name (String.trim n) with
        | Some k -> k
        | None -> failwith (Printf.sprintf "unknown subject %S" n))
      (String.split_on_char ',' s)
  with
  | [] -> failwith "empty subject list"
  | kinds -> kinds

(* Stratify n crash points over the write-count space of the trace:
   evenly spaced, never 0. *)
let crash_points ~writes n =
  if writes <= 0 || n <= 0 then []
  else
    List.init n (fun i -> min (1 + (i * writes / n)) writes)
    |> List.sort_uniq compare

(* The one fuzz loop: [legs i] are case [i]'s checks.  The budget is
   checked before each case and between its legs, on the monotonic
   clock so a wall-clock step cannot end or extend the window. *)
let fuzz ~name ~seed ~count ~level ~steps ~budget_s ~dir legs =
  let now_s () = Int64.to_float (Hyper_util.Mtime_stub.now_ns ()) /. 1e9 in
  let deadline = now_s () +. budget_s in
  let expired () = budget_s > 0.0 && now_s () > deadline in
  let ran = ref 0 and failures = ref 0 and crashes = ref 0 in
  let snapshots = ref 0 and replays = ref 0 in
  (try
     for i = 0 to count - 1 do
       if expired () then raise Exit;
       incr ran;
       List.iteri
         (fun j case ->
           if j = 0 || not (expired ()) then begin
             let o = P.check ~shrink:true case in
             if o.P.crashed then incr crashes;
             snapshots := !snapshots + fst o.catchups;
             replays := !replays + snd o.catchups;
             if not o.ok then begin
               incr failures;
               let path = Filename.concat dir (P.file_name o.repro) in
               P.save ~path o.repro;
               say "FAILURE (%s, seed %Ld):" (P.preset o.repro) o.repro.seed;
               say "%s" o.report;
               say "replay: hyperfuzz replay %s" path
             end
           end)
         (legs i)
     done
   with Exit -> ());
  say
    "%s: %d case(s), %d failure(s) [%d crash(es), %d snapshot / %d replay \
     catch-up(s); seed base %Ld, level %d, steps %d]"
    name !ran !failures !crashes !snapshots !replays seed level steps;
  if !failures > 0 then exit 1

let trace ~seed ~level ~steps =
  Hyper_check.Gen.trace ~seed ~gen_seed ~level ~steps

let case ~seed ~level ?(ops = []) subject crash_after =
  { P.subject; crash_after; seed; gen_seed; level; ops }

(* run / net: the differential check on each subject, then [npoints]
   crash points stratified over the trace's writes. *)
let differential ~wire ~subjects seed traces steps level budget_s npoints dir =
  fuzz ~name:(if wire then "net" else "run") ~seed ~count:traces ~level ~steps
    ~budget_s ~dir (fun i ->
      let seed = Int64.add seed (Int64.of_int i) in
      let ops = trace ~seed ~level ~steps in
      let case = case ~seed ~level ~ops in
      let subject k = if wire then P.Wire k else P.Local k in
      let writes =
        if npoints = 0 then 0
        else
          Dif.crash_writes
            (Dif.subject ~durable:true ~gen_seed ~level Dif.Disk)
            ops
      in
      List.map (fun k -> case (subject k) None) subjects
      @ List.map
          (fun k -> case (subject Dif.Disk) (Some k))
          (crash_points ~writes npoints))

let run_fuzz seed traces steps level budget_s subjects npoints dir =
  differential ~wire:false ~subjects:(parse_subjects subjects) seed traces steps
    level budget_s npoints dir

let run_net seed traces steps level budget_s npoints dir =
  differential ~wire:true ~subjects:[ Dif.Disk ] seed traces steps level budget_s
    npoints dir

let run_replay path subjects =
  let failed =
    List.filter
      (fun c ->
        let o = P.check c in
        say "%s" o.P.report;
        not o.ok)
      (P.load ~local:(parse_subjects subjects) path)
  in
  if failed <> [] then exit 1

(* mvcc: the version store under concurrent writers and pinned-snapshot
   readers, then memdb snapshot views diffed against oracle replays of
   their commit prefix.  The thread/key shape varies with the case
   index so few-hot-keys through wide-key-space contention are all
   visited. *)
let run_mvcc seed traces steps level budget_s dir =
  fuzz ~name:"mvcc" ~seed ~count:traces ~level ~steps ~budget_s ~dir (fun i ->
      let seed = Int64.add seed (Int64.of_int i) in
      let store =
        P.Store
          { writers = 2 + (i mod 3); readers = 1 + (i mod 2);
            keys = [| 4; 16; 64 |].(i mod 3); txns = 50 }
      in
      [ case ~seed ~level store None;
        case ~seed ~level ~ops:(trace ~seed ~level ~steps)
          (P.Snapshots (max 8 (steps / 4))) None ])

(* failover: cycle the ack policies, stratify the primary crash point,
   alternate link faults, and periodically throw in a replica
   kill/restart and a tiny retention window (the latter forces the
   snapshot catch-up path). *)
let run_failover seed cases steps level budget_s replicas dir =
  fuzz ~name:"failover" ~seed ~count:cases ~level ~steps ~budget_s ~dir
    (fun i ->
      let kill_at =
        if i mod 5 = 3 then Some (i mod replicas, steps / 4) else None
      in
      let retain, snapshot_lag =
        if i mod 7 = 2 then (8, 16) else (4096, 1024)
      in
      let config =
        { Hyper_check.Failover.policy =
            (match i mod 3 with
            | 0 -> Repl.Async
            | 1 -> Repl.Sync_one
            | _ -> Repl.Quorum);
          replicas; net_faults = i mod 2 = 0; kill_at;
          restart_at =
            (if kill_at <> None && i mod 2 = 1 then Some (steps * 3 / 4)
             else None);
          retain; snapshot_lag }
      in
      let seed = Int64.add seed (Int64.of_int i) in
      [ case ~seed ~level ~ops:(trace ~seed ~level ~steps) (P.Replicated config)
          (Some [| 0; 40; 150; 600 |].(i / 3 mod 4)) ])

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"N"
         ~doc:"Base trace seed; case $(i,i) uses seed+$(i,i).")

let count_arg name doc =
  Arg.(value & opt int 10_000 & info [ name ] ~docv:"N"
         ~doc:(doc ^ " (the budget usually stops first)."))

let traces_arg = count_arg "traces" "Maximum number of traces"

let steps_arg default =
  Arg.(value & opt int default & info [ "steps" ] ~docv:"N"
         ~doc:"Ops per trace.")

let level_arg =
  Arg.(value & opt int 3 & info [ "level" ] ~docv:"L"
         ~doc:"Leaf level of the generated database.")

let budget_arg =
  Arg.(value & opt float 30.0 & info [ "budget-s" ] ~docv:"SECONDS"
         ~doc:"Wall-clock budget; 0 disables.")

let subjects_arg =
  Arg.(value & opt string "diskdb,diskdb-remote,reldb"
       & info [ "subjects" ] ~docv:"LIST"
           ~doc:"Comma-separated subjects: diskdb, diskdb-remote, reldb.")

let crash_points_arg =
  Arg.(value & opt int 0 & info [ "crash-points" ] ~docv:"N"
         ~doc:"Crash-point interleavings per trace (0 disables crash mode).")

let dir_arg =
  Arg.(value & opt string "." & info [ "repro-dir" ] ~docv:"DIR"
         ~doc:"Where to save repro files.")

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"Repro file.")

let replicas_arg =
  Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N"
         ~doc:"Replicas behind the primary.")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let () =
  let doc = "differential oracle fuzzer for the HyperModel backends" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "hyperfuzz" ~doc)
          [ cmd "run" "Fuzz backends against the memdb oracle"
              Term.(const run_fuzz $ seed_arg $ traces_arg $ steps_arg 120
                    $ level_arg $ budget_arg $ subjects_arg $ crash_points_arg
                    $ dir_arg);
            cmd "replay"
              "Re-run a saved repro through the check that found it (a bare \
               v1 header: the differential check on $(b,--subjects))"
              Term.(const run_replay $ trace_arg $ subjects_arg);
            cmd "net"
              "Fuzz the socket stack: differential traces through a wire \
               client + server, plus server-crash acked-prefix recovery checks"
              Term.(const run_net $ seed_arg $ traces_arg $ steps_arg 120
                    $ level_arg $ budget_arg $ crash_points_arg $ dir_arg);
            cmd "mvcc"
              "Fuzz snapshot isolation: concurrent writers vs pinned snapshot \
               readers over the version store, plus memdb snapshot views \
               diffed against oracle replays of their commit prefix"
              Term.(const run_mvcc $ seed_arg $ traces_arg $ steps_arg 120
                    $ level_arg $ budget_arg $ dir_arg);
            cmd "failover"
              "Crash-fuzz the replication layer: replicate, fail, promote, \
               diff the survivor"
              Term.(const run_failover $ seed_arg
                    $ count_arg "cases" "Maximum number of failover cases"
                    $ steps_arg 60 $ level_arg $ budget_arg $ replicas_arg
                    $ dir_arg) ]))
