(* Shared plumbing: clock, samples, store files, the per-run scratch
   directory, and the one-line JSON result. *)

module Stats = Hyper_util.Stats

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Check_failed m)) fmt

let now_s () = Int64.to_float (Hyper_util.Mtime_stub.now_ns ()) /. 1e9

(* Words allocated so far: minor plus directly-major (promotions are
   already counted once as minor words). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* CPU time (user plus system) of the whole process so far, in seconds:
   unlike wall time it does not grow while the host runs other guests. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  Stats.median s

let percentile s p = if Stats.count s = 0 then 0.0 else Stats.percentile s p

let geomean xs =
  let n = List.length xs in
  if n = 0 then 0.0
  else exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int n)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

(* Seeds for the separate input streams of one run, all drawn from the
   --seed argument so the same seed gives the same inputs. *)
let seeds seed n =
  let rng = Hyper_util.Prng.create (Int64.of_int seed) in
  Array.init n (fun _ -> Hyper_util.Prng.next_int64 rng)

(* A diskdb store is three files: data, checksum sidecar, WAL. *)
let store_files path = [ path; path ^ ".sum"; path ^ ".wal" ]

let remove_store path =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) (store_files path)

let file_size p =
  if Sys.file_exists p then (Unix.stat p).Unix.st_size else 0

let store_bytes path =
  List.fold_left (fun acc p -> acc + file_size p) 0 (store_files path)

(* A fresh store at [config]'s path holding one generated structure,
   checkpointed so the data file holds it all. *)
let generate_store config ~level ~seed =
  let module D = Hyper_diskdb.Diskdb in
  let module G = Hyper_core.Generator.Make (D) in
  remove_store config.D.path;
  let db = D.open_db config in
  let layout, timings = G.generate db ~doc:1 ~leaf_level:level ~seed in
  D.checkpoint db;
  (db, layout, timings)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> fail "no VmHWM line in /proc/self/status"
      in
      scan ())

(* Run [setup] [n] times, tearing down all but the last instance, and
   return that instance, the median set-up time in seconds, and the
   peak resident set after the first set-up.  The peak is read there
   because the heap's growth differs from one set-up to the next with
   the collector's pacing; the heap is compacted after each teardown so
   that one set-up's garbage does not carry into the next. *)
let repeat_setup n ~setup ~teardown =
  let rec go i times rss =
    let t0 = now_s () in
    let x = setup () in
    let times = (now_s () -. t0) :: times in
    let rss = if i = 1 then peak_rss_mb () else rss in
    if i >= n then (x, median times, rss)
    else begin
      teardown x;
      Gc.compact ();
      go (i + 1) times rss
    end
  in
  go 1 [] 0.0

(* Every file of a run lives in a fresh directory under the working
   directory, entered for the run so that file and socket names stay
   short and relative; it is removed at the end. *)
let with_scratch_dir f =
  let root = Sys.getcwd () in
  let base = Filename.concat root ".perfbench-tmp" in
  if not (Sys.file_exists base) then Sys.mkdir base 0o755;
  let dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let clear () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  clear ();
  Sys.mkdir dir 0o755;
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir root;
      clear ();
      if Sys.readdir base = [||] then Sys.rmdir base)
    f

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "metric value %f is not a finite number" v

(* Printed only when every output check passed; a failed check exits
   without a result line. *)
let result_line ~attempted ~failed metrics =
  let field m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
      (json_number m.value) m.unit_
  in
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed
    (String.concat ", " (List.map field metrics))

(* What one workload run reports: operations attempted and failed, and
   its metrics. *)
type run = { attempted : int; failed : int; metrics : metric list }

(* The end-to-end metrics every workload reports.  An "item" is the
   workload's unit of work: a node returned (paper_l6) or a request
   (served_mix).  [rss_mb] is read before the timed window: the work a
   window holds, and with it the memory the program retains, grows with
   the speed of the host. *)
let end_to_end ~setup_s ~rss_mb ~db_bytes ~items ~cpu_s ~words ~primary_ms
    ~secondary_ms =
  let items = float_of_int items in
  [ metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MiB" rss_mb;
    metric "db_mb" "MiB" (mib db_bytes);
    metric "alloc_words_per_item" "words" (ratio words items);
    metric "cpu_us_per_item" "us" (ratio (cpu_s *. 1e6) items);
    metric "primary_ms" "ms" primary_ms;
    metric "secondary_ms" "ms" secondary_ms ]
