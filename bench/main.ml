(* The HyperModel benchmark harness.

   Regenerates every artefact the paper commits to (see DESIGN.md §4):

     F1  schema verification          F2  1-N tree population
     F3  M-N structure statistics     F4  reference-graph statistics
     T1  database sizes (§5.2)        T2  creation times (§5.3)
     T3  the 20-operation matrix (§6, cold/warm × levels)
     T4  cross-backend comparison     T5  clustering & pool ablations
     T6  extension operations (§6.8)  T7  multi-user experiments (§7)

   and ends with the expected-shape checks; any failing check exits 1.

   Usage: dune exec bench/main.exe [-- --levels 4,5 --reps 20 --quick
   --skip T3,T4] *)

open Hyper_core
module Mem = Hyper_memdb.Memdb
module Dsk = Hyper_diskdb.Diskdb
module Rel = Hyper_reldb.Reldb
module Table = Hyper_util.Table
module Prng = Hyper_util.Prng

module GenM = Generator.Make (Mem)
module GenD = Generator.Make (Dsk)
module GenR = Generator.Make (Rel)
module ProtoM = Protocol.Make (Mem)
module ProtoD = Protocol.Make (Dsk)
module ProtoR = Protocol.Make (Rel)
module VerM = Verify.Make (Mem)
module VerD = Verify.Make (Dsk)
module VerR = Verify.Make (Rel)
module OpsM = Ops.Make (Mem)
module OpsD = Ops.Make (Dsk)
module ExtM = Extensions.Make (Mem)
module MultiM = Multiuser.Make (Mem)

(* --- configuration --- *)

type cfg = {
  mutable levels : int list;
  mutable reps : int;
  mutable seed : int64;
  mutable skip : string list;
}

let cfg =
  { levels = [ 4; 5; 6 ]; reps = 50; seed = 42L; skip = [] }

let parse_args () =
  let set_levels s =
    cfg.levels <- List.map int_of_string (String.split_on_char ',' s)
  in
  let spec =
    [ ("--levels", Arg.String set_levels, "LIST leaf levels (default 4,5,6)");
      ("--reps", Arg.Int (fun n -> cfg.reps <- n), "N repetitions (default 50)");
      ("--seed", Arg.String (fun s -> cfg.seed <- Int64.of_string s), "S seed");
      ("--quick", Arg.Unit (fun () -> cfg.levels <- [ 4 ]; cfg.reps <- 10),
       " small run (level 4, 10 reps)");
      ("--skip", Arg.String (fun s -> cfg.skip <- String.split_on_char ',' s),
       "LIST skip experiment ids (e.g. T3,T7)") ]
  in
  Arg.parse spec
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "HyperModel benchmark harness"

let skipped id = List.mem id cfg.skip

let banner id title =
  Printf.printf "\n================ %s — %s ================\n\n" id title

(* --- shared database instances --- *)

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hyperbench_%d_%s" (Unix.getpid ()) name)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

(* Memoized per-level instances; update operations in the protocol are
   self-inverse over an even rep count, so reuse across sections is
   sound. *)
let mem_cache : (int, Mem.t * Layout.t * Generator.timings) Hashtbl.t =
  Hashtbl.create 4

let mem_db level =
  match Hashtbl.find_opt mem_cache level with
  | Some entry -> entry
  | None ->
    let b = Mem.create () in
    let layout, timings = GenM.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
    Hashtbl.add mem_cache level (b, layout, timings);
    (b, layout, timings)

let disk_cache : (int, Dsk.t * Layout.t * Generator.timings) Hashtbl.t =
  Hashtbl.create 4

let disk_db level =
  match Hashtbl.find_opt disk_cache level with
  | Some entry -> entry
  | None ->
    let path = tmp (Printf.sprintf "disk_l%d.db" level) in
    cleanup path;
    let b = Dsk.open_db (Dsk.default_config ~path) in
    let layout, timings = GenD.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
    Hashtbl.add disk_cache level (b, layout, timings);
    (b, layout, timings)

let rel_cache : (int, Rel.t * Layout.t * Generator.timings) Hashtbl.t =
  Hashtbl.create 4

let rel_db level =
  match Hashtbl.find_opt rel_cache level with
  | Some entry -> entry
  | None ->
    let path = tmp (Printf.sprintf "rel_l%d.db" level) in
    cleanup path;
    let b = Rel.open_db (Rel.default_config ~path) in
    let layout, timings = GenR.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
    Hashtbl.add rel_cache level (b, layout, timings);
    (b, layout, timings)

let protocol_config () = { Protocol.default_config with reps = cfg.reps }

(* Shape checks collected along the way; summarised at the end. *)
let shape_results : (string * bool * string) list ref = ref []

let shape name ok detail = shape_results := (name, ok, detail) :: !shape_results

(* ====================== F1: schema verification ====================== *)

let f1 () =
  banner "F1" "schema (Figure 1): structural verification on every backend";
  let level = List.hd cfg.levels in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Every Figure-1 constraint, checked on the generated level-%d \
            database" level)
      [ ("check", Table.Left); ("memdb", Table.Left); ("diskdb", Table.Left);
        ("reldb", Table.Left) ]
  in
  let bm, lm, _ = mem_db level in
  let bd, ld, _ = disk_db level in
  let br, lr, _ = rel_db level in
  let cm = VerM.run bm lm and cd = VerD.run bd ld and cr = VerR.run br lr in
  List.iteri
    (fun i c ->
      let cell checks =
        let c = List.nth checks i in
        if c.Verify.ok then "ok" else "FAIL: " ^ c.Verify.detail
      in
      Table.add_row t [ c.Verify.name; cell cm; cell cd; cell cr ])
    cm;
  Table.print t;
  shape "F1 all backends verify"
    (Verify.all_ok cm && Verify.all_ok cd && Verify.all_ok cr)
    "structural constraints hold on all backends"

(* ====================== F2: 1-N tree population ====================== *)

let f2 () =
  banner "F2" "the 1-N hierarchy (Figure 2): node population per level";
  let t =
    Table.create
      ~title:"Nodes per tree level (generated vs. paper arithmetic 5^i)"
      ([ ("leaf level", Table.Right) ]
      @ List.init 7 (fun i -> (Printf.sprintf "level %d" i, Table.Right))
      @ [ ("total", Table.Right); ("texts", Table.Right); ("forms", Table.Right) ])
  in
  List.iter
    (fun level ->
      let _, layout, _ = mem_db level in
      let cells =
        List.init 7 (fun i ->
            if i > level then "-"
            else string_of_int (Schema.nodes_at_level i))
      in
      Table.add_row t
        (string_of_int level :: cells
        @ [ string_of_int layout.Layout.node_count;
            string_of_int (Layout.text_count layout);
            string_of_int (Layout.form_count layout) ]))
    cfg.levels;
  Table.print t;
  (* Counts measured from the database itself. *)
  let level = List.hd (List.rev cfg.levels) in
  let b, layout, _ = mem_db level in
  let measured = Array.make (level + 1) 0 in
  Layout.iter_oids layout (fun oid ->
      let l = Layout.level_of_oid layout oid in
      measured.(l) <- measured.(l) + 1);
  let ok = ref true in
  Array.iteri
    (fun i n -> if n <> Schema.nodes_at_level i then ok := false)
    measured;
  ignore b;
  shape "F2 level populations" !ok "measured per-level counts match 5^i"

(* ====================== F3: M-N structure ====================== *)

let f3 () =
  banner "F3" "the M-N hierarchy (Figure 3): shared sub-parts statistics";
  let t =
    Table.create
      ~title:"M-N parts relationships (target: edges = N - 1; fan-in varies)"
      [ ("level", Table.Right); ("edges", Table.Right); ("target", Table.Right);
        ("max fan-in", Table.Right); ("shared nodes %", Table.Right) ]
  in
  List.iter
    (fun level ->
      let b, layout, _ = mem_db level in
      let edges = ref 0 and max_fan = ref 0 and shared = ref 0 in
      Layout.iter_oids layout (fun oid ->
          edges := !edges + Array.length (Mem.parts b oid);
          let fan_in = Array.length (Mem.part_of b oid) in
          if fan_in > !max_fan then max_fan := fan_in;
          if fan_in > 1 then incr shared);
      Table.add_row t
        [ string_of_int level; string_of_int !edges;
          string_of_int (layout.Layout.node_count - 1);
          string_of_int !max_fan;
          Printf.sprintf "%.1f"
            (100.0 *. float_of_int !shared
            /. float_of_int layout.Layout.node_count) ];
      shape
        (Printf.sprintf "F3 M-N edge count (level %d)" level)
        (!edges = layout.Layout.node_count - 1)
        "M-N relationship count equals N - 1")
    cfg.levels;
  Table.print t

(* ====================== F4: reference graph ====================== *)

let f4 () =
  banner "F4" "the M-N attribute graph (Figure 4): references and offsets";
  let t =
    Table.create
      ~title:"refTo/refFrom relationships (target: edges = N; offsets ~U(0,9))"
      [ ("level", Table.Right); ("edges", Table.Right); ("target", Table.Right);
        ("offset mean", Table.Right); ("offset min..max", Table.Right) ]
  in
  List.iter
    (fun level ->
      let b, layout, _ = mem_db level in
      let edges = ref 0 and sum = ref 0 in
      let lo = ref 99 and hi = ref (-1) in
      Layout.iter_oids layout (fun oid ->
          Array.iter
            (fun l ->
              incr edges;
              sum := !sum + l.Schema.offset_to;
              if l.Schema.offset_to < !lo then lo := l.Schema.offset_to;
              if l.Schema.offset_to > !hi then hi := l.Schema.offset_to)
            (Mem.refs_to b oid));
      let mean = float_of_int !sum /. float_of_int !edges in
      Table.add_row t
        [ string_of_int level; string_of_int !edges;
          string_of_int layout.Layout.node_count; Printf.sprintf "%.2f" mean;
          Printf.sprintf "%d..%d" !lo !hi ];
      shape
        (Printf.sprintf "F4 reference count (level %d)" level)
        (!edges = layout.Layout.node_count)
        "one reference per node";
      shape
        (Printf.sprintf "F4 offsets uniform-ish (level %d)" level)
        (mean > 3.5 && mean < 5.5 && !lo = 0 && !hi = 9)
        "offsets span 0..9 with mean near 4.5")
    cfg.levels;
  Table.print t

(* ====================== T1: database sizes ====================== *)

let t1 () =
  banner "T1" "database size (§5.2: ~8 MB at level 6, x5 per level)";
  let rows =
    List.map
      (fun level ->
        let b, _, _ = disk_db level in
        Dsk.checkpoint b;
        (level, Schema.model_db_bytes ~leaf_level:level, Dsk.file_bytes b))
      cfg.levels
  in
  print_string
    (Report.size_table
       ~title:"Paper size model vs. measured diskdb file size" rows);
  (match List.rev rows with
  | (level, modelled, measured) :: _ ->
    let ratio = float_of_int measured /. float_of_int modelled in
    shape "T1 size within model" (ratio > 0.7 && ratio < 1.6)
      (Printf.sprintf "level %d: measured/model = %.2f" level ratio)
  | [] -> ());
  (* Growth factor between consecutive levels should be ~5. *)
  (match rows with
  | (_, _, a) :: (_, _, b) :: _ ->
    let growth = float_of_int b /. float_of_int a in
    shape "T1 x5 growth per level" (growth > 3.5 && growth < 6.5)
      (Printf.sprintf "growth factor %.1f" growth)
  | _ -> ())

(* ====================== T2: creation times ====================== *)

let copy_file src dst =
  let ic = open_in_bin src in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc contents;
  close_out oc

let t2 () =
  banner "T2" "creation times (§5.3), per phase, commit included";
  let rows =
    List.concat_map
      (fun level ->
        let _, _, tm = mem_db level in
        let _, _, td = disk_db level in
        let _, _, tr = rel_db level in
        [ ("memdb", level, tm); ("diskdb", level, td); ("reldb", level, tr) ])
      cfg.levels
  in
  print_string
    (Report.creation_table ~title:"Node and relationship creation (ms)" rows);
  (* Database open — the seventh RUBE87 operation the HyperModel
     incorporates (§4).  Measured on a file copy so the shared instances
     stay open. *)
  let t =
    Table.create ~title:"Database open (ms; attach roots, walk heap chains)"
      [ ("level", Table.Right); ("diskdb", Table.Right);
        ("reldb", Table.Right) ]
  in
  List.iter
    (fun level ->
      let probe_disk =
        let b, _, _ = disk_db level in
        Dsk.checkpoint b;
        let src = tmp (Printf.sprintf "disk_l%d.db" level) in
        let dst = tmp "open_probe_disk.db" in
        copy_file src dst;
        let _, span =
          Hyper_util.Vclock.time (fun () ->
              let b = Dsk.open_db (Dsk.default_config ~path:dst) in
              Dsk.close b)
        in
        cleanup dst;
        Hyper_util.Vclock.total_ms span
      in
      let probe_rel =
        let b, _, _ = rel_db level in
        Rel.checkpoint b;
        let src = tmp (Printf.sprintf "rel_l%d.db" level) in
        let dst = tmp "open_probe_rel.db" in
        copy_file src dst;
        let _, span =
          Hyper_util.Vclock.time (fun () ->
              let b = Rel.open_db (Rel.default_config ~path:dst) in
              Rel.close b)
        in
        cleanup dst;
        Hyper_util.Vclock.total_ms span
      in
      Table.add_row t
        [ string_of_int level; Table.fms probe_disk; Table.fms probe_rel ])
    cfg.levels;
  Table.print t

(* ====================== T3: the operation matrix ====================== *)

let t3_results : (string * int * Protocol.measurement list) list ref = ref []

let t3 () =
  banner "T3"
    "the 20 HyperModel operations (§6): ms per node, cold and warm";
  let config = protocol_config () in
  let run name proto =
    List.iter
      (fun level ->
        let ms = proto level config in
        t3_results := (name, level, ms) :: !t3_results)
      cfg.levels;
    let per_level =
      List.filter_map
        (fun (n, l, ms) -> if n = name then Some (l, ms) else None)
        !t3_results
    in
    print_string
      (Report.operation_table
         ~title:
           (Printf.sprintf "%s (%d reps per op; ms/node returned)" name
              cfg.reps)
         ~levels:cfg.levels per_level)
  in
  run "memdb" (fun level config ->
      let b, layout, _ = mem_db level in
      ProtoM.run_all ~config b layout);
  run "diskdb" (fun level config ->
      let b, layout, _ = disk_db level in
      ProtoD.run_all ~config b layout);
  run "reldb" (fun level config ->
      let b, layout, _ = rel_db level in
      ProtoR.run_all ~config b layout);
  (* Shape: warm never dramatically slower than cold on the disk backend
     for read operations (caching works). *)
  let disk_ms =
    List.concat_map
      (fun (n, _, ms) -> if n = "diskdb" then ms else [])
      !t3_results
  in
  let cold_beats_warm =
    List.filter
      (fun m ->
        Protocol.warm_ms_per_node m > 3.0 *. Protocol.cold_ms_per_node m
        && Protocol.cold_ms_per_node m > 0.0001)
      disk_ms
  in
  shape "T3 warm <= cold on diskdb (within noise)"
    (List.length cold_beats_warm <= 4)
    (Printf.sprintf "%d of %d measurements warm>3x cold"
       (List.length cold_beats_warm) (List.length disk_ms))

(* ====================== T4: backend comparison ====================== *)

let t4 () =
  banner "T4" "cross-DBMS comparison (the paper's motivating table)";
  let level = List.hd (List.rev cfg.levels) in
  let config = protocol_config () in
  let key_ops = [ "01"; "03"; "05A"; "07A"; "09"; "10"; "14"; "16" ] in
  let mem_ms =
    let b, layout, _ = mem_db level in
    List.map (fun id -> ProtoM.run_op ~config b layout id) key_ops
  in
  let disk_ms =
    let b, layout, _ = disk_db level in
    List.map (fun id -> ProtoD.run_op ~config b layout id) key_ops
  in
  let remote_ms =
    let path = tmp "disk_remote.db" in
    cleanup path;
    let b =
      Dsk.open_db
        { (Dsk.default_config ~path) with Dsk.remote = Some Dsk.remote_1988 }
    in
    let layout, _ = GenD.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
    let ms = List.map (fun id -> ProtoD.run_op ~config b layout id) key_ops in
    Dsk.close b;
    cleanup path;
    ms
  in
  let rel_ms =
    let b, layout, _ = rel_db level in
    List.map (fun id -> ProtoR.run_op ~config b layout id) key_ops
  in
  let rel_remote_ms =
    let path = tmp "rel_remote.db" in
    cleanup path;
    let b =
      Rel.open_db
        { (Rel.default_config ~path) with
          Rel.remote = Some Hyper_net.Channel.profile_1988 }
    in
    let layout, _ = GenR.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
    let ms = List.map (fun id -> ProtoR.run_op ~config b layout id) key_ops in
    Rel.close b;
    cleanup path;
    ms
  in
  let backends = [ "memdb"; "diskdb"; "disk-remote"; "reldb"; "rel-remote" ] in
  let rows =
    List.mapi
      (fun i m ->
        ( m.Protocol.op,
          [ ("memdb", m); ("diskdb", List.nth disk_ms i);
            ("disk-remote", List.nth remote_ms i);
            ("reldb", List.nth rel_ms i);
            ("rel-remote", List.nth rel_remote_ms i) ] ))
      mem_ms
  in
  print_string
    (Report.comparison_table
       ~title:
         (Printf.sprintf
            "Key operations at level %d (ms/node; disk-remote simulates a \
             1988 LAN + server disk)" level)
       ~backends rows);
  (* R7: "a typical application will need access to something between
     100 - 10,000 objects per second".  Warm traversal rates per
     architecture, objects/second. *)
  let t_rate =
    Table.create
      ~title:
        "R7 check: warm closure1N traversal rate (objects/second; paper \
         target 100-10,000 for interactive work)"
      [ ("backend", Table.Left); ("objects/s", Table.Right);
        ("meets R7", Table.Left) ]
  in
  let closure_of ms = List.nth ms 5 in
  List.iter
    (fun (name, ms) ->
      let warm = Protocol.warm_ms_per_node (closure_of ms) in
      let rate = if warm > 0.0 then 1000.0 /. warm else infinity in
      Table.add_row t_rate
        [ name;
          (if rate = infinity then ">10M" else Printf.sprintf "%.0f" rate);
          (if rate >= 100.0 then "yes" else "NO") ])
    [ ("memdb", mem_ms); ("diskdb", disk_ms); ("disk-remote", remote_ms);
      ("reldb", rel_ms); ("rel-remote", rel_remote_ms) ];
  Table.print t_rate;
  (* Shapes the paper predicts. *)
  let get ms op_idx = List.nth ms op_idx in
  let closure_idx = 5 (* op 10 *) in
  let remote_cold = Protocol.cold_ms_per_node (get remote_ms closure_idx) in
  let remote_warm = Protocol.warm_ms_per_node (get remote_ms closure_idx) in
  shape "T4 remote cold >> remote warm (closure1N)"
    (remote_cold > 3.0 *. remote_warm)
    (Printf.sprintf "cold %.3f vs warm %.3f ms/node" remote_cold remote_warm);
  let mem_cold = Protocol.cold_ms_per_node (get mem_ms closure_idx) in
  shape "T4 memdb fastest on traversals"
    (mem_cold <= Protocol.cold_ms_per_node (get disk_ms closure_idx)
    && mem_cold <= Protocol.cold_ms_per_node (get rel_ms closure_idx))
    "in-memory traversal at least as fast as disk/relational";
  let rel_remote_cold =
    Protocol.cold_ms_per_node (get rel_remote_ms closure_idx)
  in
  let rel_remote_warm =
    Protocol.warm_ms_per_node (get rel_remote_ms closure_idx)
  in
  shape "T4 rel-remote cold >> rel-remote warm (closure1N)"
    (rel_remote_cold > 3.0 *. rel_remote_warm)
    (Printf.sprintf "cold %.3f vs warm %.3f ms/node" rel_remote_cold
       rel_remote_warm)

(* ====================== T5: ablations ====================== *)

let t5 () =
  banner "T5" "ablations: clustering (§5.2) and buffer-pool size";
  let level = List.hd (List.rev cfg.levels) in
  let config = { (protocol_config ()) with Protocol.reps = max 10 (cfg.reps / 2) } in
  (* Clustering on/off with a pool too small for the database: compare the
     1-N closure (clustered path) against the M-N closure. *)
  let run_case ~cluster =
    let path = tmp (Printf.sprintf "ablate_%b.db" cluster) in
    cleanup path;
    let b =
      Dsk.open_db { (Dsk.default_config ~path) with Dsk.pool_pages = 128 }
    in
    let layout, _ =
      GenD.generate ~cluster b ~doc:1 ~leaf_level:level ~seed:cfg.seed
    in
    (* Settle the heap first: generation leaves major-GC work behind,
       and whichever operation is timed first would pay for it.  Then
       time the two closures alternately, three cold runs each, and keep
       the medians: one host hiccup cannot decide the comparison. *)
    Gc.full_major ();
    let runs =
      List.init 3 (fun _ ->
          let m10 = ProtoD.run_op ~config b layout "10" in
          let m14 = ProtoD.run_op ~config b layout "14" in
          (Protocol.cold_ms_per_node m10, Protocol.cold_ms_per_node m14))
    in
    let median f =
      List.nth (List.sort Float.compare (List.map f runs)) 1
    in
    let m10 = median fst and m14 = median snd in
    Dsk.clear_caches b;
    Dsk.reset_io b;
    Dsk.begin_txn b;
    let rng = Prng.create 17L in
    for _ = 1 to 20 do
      ignore (OpsD.closure_1n b ~start:(Layout.random_level layout rng 3))
    done;
    Dsk.commit b;
    let misses = (Dsk.io_counters b).Dsk.pool_misses in
    Dsk.close b;
    cleanup path;
    (m10, m14, misses)
  in
  let c10, c14, c_misses = run_case ~cluster:true in
  let u10, u14, u_misses = run_case ~cluster:false in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Clustering along the 1-N hierarchy (level %d, 128-page pool)"
           level)
      [ ("metric", Table.Left); ("clustered", Table.Right);
        ("unclustered", Table.Right) ]
  in
  Table.add_row t
    [ "closure1N cold ms/node (median of 3)"; Table.fms c10; Table.fms u10 ];
  Table.add_row t
    [ "closureMN cold ms/node (median of 3)"; Table.fms c14; Table.fms u14 ];
  Table.add_row t
    [ "pool misses, 20 cold closures"; string_of_int c_misses;
      string_of_int u_misses ];
  Table.print t;
  shape "T5 clustering reduces cold misses" (c_misses < u_misses)
    (Printf.sprintf "%d vs %d misses" c_misses u_misses);
  shape "T5 closure1N <= closureMN when clustered (cold)"
    (c10 <= c14 *. 1.5)
    (Printf.sprintf "%.4f vs %.4f ms/node, medians of 3: the paper's §5.2 \
                     clustering claim" c10 c14);
  (* Object (check-out) cache ablation: warm attribute traversals with
     and without a decoded-object cache (ECKL87 / R7). *)
  let cache_case object_cache =
    let path = tmp (Printf.sprintf "objc_%d.db" object_cache) in
    cleanup path;
    let b = Dsk.open_db { (Dsk.default_config ~path) with Dsk.object_cache } in
    let layout, _ = GenD.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
    let m11 = ProtoD.run_op ~config b layout "11" in
    let m01 = ProtoD.run_op ~config b layout "01" in
    Dsk.close b;
    cleanup path;
    (m01, m11)
  in
  let off01, off11 = cache_case 0 in
  let on01, on11 = cache_case 16384 in
  let t3 =
    Table.create
      ~title:
        (Printf.sprintf
           "Object (check-out) cache ablation (level %d): warm ms/node" level)
      [ ("operation", Table.Left); ("cache off", Table.Right);
        ("cache on", Table.Right); ("speedup", Table.Right) ]
  in
  List.iter
    (fun (label, off, on) ->
      let woff = Protocol.warm_ms_per_node off in
      let won = Protocol.warm_ms_per_node on in
      Table.add_row t3
        [ label; Table.fms woff; Table.fms won;
          (if won > 0.0 then Printf.sprintf "%.1fx" (woff /. won) else "-") ])
    [ ("01 nameLookup", off01, on01); ("11 closure1NAttSum", off11, on11) ];
  Table.print t3;
  shape "T5 object cache speeds warm attribute access"
    (Protocol.warm_ms_per_node on11 <= 1.2 *. Protocol.warm_ms_per_node off11)
    (Printf.sprintf "warm closure sum %.5f -> %.5f ms/node"
       (Protocol.warm_ms_per_node off11)
       (Protocol.warm_ms_per_node on11));
  (* Access-method ablation: uid point lookups through the B+tree vs the
     linear-hash index. *)
  let uid_case uid_hash_index =
    let path = tmp (Printf.sprintf "uidpath_%b.db" uid_hash_index) in
    cleanup path;
    let b = Dsk.open_db { (Dsk.default_config ~path) with Dsk.uid_hash_index } in
    let layout, _ = GenD.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
    let m = ProtoD.run_op ~config b layout "01" in
    Dsk.clear_caches b;
    Dsk.reset_io b;
    let rng = Prng.create 29L in
    for _ = 1 to 200 do
      ignore (Dsk.lookup_unique b ~doc:1 (Layout.random_uid layout rng))
    done;
    let c = Dsk.io_counters b in
    let accesses = c.Dsk.pool_hits + c.Dsk.pool_misses in
    Dsk.close b;
    cleanup path;
    (m, accesses)
  in
  let m_btree, acc_btree = uid_case false in
  let m_hash, acc_hash = uid_case true in
  let t4 =
    Table.create
      ~title:
        (Printf.sprintf
           "Access-method ablation (level %d): nameLookup via B+tree vs             linear hash" level)
      [ ("access path", Table.Left); ("cold ms/node", Table.Right);
        ("warm ms/node", Table.Right);
        ("pages/200 lookups", Table.Right) ]
  in
  Table.add_row t4
    [ "B+tree"; Table.fms (Protocol.cold_ms_per_node m_btree);
      Table.fms (Protocol.warm_ms_per_node m_btree); string_of_int acc_btree ];
  Table.add_row t4
    [ "linear hash"; Table.fms (Protocol.cold_ms_per_node m_hash);
      Table.fms (Protocol.warm_ms_per_node m_hash); string_of_int acc_hash ];
  Table.print t4;
  shape "T5 hash probe touches fewer pages than btree descent"
    (acc_hash < acc_btree)
    (Printf.sprintf "%d vs %d page accesses" acc_hash acc_btree);
  (* Buffer-pool sweep: cold seqScan cost versus pool size. *)
  let t2 =
    Table.create
      ~title:
        (Printf.sprintf "Buffer-pool sweep (level %d): cold seqScan" level)
      [ ("pool pages", Table.Right); ("pool misses", Table.Right);
        ("ms/node", Table.Right) ]
  in
  List.iter
    (fun pool_pages ->
      let path = tmp (Printf.sprintf "pool_%d.db" pool_pages) in
      cleanup path;
      let b = Dsk.open_db { (Dsk.default_config ~path) with Dsk.pool_pages } in
      let layout, _ = GenD.generate b ~doc:1 ~leaf_level:level ~seed:cfg.seed in
      Dsk.clear_caches b;
      Dsk.reset_io b;
      let (), span =
        Hyper_util.Vclock.time (fun () ->
            ignore (OpsD.seq_scan b ~doc:1 : int))
      in
      let misses = (Dsk.io_counters b).Dsk.pool_misses in
      Table.add_row t2
        [ string_of_int pool_pages; string_of_int misses;
          Table.fms
            (Hyper_util.Vclock.total_ms span
            /. float_of_int layout.Layout.node_count) ];
      Dsk.close b;
      cleanup path)
    [ 64; 256; 1024; 4096 ];
  Table.print t2;
  (* Traversal-prefetch ablation (group fetch vs page-at-a-time, the
     paper's Vbase/GemStone transfer-granularity axis): 20 cold closure1N
     traversals from random level-3 starts, prefetch on/off x
     clustered/unclustered x local/remote.  The unclustered-remote pair
     is the acceptance check: batching the children's pages into one
     group transfer must cut network round trips at least 3x without
     changing the traversal results. *)
  let prefetch_level = 5 in
  let closures_per_case = 20 in
  let prefetch_layout =
    Layout.make ~doc:1 ~oid_base:0 ~leaf_level:prefetch_level ()
  in
  (* The database file depends only on [cluster]; generate it once per
     clustering mode and re-open it under each (remote, prefetch)
     configuration. *)
  let prefetch_db ~cluster =
    let path = tmp (Printf.sprintf "prefetch_%b.db" cluster) in
    cleanup path;
    let b =
      Dsk.open_db { (Dsk.default_config ~path) with Dsk.pool_pages = 1024 }
    in
    ignore
      (GenD.generate ~cluster b ~doc:1 ~leaf_level:prefetch_level
         ~seed:cfg.seed);
    Dsk.close b;
    path
  in
  let run_prefetch ~remote ~prefetch path =
    let b =
      Dsk.open_db
        { (Dsk.default_config ~path) with
          Dsk.pool_pages = 1024;
          prefetch;
          remote = (if remote then Some Dsk.remote_1988 else None) }
    in
    Dsk.clear_caches b;
    Dsk.reset_io b;
    let rng = Prng.create 17L in
    let results = ref [] in
    Dsk.begin_txn b;
    let (), span =
      Hyper_util.Vclock.time (fun () ->
          for _ = 1 to closures_per_case do
            results :=
              OpsD.closure_1n b
                ~start:(Layout.random_level prefetch_layout rng 3)
              :: !results
          done)
    in
    Dsk.commit b;
    let io = Dsk.io_counters b in
    Dsk.close b;
    (List.rev !results, io, Hyper_util.Vclock.total_ms span)
  in
  let tp =
    Table.create
      ~title:
        (Printf.sprintf
           "Traversal prefetch (group fetch) ablation: %d cold closure1N \
            traversals at level %d"
           closures_per_case prefetch_level)
      [ ("case", Table.Left); ("prefetch", Table.Left);
        ("round trips", Table.Right); ("batched", Table.Right);
        ("pool miss", Table.Right); ("prefetched", Table.Right);
        ("server miss", Table.Right); ("ms", Table.Right) ]
  in
  let identical = ref true in
  List.iter
    (fun cluster ->
      let path = prefetch_db ~cluster in
      List.iter
        (fun remote ->
          let res_off, io_off, ms_off =
            run_prefetch ~remote ~prefetch:false path
          in
          let res_on, io_on, ms_on =
            run_prefetch ~remote ~prefetch:true path
          in
          if res_on <> res_off then identical := false;
          let case =
            Printf.sprintf "%s %s"
              (if cluster then "clustered" else "unclustered")
              (if remote then "remote" else "local")
          in
          List.iter
            (fun (label, io, ms) ->
              Table.add_row tp
                [ case; label;
                  string_of_int io.Dsk.round_trips;
                  string_of_int io.Dsk.batched_round_trips;
                  string_of_int io.Dsk.pool_misses;
                  string_of_int io.Dsk.pool_prefetches;
                  string_of_int io.Dsk.server_misses; Table.fms ms ])
            [ ("off", io_off, ms_off); ("on", io_on, ms_on) ];
          if remote && not cluster then begin
            shape "T5 prefetch cuts remote round trips >= 3x (unclustered)"
              (io_on.Dsk.round_trips > 0
              && io_off.Dsk.round_trips >= 3 * io_on.Dsk.round_trips)
              (Printf.sprintf "%d vs %d round trips (%.1fx)"
                 io_off.Dsk.round_trips io_on.Dsk.round_trips
                 (float_of_int io_off.Dsk.round_trips
                 /. float_of_int (max 1 io_on.Dsk.round_trips)));
            shape "T5 prefetch batches are group fetches"
              (io_on.Dsk.batched_round_trips > 0
              && io_on.Dsk.pool_prefetches > 0)
              (Printf.sprintf "%d batched trips, %d pages prefetched"
                 io_on.Dsk.batched_round_trips io_on.Dsk.pool_prefetches)
          end;
          if (not remote) && not cluster then
            shape "T5 prefetch does not regress local cold misses"
              (io_on.Dsk.pool_misses <= io_off.Dsk.pool_misses
              && io_on.Dsk.pool_misses + io_on.Dsk.pool_prefetches
                 <= io_off.Dsk.pool_misses + (io_off.Dsk.pool_misses / 10) + 8)
              (Printf.sprintf "misses %d -> %d (+%d prefetched)"
                 io_off.Dsk.pool_misses io_on.Dsk.pool_misses
                 io_on.Dsk.pool_prefetches))
        [ false; true ];
      cleanup path)
    [ true; false ];
  Table.print tp;
  shape "T5 prefetch leaves traversal results unchanged" !identical
    "closure1N node lists identical with prefetch on and off"

(* ====================== T6: extension operations ====================== *)

let t6 () =
  banner "T6" "extension operations (§6.8): R4 / R5 / R11";
  let level = List.hd cfg.levels in
  let b, layout, _ = mem_db level in
  let t =
    Table.create ~title:"Capability probes with timings"
      [ ("extension", Table.Left); ("result", Table.Left); ("ms", Table.Right) ]
  in
  (* E1: dynamic schema modification. *)
  let (), span =
    Hyper_util.Vclock.time (fun () ->
        Mem.begin_txn b;
        let n =
          ExtM.add_attribute_everywhere b ~layout ~name:"t6_layer"
            ~value:(fun oid -> oid mod 5)
        in
        Mem.commit b;
        assert (n = layout.Layout.node_count))
  in
  Table.add_row t
    [ "E1 add attribute to every node (R4)";
      Printf.sprintf "%d nodes specialised" layout.Layout.node_count;
      Table.fms (Hyper_util.Vclock.total_ms span) ];
  let (), span =
    Hyper_util.Vclock.time (fun () ->
        Mem.begin_txn b;
        ExtM.add_draw_node b ~layout ~oid:5_000_000 ~unique_id:5_000_000;
        Mem.commit b)
  in
  Table.add_row t
    [ "E1 add DrawNode instance (R4)"; "new node type member created";
      Table.fms (Hyper_util.Vclock.total_ms span) ];
  (* E2: versioned edits. *)
  let versions = ExtM.create_versions () in
  let rng = Prng.create 23L in
  let edits = 100 in
  let oids = Array.init edits (fun _ -> Layout.random_text layout rng) in
  let (), span =
    Hyper_util.Vclock.time (fun () ->
        Array.iter
          (fun oid ->
            Mem.begin_txn b;
            ignore (ExtM.edit_with_version versions b oid : int);
            Mem.commit b)
          oids)
  in
  Table.add_row t
    [ "E2 versioned textNodeEdit x100 (R5)";
      Printf.sprintf "%d snapshots kept" edits;
      Table.fms (Hyper_util.Vclock.total_ms span) ];
  let (), span =
    Hyper_util.Vclock.time (fun () ->
        Array.iter
          (fun oid -> ignore (ExtM.previous_version versions oid))
          oids)
  in
  Table.add_row t
    [ "E2 retrieve previous version x100 (R5)"; "all retrieved";
      Table.fms (Hyper_util.Vclock.total_ms span) ];
  (* restore the edited nodes (edits are self-inverse) *)
  Array.iter
    (fun oid ->
      Mem.begin_txn b;
      OpsM.text_node_edit b ~oid;
      Mem.commit b)
    oids;
  (* E4: structural modification (the §5.2 N.B. requirement; timed the
     way OO7 later standardised: insert new composites, then delete
     them). *)
  let inserts = 100 in
  let base_oid = 6_000_000 in
  let (), span =
    Hyper_util.Vclock.time (fun () ->
        Mem.begin_txn b;
        for i = 0 to inserts - 1 do
          let oid = base_oid + i in
          Mem.create_node b
            { Schema.oid; doc = layout.Layout.doc; unique_id = oid;
              ten = (i mod 10) + 1; hundred = (i mod 100) + 1;
              million = i + 1; payload = Schema.P_internal };
          Mem.add_child b ~parent:(Layout.random_internal layout rng) ~child:oid
        done;
        Mem.commit b)
  in
  Table.add_row t
    [ "E4 insert 100 nodes + attach (structural)";
      Printf.sprintf "%d nodes attached" inserts;
      Table.fms (Hyper_util.Vclock.total_ms span) ];
  let (), span =
    Hyper_util.Vclock.time (fun () ->
        Mem.begin_txn b;
        for i = 0 to inserts - 1 do
          Mem.delete_node b (base_oid + i)
        done;
        Mem.commit b)
  in
  Table.add_row t
    [ "E4 delete those 100 nodes (structural)";
      Printf.sprintf "%d nodes detached and reclaimed" inserts;
      Table.fms (Hyper_util.Vclock.total_ms span) ];
  (* E3: access control across two structures. *)
  let b3 = Mem.create () in
  let layout_a, _ = GenM.generate b3 ~doc:1 ~leaf_level:4 ~seed:cfg.seed in
  let layout_b, _ =
    GenM.generate b3 ~doc:2 ~oid_base:1_000_000 ~leaf_level:4
      ~seed:(Int64.add cfg.seed 1L)
  in
  let acl = Access.create () in
  Access.register acl ~doc:1 ~owner:"alice";
  Access.register acl ~doc:2 ~owner:"alice";
  let result = ref (false, false, false, false) in
  let (), span =
    Hyper_util.Vclock.time (fun () ->
        Mem.begin_txn b3;
        result :=
          ExtM.demo_two_documents b3 ~acl ~doc_a:layout_a ~doc_b:layout_b
            ~user:"bob";
        Mem.commit b3)
  in
  let read_a, write_a, write_b, link = !result in
  Table.add_row t
    [ "E3 public-read doc + public-write doc + cross link (R11)";
      Printf.sprintf "read A %b / write A %b / write B %b / link %b" read_a
        write_a write_b link;
      Table.fms (Hyper_util.Vclock.total_ms span) ];
  Table.print t;
  shape "T6 access-control semantics"
    (read_a && (not write_a) && write_b && link)
    "paper's R11 example behaves as specified"

(* ====================== T7: multi-user ====================== *)

let t7 () =
  banner "T7" "multi-user experiments (§7): OCC vs 2PL under contention";
  let t =
    Table.create
      ~title:
        "Concurrent closure1NAttSet transactions (level 4; 100 txns/user; \
         one retry per abort)"
      [ ("cc", Table.Left); ("users", Table.Right); ("hot", Table.Right);
        ("attempted", Table.Right); ("committed", Table.Right);
        ("aborted", Table.Right); ("txn/s", Table.Right) ]
  in
  let occ_hot_aborts = ref 0 and occ_cold_aborts = ref 0 in
  List.iter
    (fun (mode, users, hot) ->
      let b = Mem.create () in
      let layout, _ = GenM.generate b ~doc:1 ~leaf_level:4 ~seed:cfg.seed in
      let r =
        MultiM.run b layout ~mode ~users ~txns_per_user:100 ~hot_fraction:hot
          ~seed:cfg.seed
      in
      if mode = Multiuser.Optimistic && hot > 0.4 then
        occ_hot_aborts := !occ_hot_aborts + r.Multiuser.aborted;
      if mode = Multiuser.Optimistic && hot = 0.0 then
        occ_cold_aborts := !occ_cold_aborts + r.Multiuser.aborted;
      Table.add_row t
        [ Multiuser.mode_to_string mode; string_of_int users;
          Printf.sprintf "%.1f" hot; string_of_int r.Multiuser.txns_attempted;
          string_of_int r.Multiuser.committed;
          string_of_int r.Multiuser.aborted;
          Printf.sprintf "%.0f" r.Multiuser.throughput_tps ])
    [ (Multiuser.Optimistic, 1, 0.0); (Multiuser.Optimistic, 2, 0.0);
      (Multiuser.Optimistic, 2, 0.5); (Multiuser.Optimistic, 4, 0.5);
      (Multiuser.Optimistic, 8, 0.5); (Multiuser.Two_phase_locking, 1, 0.0);
      (Multiuser.Two_phase_locking, 2, 0.0);
      (Multiuser.Two_phase_locking, 2, 0.5);
      (Multiuser.Two_phase_locking, 4, 0.5);
      (Multiuser.Two_phase_locking, 8, 0.5) ];
  Table.print t;
  shape "T7 OCC aborts only under contention"
    (!occ_cold_aborts = 0 && !occ_hot_aborts > 0)
    (Printf.sprintf "disjoint: %d aborts; hot: %d aborts" !occ_cold_aborts
       !occ_hot_aborts)

(* ====================== main ====================== *)

let () =
  parse_args ();
  Printf.printf
    "The HyperModel Benchmark — reproduction harness\n\
     levels: %s   reps: %d   seed: %Ld\n"
    (String.concat "," (List.map string_of_int cfg.levels))
    cfg.reps cfg.seed;
  let experiments =
    [ ("F1", f1); ("F2", f2); ("F3", f3); ("F4", f4); ("T1", t1); ("T2", t2);
      ("T3", t3); ("T4", t4); ("T5", t5); ("T6", t6); ("T7", t7) ]
  in
  List.iter
    (fun (id, f) ->
      if skipped id then Printf.printf "\n[%s skipped]\n" id else f ())
    experiments;
  (* Summary. *)
  banner "SUMMARY" "expected-shape checks";
  let results = List.rev !shape_results in
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "[%s] %s — %s\n" (if ok then "pass" else "FAIL") name detail)
    results;
  let failed = List.filter (fun (_, ok, _) -> not ok) results in
  Printf.printf "\n%d/%d shape checks passed\n"
    (List.length results - List.length failed)
    (List.length results);
  (* Clean up cached disk databases. *)
  Hashtbl.iter (fun _ (b, _, _) -> try Dsk.close b with _ -> ()) disk_cache;
  Hashtbl.iter (fun _ (b, _, _) -> try Rel.close b with _ -> ()) rel_cache;
  List.iter
    (fun level ->
      cleanup (tmp (Printf.sprintf "disk_l%d.db" level));
      cleanup (tmp (Printf.sprintf "rel_l%d.db" level)))
    cfg.levels;
  if failed <> [] then exit 1
