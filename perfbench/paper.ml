(* paper_l6: the paper's cold/warm protocol (§6) over all 20 operations
   on a level-6 diskdb (19,531 nodes, a data file larger than the
   default 2048-page buffer pool), single-threaded, default
   configuration (WAL flushed, never fsynced). *)

open Hyper_core
open Common
module D = Hyper_diskdb.Diskdb
module O = Ops.Make (D)
module Obs = Hyper_obs.Obs

let level = 6
let path = "l6.db"
let reps = Protocol.default_config.Protocol.reps

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* Node counts from the method's arithmetic, not from the program: a
   full fanout-5 tree of [levels] levels below a node, the node
   included. *)
let tree_size levels = List.fold_left ( + ) 0 (List.init (levels + 1) (pow 5))
let expected_nodes = tree_size level
let closure3 = tree_size (level - 3)

let setup ~seed () = generate_store (D.default_config ~path) ~level ~seed

let teardown (db, _, _) =
  D.close db;
  remove_store path

let oids layout =
  let acc = ref [] in
  Layout.iter_oids layout (fun oid -> acc := oid :: !acc);
  List.rev !acc

(* Sum of [hundred], every text and every form bitmap, read node by
   node: ops 12, 16 and 17 are self-inverse and the protocol applies
   each input twice (cold, then warm), so a whole pass leaves this
   unchanged. *)
let edited_state db layout =
  let sum = ref 0 and text = Buffer.create 4096 and forms = Buffer.create 4096 in
  List.iter
    (fun oid ->
      sum := !sum + D.hundred db oid;
      match D.kind db oid with
      | Schema.Text -> Buffer.add_string text (D.text db oid)
      | Schema.Form -> Buffer.add_bytes forms (Hyper_util.Bitmap.to_bytes (D.form db oid))
      | Schema.Internal | Schema.Draw -> ())
    (oids layout);
  (!sum, Digest.string (Buffer.contents text), Digest.string (Buffer.contents forms))

let check_structure db layout ~seed =
  let doc = layout.Layout.doc in
  let base = layout.Layout.oid_base in
  if layout.Layout.node_count <> expected_nodes then
    fail "layout has %d nodes, expected %d" layout.Layout.node_count expected_nodes;
  D.begin_txn db;
  let scanned = O.seq_scan db ~doc in
  if scanned <> expected_nodes then
    fail "seqScan visited %d nodes, expected %d" scanned expected_nodes;
  let hundred = Array.make (expected_nodes + 1) 0
  and million = Array.make (expected_nodes + 1) 0 in
  List.iter
    (fun oid ->
      hundred.(oid - base) <- D.hundred db oid;
      million.(oid - base) <- D.million db oid)
    (oids layout);
  (* Every 1-N closure from level 3: [closure3] distinct nodes, each
     after its parent, and its attribute sum equals the sum read node
     by node. *)
  let pos = Array.make (expected_nodes + 1) (-1) in
  let first3 = Layout.level_first_oid layout 3 in
  for start = first3 to first3 + pow 5 3 - 1 do
    let nodes = O.closure_1n db ~start in
    if List.length nodes <> closure3 then
      fail "closure1N from %d returned %d nodes, expected %d" start
        (List.length nodes) closure3;
    List.iteri
      (fun i oid ->
        if pos.(oid - base) >= 0 then fail "closure1N from %d repeats %d" start oid;
        pos.(oid - base) <- i)
      nodes;
    List.iter
      (fun oid ->
        if not (Oid.equal oid start) then
          match D.parent db oid with
          | Some p when pos.(p - base) >= 0 && pos.(p - base) < pos.(oid - base) -> ()
          | _ -> fail "closure1N from %d lists %d before its parent" start oid)
      nodes;
    let sum = List.fold_left (fun acc oid -> acc + hundred.(oid - base)) 0 nodes in
    let got = O.closure_1n_att_sum db ~start in
    if got <> sum then fail "closure1NAttSum from %d = %d, node by node %d" start got sum;
    List.iter (fun oid -> pos.(oid - base) <- -1) nodes
  done;
  (* Range lookups return exactly the nodes whose attribute, read node
     by node, lies in the range. *)
  let rng = Hyper_util.Prng.create seed in
  let check_range name attr width found x =
    let expect = ref 0 in
    Array.iteri (fun i v -> if i > 0 && v >= x && v < x + width then incr expect) attr;
    List.iter
      (fun oid ->
        let v = attr.(oid - base) in
        if v < x || v >= x + width then fail "%s %d returned node %d with value %d" name x oid v)
      found;
    if List.length found <> !expect then
      fail "%s %d returned %d nodes, %d match" name x (List.length found) !expect
  in
  for _ = 1 to 8 do
    let x = Hyper_util.Prng.int_in rng 1 91 in
    check_range "rangeLookupHundred" hundred 10 (O.range_lookup_hundred db ~doc ~x) x;
    let x = Hyper_util.Prng.int_in rng 1 990_001 in
    check_range "rangeLookupMillion" million 10_000 (O.range_lookup_million db ~doc ~x) x
  done;
  D.commit db

(* Per-pass checks that follow from the method: a scan visits every
   node, every 1-N closure and attribute set from level 3 covers the
   whole subtree. *)
let check_measurement id (m : Protocol.measurement) =
  let expect =
    match id with
    | "09" -> Some expected_nodes
    | "10" | "12" -> Some (reps * closure3)
    | _ -> None
  in
  match expect with
  | Some n when m.Protocol.nodes_cold <> n || m.Protocol.nodes_warm <> n ->
    fail "op %s returned %d cold / %d warm nodes, expected %d" id
      m.Protocol.nodes_cold m.Protocol.nodes_warm n
  | _ -> ()

(* Per-operation samples over the passes of a run. *)
type samples = {
  cold : Stats.t array;
  warm : Stats.t array;
  words : float array;
  nodes : int array;
  mutable cold_nodes : int;
  mutable batch_ms : float;
  mutable passes : int;
}

let samples () =
  let n = List.length Protocol.op_ids in
  { cold = Array.init n (fun _ -> Stats.create ());
    warm = Array.init n (fun _ -> Stats.create ());
    words = Array.make n 0.0; nodes = Array.make n 0; cold_nodes = 0;
    batch_ms = 0.0;
    passes = 0 }

(* One whole pass: every operation, cold then warm, on inputs drawn
   from [input_seed]. *)
let pass (type a) (module B : Backend.S with type t = a) (db : a) layout s
    ~input_seed =
  let module P = Protocol.Make (B) in
  let config = { Protocol.default_config with Protocol.seed = input_seed } in
  List.iteri
    (fun i id ->
      let w0 = alloc_words () in
      let m = P.run_op ~config db layout id in
      s.words.(i) <- s.words.(i) +. (alloc_words () -. w0);
      check_measurement id m;
      Stats.add s.cold.(i) (Protocol.cold_ms_per_node m);
      Stats.add s.warm.(i) (Protocol.warm_ms_per_node m);
      s.nodes.(i) <- s.nodes.(i) + m.Protocol.nodes_cold + m.Protocol.nodes_warm;
      s.cold_nodes <- s.cold_nodes + m.Protocol.nodes_cold;
      s.batch_ms <- s.batch_ms +. m.Protocol.cold_ms +. m.Protocol.warm_ms)
    Protocol.op_ids;
  s.passes <- s.passes + 1

let geomean_median a = geomean (Array.to_list (Array.map Stats.median a))
let total_nodes s = Array.fold_left ( + ) 0 s.nodes
let total_words s = Array.fold_left ( +. ) 0.0 s.words

let run ~seed ~seconds =
  let sd = seeds seed 3 in
  let ((db, layout, _) as st), setup_s, rss_mb =
    repeat_setup 5 ~setup:(setup ~seed:sd.(0)) ~teardown
  in
  let db_bytes = store_bytes path in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      check_structure db layout ~seed:sd.(1);
      let before = edited_state db layout in
      let s = samples () in
      let t0 = now_s () and cpu0 = cpu_s () in
      while s.passes = 0 || now_s () -. t0 < seconds do
        pass (module D) db layout s
          ~input_seed:(Int64.add sd.(2) (Int64.of_int s.passes))
      done;
      let cpu = cpu_s () -. cpu0 in
      if edited_state db layout <> before then
        fail "ops 12/16/17 did not restore hundred sums, texts and bitmaps";
      let nodes = total_nodes s in
      { attempted = 2 * List.length Protocol.op_ids * s.passes;
        failed = 0;
        metrics =
          end_to_end ~setup_s ~rss_mb ~db_bytes ~items:nodes ~cpu_s:cpu
            ~words:(total_words s)
            ~primary_ms:(geomean_median s.cold)
            ~secondary_ms:(geomean_median s.warm) })

(* --- traced run --- *)

type io = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable reads : int;
  mutable writes : int;
}

let io () = { hits = 0; misses = 0; evictions = 0; reads = 0; writes = 0 }

(* The diskdb seen through the protocol's batch boundaries: the
   protocol drops caches, then runs a cold and a warm batch, each
   inside its own transaction, so the I/O counters read at [begin_txn]
   and [commit] split the work by temperature. *)
module Probe = struct
  include D

  let cold = io ()
  let warm = io ()
  let next_cold = ref true
  let at_begin = ref None

  let clear_caches b =
    D.clear_caches b;
    next_cold := true

  let begin_txn b =
    at_begin := Some (D.io_counters b);
    D.begin_txn b

  let commit b =
    D.commit b;
    match !at_begin with
    | None -> ()
    | Some c0 ->
      at_begin := None;
      let c1 = D.io_counters b and a = if !next_cold then cold else warm in
      a.hits <- a.hits + c1.D.pool_hits - c0.D.pool_hits;
      a.misses <- a.misses + c1.D.pool_misses - c0.D.pool_misses;
      a.evictions <- a.evictions + c1.D.pool_evictions - c0.D.pool_evictions;
      a.reads <- a.reads + c1.D.pager_reads - c0.D.pager_reads;
      a.writes <- a.writes + c1.D.pager_writes - c0.D.pager_writes;
      next_cold := false
end

(* Self time of the pool-miss spans under the cold batch roots. *)
let miss_self_ms roots =
  let rec walk acc n =
    let kids = Obs.Span.children n in
    let acc = List.fold_left walk acc kids in
    if Obs.Span.name n = "pool.miss" then
      acc +. Obs.Span.duration_ms n
      -. List.fold_left (fun a k -> a +. Obs.Span.duration_ms k) 0.0 kids
    else acc
  in
  List.fold_left
    (fun acc r ->
      if Filename.check_suffix (Obs.Span.name r) ".cold" then walk acc r else acc)
    0.0 roots

let generator_names = [ "internal"; "leaf"; "rel_1n"; "rel_mn"; "refs_mnatt" ]

(* Untraced and traced passes alternate, so the per-operation figures
   come from passes without tracing and the difference between the two
   kinds of pass is the tracing overhead. *)
let traced ~seed ~seconds =
  let sd = seeds seed 3 in
  Obs.enable ();
  Obs.reset ();
  let ((db, layout, timings) as st) = setup ~seed:sd.(0) () in
  let wal_setup = Obs.Counter.value (Obs.Counter.make "hyper_wal_append_bytes_total") in
  Fun.protect
    ~finally:(fun () -> teardown st)
    (fun () ->
      check_structure db layout ~seed:sd.(1);
      let plain = samples () and spanned = samples () in
      let miss_ms = ref 0.0 in
      let t0 = now_s () in
      let k = ref 0 in
      while !k < 2 || now_s () -. t0 < seconds do
        let input_seed = Int64.add sd.(2) (Int64.of_int (!k / 2)) in
        if !k mod 2 = 0 then begin
          Obs.disable ();
          pass (module D) db layout plain ~input_seed
        end
        else begin
          Obs.enable ();
          Obs.Span.set_tracing true;
          pass (module Probe) db layout spanned ~input_seed;
          miss_ms := !miss_ms +. miss_self_ms (Obs.Span.take_roots ());
          Obs.Span.set_tracing false
        end;
        incr k
      done;
      Obs.disable ();
      let per_pass x = float_of_int x /. float_of_int spanned.passes in
      let c = Probe.cold and w = Probe.warm in
      let ops =
        List.concat
          (List.mapi
             (fun i id ->
               let p = "core.protocol." ^ id in
               [ metric (p ^ ".cold_ms_per_node") "ms" (Stats.median plain.cold.(i));
                 metric (p ^ ".warm_ms_per_node") "ms" (Stats.median plain.warm.(i));
                 metric (p ^ ".alloc_words_per_node") "words"
                   (ratio plain.words.(i) (float_of_int plain.nodes.(i))) ])
             Protocol.op_ids)
      in
      let generator =
        List.map2
          (fun name ph ->
            metric ("core.generator." ^ name ^ ".ms_per_item") "ms"
              (Generator.ms_per_item ph))
          generator_names timings.Generator.phases
      in
      { attempted = 2 * List.length Protocol.op_ids * (plain.passes + spanned.passes);
        failed = 0;
        metrics =
          ops @ generator
          @ [ metric "storage.buffer_pool.misses_per_node_cold" "misses/node"
                (ratio (float_of_int c.misses) (float_of_int spanned.cold_nodes));
              metric "storage.buffer_pool.evictions" "count/pass"
                (per_pass (c.evictions + w.evictions));
              metric "storage.buffer_pool.hits_warm" "count/pass" (per_pass w.hits);
              metric "storage.buffer_pool.misses_warm" "count/pass" (per_pass w.misses);
              metric "storage.buffer_pool.hit_ratio_warm" "ratio"
                (ratio (float_of_int w.hits) (float_of_int (w.hits + w.misses)));
              metric "storage.buffer_pool.miss_self_ms_cold" "ms/pass"
                (!miss_ms /. float_of_int spanned.passes);
              metric "storage.pager.reads" "count/pass" (per_pass (c.reads + w.reads));
              metric "storage.pager.writes" "count/pass" (per_pass (c.writes + w.writes));
              metric "storage.wal.bytes_setup" "bytes" (float_of_int wal_setup);
              metric "obs.paper_l6.tracing_overhead_pct" "%"
                (100.0
                *. (ratio (spanned.batch_ms /. float_of_int spanned.passes)
                      (plain.batch_ms /. float_of_int plain.passes)
                   -. 1.0)) ] })
