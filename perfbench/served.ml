(* served_mix: an in-process Server on a Unix socket in front of a
   level-5 diskdb (3,906 nodes; the file fits in the buffer pool),
   default configuration (WAL flushed, never fsynced), driven by two
   Client connections in a closed loop with no think time. *)

open Hyper_core
open Common
module D = Hyper_diskdb.Diskdb
module Net = Hyper_net
module Prng = Hyper_util.Prng
module Obs = Hyper_obs.Obs

let level = 5
let path = "s5.db"
let sock = "s.sock"
let addr = Net.Netaddr.Unix_sock sock
let clients = 2
let fanout = 5

type env = {
  db : D.t;
  layout : Layout.t;
  server : Net.Server.t;
  conns : Net.Client.t array;
}

let open_store ~path ~seed =
  let db, layout, _ = generate_store (D.default_config ~path) ~level ~seed in
  (db, layout)

let setup ~seed () =
  let db, layout = open_store ~path ~seed in
  let server = Net.Server.start ~layout (Backend.Instance ((module D), db)) addr in
  let conns =
    Array.init clients (fun i ->
        Net.Client.connect ~client_name:(Printf.sprintf "perfbench-%d" i) addr)
  in
  { db; layout; server; conns }

let teardown e =
  Array.iter Net.Client.close e.conns;
  Net.Server.drain e.server;
  D.close e.db;
  remove_store path;
  if Sys.file_exists sock then Sys.remove sock

(* The request mix: 80 % single reads (a third each of Lookup_unique,
   Attrs and Children), 20 % write transactions.  Client [c] writes
   only nodes whose oid has the parity [c], so the last value each
   client sent for a node is the value the node must end with. *)
let next_request rng layout c =
  let base = layout.Layout.oid_base and n = layout.Layout.node_count in
  if Prng.int rng 5 = 0 then
    let oid = base + 1 + c + (2 * Prng.int rng ((n - c + 1) / 2)) in
    [ Trace.Begin; Trace.Set_hundred { oid; value = Prng.int rng 100 }; Trace.Commit ]
  else
    match Prng.int rng 3 with
    | 0 -> [ Trace.Lookup_unique { doc = layout.Layout.doc; uid = Layout.random_uid layout rng } ]
    | 1 -> [ Trace.Attrs (Layout.random_node layout rng) ]
    | _ -> [ Trace.Children (Layout.random_internal layout rng) ]

let is_write = function Trace.Begin :: _ -> true | _ -> false

type log = {
  reads : Stats.t;  (* ms *)
  writes : Stats.t;
  found : Oid.t array;  (* node returned per uid looked up, Oid.none if none *)
  last : int array;  (* value last sent per node, -1 if none *)
  mutable trail : (Trace.op list * Trace.outcome list) list;  (* newest first *)
  mutable finished : bool;
}

let new_log layout =
  { reads = Stats.create (); writes = Stats.create ();
    found = Array.make (layout.Layout.node_count + 1) Oid.none;
    last = Array.make (layout.Layout.node_count + 1) (-1); trail = [];
    finished = false }

let requests log = Stats.count log.reads + Stats.count log.writes

(* Children of the node with breadth-first index i (1-based) are the
   [fanout] consecutive indices from fanout * (i - 1) + 2. *)
let expected_children layout oid =
  let base = layout.Layout.oid_base in
  let first = base + (fanout * (oid - base - 1)) + 2 in
  List.init fanout (fun k -> first + k)

let check_reply layout log ops outcomes =
  let base = layout.Layout.oid_base in
  let bad () =
    fail "reply [%s] to [%s]"
      (String.concat "; " (List.map Trace.outcome_to_string outcomes))
      (String.concat "; " (List.map Trace.op_to_string ops))
  in
  match (ops, outcomes) with
  | [ Trace.Lookup_unique { uid; _ } ], [ Trace.Done (Trace.V_int_opt (Some oid)) ] ->
    if Oid.equal log.found.(uid) Oid.none then log.found.(uid) <- oid
    else if not (Oid.equal log.found.(uid) oid) then bad ()
  | [ Trace.Attrs _ ], [ Trace.Done (Trace.V_ints [ _; _; _; _; _ ]) ] -> ()
  | [ Trace.Children oid ], [ Trace.Done (Trace.V_oids kids) ] ->
    if not (List.equal Oid.equal kids (expected_children layout oid)) then bad ()
  | ( [ Trace.Begin; Trace.Set_hundred { oid; value }; Trace.Commit ],
      [ Trace.Done Trace.V_unit; Trace.Done Trace.V_unit; Trace.Done Trace.V_unit ] ) ->
    log.last.(oid - base) <- value
  | _ -> bad ()

(* One closed-loop client: the next request goes out when the reply to
   the previous one is in.  An exception ends the thread without
   setting [finished]; the caller turns that into a failed check. *)
let client layout conn c rng ~deadline ~keep log () =
  while now_s () < deadline do
    let ops = next_request rng layout c in
    let t0 = Hyper_util.Mtime_stub.now_ns () in
    let outcomes = Net.Client.call conn ops in
    let ms = Int64.to_float (Int64.sub (Hyper_util.Mtime_stub.now_ns ()) t0) /. 1e6 in
    Stats.add (if is_write ops then log.writes else log.reads) ms;
    if keep then log.trail <- (ops, outcomes) :: log.trail;
    check_reply layout log ops outcomes
  done;
  log.finished <- true

(* Drive the server for [seconds]; return the clients' logs. *)
let drive e ~seed ~seconds ~keep =
  let rngs = Array.map Prng.create (seeds seed clients) in
  let logs = Array.init clients (fun _ -> new_log e.layout) in
  let deadline = now_s () +. seconds in
  let threads =
    List.init clients (fun c ->
        Thread.create (client e.layout e.conns.(c) c rngs.(c) ~deadline ~keep logs.(c)) ())
  in
  List.iter Thread.join threads;
  Array.iteri (fun c l -> if not l.finished then fail "client %d stopped early" c) logs;
  logs

(* Read back over the wire: every looked-up node carries the uid that
   was asked for, every written node the value last sent for it. *)
let verify e logs =
  let base = e.layout.Layout.oid_base in
  let read oids =
    let outcomes = Net.Client.call e.conns.(0) (List.map (fun oid -> Trace.Attrs oid) oids) in
    List.map2
      (fun oid o ->
        match o with
        | Trace.Done (Trace.V_ints [ _; uid; _; hundred; _ ]) -> (uid, hundred)
        | _ -> fail "attrs %d: %s" oid (Trace.outcome_to_string o))
      oids outcomes
  in
  let entries a keep = List.filter (fun (_, x) -> keep x) (List.mapi (fun i x -> (i, x)) (Array.to_list a)) in
  Array.iter
    (fun l ->
      let looked_up = entries l.found (fun oid -> not (Oid.equal oid Oid.none)) in
      List.iter2
        (fun (asked, oid) (uid, _) ->
          if uid <> asked then fail "lookup of uid %d returned node %d with uid %d" asked oid uid)
        looked_up (read (List.map snd looked_up));
      let written = entries l.last (fun v -> v >= 0) in
      List.iter2
        (fun (i, sent) (_, hundred) ->
          if hundred <> sent then fail "node %d holds %d, last sent %d" (base + i) hundred sent)
        written (read (List.map (fun (i, _) -> base + i) written)))
    logs

let merged f logs =
  let s = Stats.create () in
  Array.iter (fun l -> Array.iter (Stats.add s) (Stats.samples (f l))) logs;
  s

let run ~seed ~seconds =
  let sd = seeds seed 2 in
  let e, setup_s, rss_mb = repeat_setup 5 ~setup:(setup ~seed:sd.(0)) ~teardown in
  let db_bytes = store_bytes path in
  Fun.protect
    ~finally:(fun () -> teardown e)
    (fun () ->
      let w0 = alloc_words () and cpu0 = cpu_s () in
      let logs = drive e ~seed:(Int64.to_int sd.(1)) ~seconds ~keep:false in
      let words = alloc_words () -. w0 and cpu = cpu_s () -. cpu0 in
      verify e logs;
      let n = Array.fold_left (fun acc l -> acc + requests l) 0 logs in
      { attempted = n;
        failed = 0;
        metrics =
          end_to_end ~setup_s ~rss_mb ~db_bytes ~items:n ~cpu_s:cpu ~words
            ~primary_ms:(Stats.median (merged (fun l -> l.reads) logs))
            ~secondary_ms:(Stats.median (merged (fun l -> l.writes) logs)) })

(* --- traced run --- *)

let time_us f =
  let t0 = Hyper_util.Mtime_stub.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Hyper_util.Mtime_stub.now_ns ()) t0) /. 1e3

(* The same request stream applied through Trace.apply to an identical
   store with no server: the engine's share of a request. *)
let replay ~seed trail =
  let replay_path = "r5.db" in
  let db, layout = open_store ~path:replay_path ~seed in
  let inst = Backend.Instance ((module D), db) in
  let reads = Stats.create () and writes = Stats.create () in
  List.iter
    (fun (ops, _) ->
      let us = time_us (fun () -> List.iter (fun op -> ignore (Trace.apply ~layout inst op : Trace.outcome)) ops) in
      Stats.add (if is_write ops then writes else reads) us)
    trail;
  D.close db;
  remove_store replay_path;
  (Stats.median reads, Stats.median writes)

(* The workload's own frames through the codec: encode each request and
   its reply, then decode both streams. *)
let wire trail =
  let trail = Array.of_list trail in
  let n = Array.length trail in
  let reqs = Array.make n Bytes.empty and reps = Array.make n Bytes.empty in
  let enc =
    time_us (fun () ->
        Array.iteri
          (fun rid (ops, outcomes) ->
            reqs.(rid) <- Net.Wire.encode_request (Net.Wire.Ops { rid; ops });
            reps.(rid) <- Net.Wire.encode_response (Net.Wire.Results { rid; outcomes }))
          trail)
  in
  let decode create frames =
    let d = create () in
    Array.iter
      (fun b ->
        Net.Wire.Decoder.feed d b ~off:0 ~len:(Bytes.length b);
        match Net.Wire.Decoder.next d with
        | Some (Ok _) -> ()
        | Some (Error err) -> fail "wire decode: %s" (Net.Wire.error_to_string err)
        | None -> fail "wire decode: incomplete frame")
      frames
  in
  let dec =
    time_us (fun () ->
        decode (Net.Wire.Decoder.create_request ?max_frame:None) reqs;
        decode (Net.Wire.Decoder.create_response ?max_frame:None) reps)
  in
  let bytes a = float_of_int (Array.fold_left (fun acc b -> acc + Bytes.length b) 0 a) in
  let per x = x /. float_of_int n in
  (per enc, per dec, per (bytes reqs), per (bytes reps))

let traced ~seed ~seconds =
  let sd = seeds seed 2 in
  Obs.enable ();
  Obs.reset ();
  let e = setup ~seed:sd.(0) () in
  let wal = Obs.Counter.make "hyper_wal_append_bytes_total" in
  let logs, misses, wal_bytes =
    Fun.protect
      ~finally:(fun () -> teardown e)
      (fun () ->
        let c0 = D.io_counters e.db and wal0 = Obs.Counter.value wal in
        let logs = drive e ~seed:(Int64.to_int sd.(1)) ~seconds ~keep:true in
        let c1 = D.io_counters e.db in
        let wal_bytes = Obs.Counter.value wal - wal0 in
        verify e logs;
        (logs, c1.D.pool_misses - c0.D.pool_misses, wal_bytes))
  in
  Obs.disable ();
  let trail = List.concat_map (fun l -> List.rev l.trail) (Array.to_list logs) in
  let apply_read, apply_write = replay ~seed:sd.(0) trail in
  let enc, dec, req_bytes, rep_bytes = wire trail in
  let read_p50 = Stats.median (merged (fun l -> l.reads) logs) in
  let writes = Stats.count (merged (fun l -> l.writes) logs) in
  { attempted = List.length trail;
    failed = 0;
    metrics =
      [ metric "core.trace.apply_read_us" "us" apply_read;
        metric "core.trace.apply_write_us" "us" apply_write;
        metric "net.wire.encode_us" "us" enc;
        metric "net.wire.decode_us" "us" dec;
        metric "net.wire.bytes_per_request" "bytes" req_bytes;
        metric "net.wire.bytes_per_reply" "bytes" rep_bytes;
        metric "net.overhead_read_us" "us" ((read_p50 *. 1e3) -. apply_read);
        metric "storage.buffer_pool.misses" "count" (float_of_int misses);
        metric "storage.wal.bytes_per_write" "bytes"
          (ratio (float_of_int wal_bytes) (float_of_int writes));
        metric "obs.served_mix.read_p50_ms" "ms" read_p50 ] }
