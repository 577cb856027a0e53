open Hyper_storage
module Btree = Hyper_index.Btree
module Hash_index = Hyper_index.Hash_index
module Schema = Hyper_core.Schema
module Oid = Hyper_core.Oid
module Bitmap = Hyper_util.Bitmap

type remote = Hyper_net.Channel.profile = {
  network : Hyper_net.Latency_model.t;
  server_disk : Hyper_net.Latency_model.t;
  server_cache_pages : int;
}

type config = {
  path : string;
  pool_pages : int;
  durable_sync : bool;
  group_commit : Group_commit.config option;
      (* batch concurrent committers' fsyncs; only meaningful together
         with durable_sync (see Engine.open_) *)
  checkpoint_wal_bytes : int;
  remote : remote option;
  object_cache : int;
      (* decoded-object cache capacity; 0 disables (ECKL87 check-out
         caching — see mli) *)
  uid_hash_index : bool;
      (* maintain a linear-hash access path on (doc, uniqueId) in
         addition to the B+tree; nameLookup then probes the hash *)
  prefetch : bool;
      (* traversal prefetch: closure operations batch-fetch the heap
         pages of the nodes they are about to visit (one group transfer
         on a remote channel instead of one round trip per page) *)
  vfs : Vfs.t option;
      (* storage VFS; None = real files.  Some (Vfs.Faulty.vfs env)
         runs the whole store over the fault-injecting VFS *)
}

let default_config ~path =
  { path; pool_pages = 2048; durable_sync = false; group_commit = None;
    checkpoint_wal_bytes = 64 * 1024 * 1024; remote = None;
    object_cache = 0; uid_hash_index = false; prefetch = false; vfs = None }

let remote_1988 = Hyper_net.Channel.profile_1988

type t = {
  engine : Engine.t;
  pool : Buffer_pool.t;
  channel : Hyper_net.Channel.t option;
  prefetch_enabled : bool;
  object_cache_capacity : int;
  object_cache : (int, Codec.node) Hyper_util.Lru.t; (* capacity >= 1 always *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable freelist : Freelist.t;
  mutable heap : Heap.t;
  mutable results_heap : Heap.t;
  mutable objtab : Object_table.t;
  mutable idx_uid : Btree.t;
  mutable idx_uid_hash : Hash_index.t option;
  mutable idx_hundred : Btree.t;
  mutable idx_million : Btree.t;
  doc_counts : (int, int) Hashtbl.t;
  mutable result_seq : int;
  (* rid of every stored result list, in store order — rebuilt lazily
     ([result_len = -1]) by one cheap rid scan; appended to on store *)
  mutable result_rids : Heap.rid array;
  mutable result_len : int;
}

let name = "diskdb"

let description = "page-server OODB: buffer pool, object table, WAL, B+trees"

(* --- index key packing: doc-scoped attribute values ---
   key = doc * 2^44 + (value + 2^21); monotonic in value for a fixed doc,
   tolerant of the small negative hundred values op 12 can produce. *)

let key_shift = 1 lsl 44
let value_bias = 1 lsl 21
let pack_key ~doc v = (doc * key_shift) + v + value_bias

(* --- meta root bookkeeping --- *)

let doc_key doc = Printf.sprintf "doc_%d" doc

let save_roots t =
  let kvs =
    [ ("freelist", Int64.of_int (Freelist.head t.freelist));
      ("heap", Int64.of_int (Heap.first_page t.heap));
      ("results", Int64.of_int (Heap.first_page t.results_heap));
      ("objtab", Int64.of_int (Object_table.head t.objtab));
      ("idx_uid", Int64.of_int (Btree.root t.idx_uid));
      ( "idx_uid_hash",
        Int64.of_int
          (match t.idx_uid_hash with
          | Some h -> Hash_index.header h
          | None -> 0) );
      ("idx_hundred", Int64.of_int (Btree.root t.idx_hundred));
      ("idx_million", Int64.of_int (Btree.root t.idx_million));
      ("result_seq", Int64.of_int t.result_seq) ]
    @ List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold
           (fun doc count acc -> (doc_key doc, Int64.of_int count) :: acc)
           t.doc_counts [])
  in
  Meta.store t.pool kvs

type attached = {
  a_freelist : Freelist.t;
  a_heap : Heap.t;
  a_results : Heap.t;
  a_objtab : Object_table.t;
  a_uid : Btree.t;
  a_uid_hash : Hash_index.t option;
  a_hundred : Btree.t;
  a_million : Btree.t;
  a_result_seq : int;
  a_docs : (int * int) list;
}

let attach_all pool =
  let kvs = Meta.load pool in
  let geti key = Int64.to_int (List.assoc key kvs) in
  let freelist = Freelist.attach pool ~head:(geti "freelist") in
  { a_freelist = freelist;
    a_heap = Heap.attach pool freelist ~head:(geti "heap");
    a_results = Heap.attach pool freelist ~head:(geti "results");
    a_objtab = Object_table.attach pool freelist ~head:(geti "objtab");
    a_uid = Btree.attach pool freelist ~root:(geti "idx_uid");
    a_uid_hash =
      (match List.assoc_opt "idx_uid_hash" kvs with
      | Some h when Int64.to_int h <> 0 ->
        Some (Hash_index.attach pool freelist ~header:(Int64.to_int h))
      | Some _ | None -> None);
    a_hundred = Btree.attach pool freelist ~root:(geti "idx_hundred");
    a_million = Btree.attach pool freelist ~root:(geti "idx_million");
    a_result_seq = geti "result_seq";
    a_docs =
      List.filter_map
        (fun (k, v) ->
          if String.length k > 4 && String.sub k 0 4 = "doc_" then
            Option.map
              (fun doc -> (doc, Int64.to_int v))
              (int_of_string_opt (String.sub k 4 (String.length k - 4)))
          else None)
        kvs }

let load_roots t =
  let a = attach_all t.pool in
  t.freelist <- a.a_freelist;
  t.heap <- a.a_heap;
  t.results_heap <- a.a_results;
  t.objtab <- a.a_objtab;
  t.idx_uid <- a.a_uid;
  t.idx_uid_hash <- a.a_uid_hash;
  t.idx_hundred <- a.a_hundred;
  t.idx_million <- a.a_million;
  t.result_seq <- a.a_result_seq;
  Hashtbl.reset t.doc_counts;
  List.iter (fun (doc, n) -> Hashtbl.replace t.doc_counts doc n) a.a_docs

(* --- transactions --- *)

let begin_txn t = Engine.begin_txn t.engine
let commit t = Engine.commit t.engine
let abort t = Engine.abort t.engine
let require_txn t = Engine.require_txn t.engine

(* --- open / close --- *)

let open_db config =
  let engine =
    Engine.open_ ?vfs:config.vfs ~path:config.path
      ~pool_pages:config.pool_pages ~durable_sync:config.durable_sync
      ?group_commit:config.group_commit
      ~checkpoint_wal_bytes:config.checkpoint_wal_bytes ()
  in
  let pool = Engine.pool engine in
  let channel =
    Option.map
      (fun profile ->
        Hyper_net.Channel.attach_profile profile (Engine.pager engine))
      config.remote
  in
  let t =
    (* Fresh also covers a file left behind by a crash during a previous
       formatting attempt: formatting is not WAL-covered, so its commit
       point is the meta magic on page 0 (probed unverified — the crash
       may have torn the page or its checksum). *)
    if not (Meta.is_formatted pool) then begin
      let pager = Engine.pager engine in
      (* Scrub leftover half-formatted pages: their contents are garbage
         and their checksums may be torn; rewriting restores both. *)
      for id = 0 to Pager.page_count pager - 1 do
        Pager.write pager id (Page.alloc ())
      done;
      if Pager.page_count pager = 0 then begin
        let page0 = Buffer_pool.allocate pool in
        assert (page0 = 0)
      end;
      Meta.format pool;
      let freelist = Freelist.attach pool ~head:0 in
      let heap = Heap.fresh pool freelist in
      let results_heap = Heap.fresh pool freelist in
      let t =
        { engine; pool; channel; prefetch_enabled = config.prefetch;
          object_cache_capacity = config.object_cache;
          object_cache =
            Hyper_util.Lru.create ~capacity:(max 1 config.object_cache) ();
          cache_hits = 0;
          cache_misses = 0; freelist; heap; results_heap;
          objtab = Object_table.fresh pool freelist;
          idx_uid = Btree.create pool freelist;
          idx_uid_hash =
            (if config.uid_hash_index then
               Some (Hash_index.create pool freelist)
             else None);
          idx_hundred = Btree.create pool freelist;
          idx_million = Btree.create pool freelist;
          doc_counts = Hashtbl.create 4; result_seq = 0;
          result_rids = [||]; result_len = 0 }
      in
      save_roots t;
      (* Two-phase flush: none of this is WAL-covered, so the meta magic
         must not reach disk before every other format page is durable.
         Flush and sync the store with the magic concealed, then stamp
         it and flush page 0 alone — a crash anywhere in between leaves
         a store that [Meta.is_formatted] classifies as unformatted and
         the next open reformats from scratch. *)
      Meta.conceal_magic pool;
      Buffer_pool.flush_all pool;
      Pager.sync (Engine.pager engine);
      Meta.stamp_magic pool;
      Buffer_pool.flush_all pool;
      Pager.sync (Engine.pager engine);
      t
    end
    else begin
      let a = attach_all pool in
      let t =
        { engine; pool; channel; prefetch_enabled = config.prefetch;
          object_cache_capacity = config.object_cache;
          object_cache =
            Hyper_util.Lru.create ~capacity:(max 1 config.object_cache) ();
          cache_hits = 0;
          cache_misses = 0; freelist = a.a_freelist; heap = a.a_heap;
          results_heap = a.a_results; objtab = a.a_objtab; idx_uid = a.a_uid;
          idx_uid_hash = a.a_uid_hash; idx_hundred = a.a_hundred;
          idx_million = a.a_million; doc_counts = Hashtbl.create 4;
          result_seq = a.a_result_seq;
          result_rids = [||]; result_len = -1 }
      in
      List.iter (fun (doc, n) -> Hashtbl.replace t.doc_counts doc n) a.a_docs;
      t
    end
  in
  Engine.set_hooks engine
    ~on_save:(fun () -> save_roots t)
    ~on_reload:(fun () ->
      Hyper_util.Lru.clear t.object_cache;
      (* the aborted transaction may have stored results; rebuild lazily *)
      t.result_len <- -1;
      load_roots t);
  t

let clear_caches t =
  Engine.clear_caches t.engine;
  Hyper_util.Lru.clear t.object_cache

let checkpoint t = Engine.checkpoint t.engine

let close t =
  (match t.channel with Some c -> Hyper_net.Channel.detach c | None -> ());
  Engine.close t.engine

let last_recovery t = Engine.recovery t.engine
let read_only t = Engine.read_only t.engine
let engine t = t.engine

(* --- node access --- *)

let rid_of t oid =
  match Object_table.get t.objtab ~oid with
  | Some rid -> rid
  | None -> invalid_arg (Printf.sprintf "Diskdb: unknown oid %d" oid)

(* Decoded-object cache (check-out caching, ECKL87).  Entries share the
   mutable Codec.node with callers; every mutation path goes through
   [update_node], which refreshes the entry, and abort/cold-reset clear
   the whole cache, so it can never serve stale state.  The cache is a
   {!Hyper_util.Lru}: eviction used to be an O(n) tick fold, which made
   every miss linear in the cache size. *)

let cache_put t oid node =
  if t.object_cache_capacity > 0 then
    Hyper_util.Lru.put t.object_cache oid node

let read_node t oid =
  match
    if t.object_cache_capacity > 0 then
      Hyper_util.Lru.find t.object_cache oid
    else None
  with
  | Some node ->
    t.cache_hits <- t.cache_hits + 1;
    node
  | None ->
    if t.object_cache_capacity > 0 then t.cache_misses <- t.cache_misses + 1;
    (* Decode in place from the pinned page buffer — the per-node hot
       path of every closure traversal, so the extraction copy matters. *)
    let node =
      Heap.read_with t.heap (rid_of t oid) (fun b ~off ~len ->
          Codec.decode_at b ~off ~len)
    in
    cache_put t oid node;
    node

(* Projected read: with the check-out cache off, read the one field
   [at] from the pinned record window (the first overflow page of a
   form node), decoding nothing else.  With the cache on, reads keep
   the decode-and-cache path, so the cache ablation still measures the
   cache. *)
let project t oid ~cached ~at =
  if t.object_cache_capacity > 0 then cached (read_node t oid)
  else Heap.read_field t.heap (rid_of t oid) at

let record t oid = Heap.read t.heap (rid_of t oid)

let update_node t oid node =
  let rid = rid_of t oid in
  let rid' = Heap.update t.heap rid (Codec.encode node) in
  if rid' <> rid then Object_table.set t.objtab ~oid ~rid:rid';
  cache_put t oid node

let create_node ?near t spec =
  require_txn t;
  let oid = spec.Schema.oid in
  if Object_table.get t.objtab ~oid <> None then
    invalid_arg (Printf.sprintf "Diskdb: oid %d already exists" oid);
  let node = Codec.of_spec spec in
  let near_rid = Option.bind near (fun o -> Object_table.get t.objtab ~oid:o) in
  let rid = Heap.insert ?near:near_rid t.heap (Codec.encode node) in
  Object_table.set t.objtab ~oid ~rid;
  let doc = spec.Schema.doc in
  Btree.insert t.idx_uid ~key:(pack_key ~doc spec.Schema.unique_id) ~value:oid;
  (match t.idx_uid_hash with
  | Some h ->
    Hash_index.insert h ~key:(pack_key ~doc spec.Schema.unique_id) ~value:oid
  | None -> ());
  Btree.insert t.idx_hundred ~key:(pack_key ~doc spec.Schema.hundred) ~value:oid;
  Btree.insert t.idx_million ~key:(pack_key ~doc spec.Schema.million) ~value:oid;
  Hashtbl.replace t.doc_counts doc
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.doc_counts doc))

(* Batch form: the parent's record is decoded, extended by the whole
   array and re-encoded once, instead of once per edge — the per-edge
   version made bulk-loading a fanout-k parent O(k²) in copying and k
   heap rewrites of an ever-growing record. *)
let add_children t ~parent children =
  require_txn t;
  if Array.length children > 0 then begin
    let p = read_node t parent in
    (* Validate every endpoint before the first write: a bad child must
       not leave a half-linked batch behind. *)
    Array.iter
      (fun child ->
        let c = read_node t child in
        if c.Codec.parent <> 0 then
          invalid_arg
            (Printf.sprintf "Diskdb: node %d already has a parent" child))
      children;
    Array.iter
      (fun child ->
        let c = read_node t child in
        if c.Codec.parent <> 0 then
          invalid_arg
            (Printf.sprintf "Diskdb: node %d already has a parent" child);
        c.Codec.parent <- parent;
        update_node t child c)
      children;
    p.Codec.children <- Array.append p.Codec.children children;
    update_node t parent p
  end

let add_child t ~parent ~child = add_children t ~parent [| child |]

let add_parts t ~whole parts =
  require_txn t;
  if Array.length parts > 0 then begin
    let w = read_node t whole in
    Array.iter (fun part -> ignore (read_node t part)) parts;
    w.Codec.parts <- Array.append w.Codec.parts parts;
    update_node t whole w;
    Array.iter
      (fun part ->
        let p = read_node t part in
        p.Codec.part_of <- Array.append p.Codec.part_of [| whole |];
        update_node t part p)
      parts
  end

let add_part t ~whole ~part = add_parts t ~whole [| part |]

let add_ref t ~src ~dst ~offset_from ~offset_to =
  require_txn t;
  let s = read_node t src in
  ignore (read_node t dst);
  s.Codec.refs_to <-
    Array.append s.Codec.refs_to
      [| { Schema.target = dst; offset_from; offset_to } |];
  update_node t src s;
  let d = read_node t dst in
  d.Codec.refs_from <-
    Array.append d.Codec.refs_from
      [| { Schema.target = src; offset_from; offset_to } |];
  update_node t dst d

(* --- structural modification --- *)

let array_remove_first ~what x a =
  (* not Array.find_index: that landed in OCaml 5.1 and we build on 4.14 *)
  let n = Array.length a in
  let rec find i = if i >= n then None else if a.(i) = x then Some i else find (i + 1) in
  match find 0 with
  | None -> invalid_arg (Printf.sprintf "Diskdb: %s does not exist" what)
  | Some i -> Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (n - i - 1))

let remove_child t ~parent ~child =
  require_txn t;
  let p = read_node t parent in
  p.Codec.children <- array_remove_first ~what:"child edge" child p.Codec.children;
  update_node t parent p;
  let c = read_node t child in
  c.Codec.parent <- 0;
  update_node t child c

let remove_part t ~whole ~part =
  require_txn t;
  let w = read_node t whole in
  w.Codec.parts <- array_remove_first ~what:"part edge" part w.Codec.parts;
  update_node t whole w;
  let p = read_node t part in
  p.Codec.part_of <-
    array_remove_first ~what:"part edge inverse" whole p.Codec.part_of;
  update_node t part p

let remove_ref t ~src ~dst =
  require_txn t;
  let s = read_node t src in
  let link =
    match
      Array.find_opt
        (fun l -> Oid.equal l.Schema.target dst)
        s.Codec.refs_to
    with
    | Some l -> l
    | None ->
      invalid_arg (Printf.sprintf "Diskdb: no reference %d -> %d" src dst)
  in
  s.Codec.refs_to <- array_remove_first ~what:"reference" link s.Codec.refs_to;
  update_node t src s;
  let d = read_node t dst in
  let inverse =
    { Schema.target = src; offset_from = link.Schema.offset_from;
      offset_to = link.Schema.offset_to }
  in
  d.Codec.refs_from <-
    array_remove_first ~what:"reference inverse" inverse d.Codec.refs_from;
  update_node t dst d

let delete_node t oid =
  require_txn t;
  let n = read_node t oid in
  if n.Codec.children <> [||] then
    invalid_arg (Printf.sprintf "Diskdb: node %d still has children" oid);
  if n.Codec.parent <> 0 then remove_child t ~parent:n.Codec.parent ~child:oid;
  Array.iter (fun whole -> remove_part t ~whole ~part:oid) n.Codec.part_of;
  Array.iter (fun part -> remove_part t ~whole:oid ~part) n.Codec.parts;
  Array.iter
    (fun l -> remove_ref t ~src:oid ~dst:l.Schema.target)
    n.Codec.refs_to;
  (* Re-read: removing a self-reference above also removed its inverse. *)
  Array.iter
    (fun l -> remove_ref t ~src:l.Schema.target ~dst:oid)
    (read_node t oid).Codec.refs_from;
  let doc = n.Codec.doc in
  ignore
    (Btree.delete t.idx_uid ~key:(pack_key ~doc n.Codec.unique_id) ~value:oid
      : bool);
  (match t.idx_uid_hash with
  | Some h ->
    ignore
      (Hash_index.delete h ~key:(pack_key ~doc n.Codec.unique_id) ~value:oid
        : bool)
  | None -> ());
  let n = read_node t oid in
  ignore
    (Btree.delete t.idx_hundred ~key:(pack_key ~doc n.Codec.hundred) ~value:oid
      : bool);
  ignore
    (Btree.delete t.idx_million ~key:(pack_key ~doc n.Codec.million) ~value:oid
      : bool);
  Heap.delete t.heap (rid_of t oid);
  Object_table.remove t.objtab ~oid;
  Hyper_util.Lru.remove t.object_cache oid;
  Hashtbl.replace t.doc_counts doc
    (Option.value ~default:1 (Hashtbl.find_opt t.doc_counts doc) - 1)

(* --- attributes --- *)

let kind t oid = project t oid ~cached:(fun n -> n.Codec.kind) ~at:Codec.kind_at

let unique_id t oid =
  project t oid ~cached:(fun n -> n.Codec.unique_id) ~at:Codec.unique_id_at

let ten t oid = project t oid ~cached:(fun n -> n.Codec.ten) ~at:Codec.ten_at

let hundred t oid =
  project t oid ~cached:(fun n -> n.Codec.hundred) ~at:Codec.hundred_at

let million t oid =
  project t oid ~cached:(fun n -> n.Codec.million) ~at:Codec.million_at

(* In place: the record keeps its length, so the new value overwrites
   its 4 bytes through a page write that the transaction's undo and
   redo cover like any other.  A cached node is patched too. *)
let set_hundred t oid v =
  require_txn t;
  let old = hundred t oid in
  if old <> v then begin
    let doc = project t oid ~cached:(fun n -> n.Codec.doc) ~at:Codec.doc_at in
    ignore
      (Btree.delete t.idx_hundred ~key:(pack_key ~doc old) ~value:oid : bool);
    Btree.insert t.idx_hundred ~key:(pack_key ~doc v) ~value:oid;
    Heap.patch_with t.heap (rid_of t oid) (fun b ~off ~len ->
        Codec.set_hundred_at b ~off ~len v);
    if t.object_cache_capacity > 0 then (read_node t oid).Codec.hundred <- v
  end

let set_dyn_attr t oid key v =
  require_txn t;
  let n = read_node t oid in
  n.Codec.dyn <- (key, v) :: List.remove_assoc key n.Codec.dyn;
  update_node t oid n

let dyn_attr t oid key =
  List.assoc_opt key
    (project t oid ~cached:(fun n -> n.Codec.dyn) ~at:Codec.dyn_at)

(* --- associative lookup --- *)

let lookup_unique t ~doc uid =
  match t.idx_uid_hash with
  | Some h -> Hash_index.find_first h ~key:(pack_key ~doc uid)
  | None -> Btree.find_first t.idx_uid ~key:(pack_key ~doc uid)

let collect_range tree ~doc ~lo ~hi =
  List.rev
    (Btree.fold_range tree ~lo:(pack_key ~doc lo) ~hi:(pack_key ~doc hi)
       ~init:[] ~f:(fun acc ~key:_ ~value -> value :: acc))

let range_unique t ~doc ~lo ~hi = collect_range t.idx_uid ~doc ~lo ~hi
let range_hundred t ~doc ~lo ~hi = collect_range t.idx_hundred ~doc ~lo ~hi
let range_million t ~doc ~lo ~hi = collect_range t.idx_million ~doc ~lo ~hi

(* --- relationships --- *)

(* Traversal prefetch: resolve the oids through the object table, then
   batch-fetch the heap pages (and overflow chains) backing the not-yet
   -checked-out nodes.  On a remote channel the batch rides one round
   trip instead of one per page.  A pure hint — unknown oids and nodes
   already in the object cache are skipped, and the decode that follows
   goes through [read_node] unchanged. *)
let prefetch_nodes t oids =
  if t.prefetch_enabled then begin
    let resolve oids =
      List.filter_map
        (fun oid ->
          if
            t.object_cache_capacity > 0
            && Hyper_util.Lru.mem t.object_cache oid
          then None
          else Object_table.get t.objtab ~oid)
        oids
    in
    let rids = resolve oids in
    if rids <> [] then begin
      Heap.prefetch_records t.heap rids;
      (* One level of lookahead along the 1-N hierarchy: the records
         just staged are resident now, so peeking at their children
         costs no transfer, and batching the children's pages here turns
         the per-fanout prefetch the traversal issues at the next level
         into pool hits.  A group-fetch server ships the sub-hierarchy,
         not just the requested page set — the page-at-a-time vs.
         group-transfer contrast the paper draws between Vbase and
         GemStone. *)
      let lookahead =
        List.concat_map
          (fun oid ->
            match Object_table.get t.objtab ~oid with
            | None -> []
            | Some _ ->
              Array.to_list
                (project t oid ~cached:(fun n -> n.Codec.children)
                   ~at:Codec.children_at))
          oids
      in
      let child_rids = resolve lookahead in
      if child_rids <> [] then Heap.prefetch_records t.heap child_rids
    end
  end

let children t oid =
  project t oid ~cached:(fun n -> n.Codec.children) ~at:Codec.children_at

let parent t oid =
  match project t oid ~cached:(fun n -> n.Codec.parent) ~at:Codec.parent_at with
  | 0 -> None
  | p -> Some p

let parts t oid =
  project t oid ~cached:(fun n -> n.Codec.parts) ~at:Codec.parts_at

let part_of t oid =
  project t oid ~cached:(fun n -> n.Codec.part_of) ~at:Codec.part_of_at

let refs_to t oid =
  project t oid ~cached:(fun n -> n.Codec.refs_to) ~at:Codec.refs_to_at

let refs_from t oid =
  project t oid ~cached:(fun n -> n.Codec.refs_from) ~at:Codec.refs_from_at

(* --- content --- *)

let text t oid =
  if kind t oid <> Schema.Text then
    invalid_arg (Printf.sprintf "Diskdb: node %d is not a text node" oid);
  project t oid ~cached:(fun n -> n.Codec.text) ~at:Codec.text_at

let set_text t oid s =
  require_txn t;
  let n = read_node t oid in
  if n.Codec.kind <> Schema.Text then
    invalid_arg (Printf.sprintf "Diskdb: node %d is not a text node" oid);
  n.Codec.text <- s;
  update_node t oid n

let form t oid =
  if kind t oid <> Schema.Form then
    invalid_arg (Printf.sprintf "Diskdb: node %d is not a form node" oid);
  (* The payload is the record's last field, past the first overflow
     chunk: read the whole record at once. *)
  Bitmap.of_bytes
    (if t.object_cache_capacity > 0 then (read_node t oid).Codec.form
     else Heap.read_with t.heap (rid_of t oid) Codec.form_at)

let set_form t oid b =
  require_txn t;
  let n = read_node t oid in
  if n.Codec.kind <> Schema.Form then
    invalid_arg (Printf.sprintf "Diskdb: node %d is not a form node" oid);
  n.Codec.form <- Bitmap.to_bytes b;
  update_node t oid n

(* --- scans --- *)

let iter_doc t ~doc f =
  (* The whole key band of this doc: an index scan is the structure's
     extent (the class extent cannot be used, paper §6.4.1). *)
  Btree.iter_range t.idx_uid ~lo:(doc * key_shift)
    ~hi:(((doc + 1) * key_shift) - 1)
    (fun ~key:_ ~value -> f value)

let node_count t ~doc =
  Option.value ~default:0 (Hashtbl.find_opt t.doc_counts doc)

(* The results heap is append-only, so its page-chain order is store
   order.  [result_rids] indexes it: rebuilt by one rid-only scan (no
   record decoding) when stale, appended to on every store — so
   [stored_result] is a single record read, not a full-heap rescan and
   an O(n) [List.nth] per call. *)

let result_rids_push t rid =
  if t.result_len >= 0 then begin
    let cap = Array.length t.result_rids in
    if t.result_len >= cap then begin
      let grown = Array.make (max 8 (2 * cap)) 0 in
      Array.blit t.result_rids 0 grown 0 t.result_len;
      t.result_rids <- grown
    end;
    t.result_rids.(t.result_len) <- rid;
    t.result_len <- t.result_len + 1
  end

let result_index t =
  if t.result_len < 0 then begin
    t.result_rids <- [||];
    t.result_len <- 0;
    Heap.iter_rids t.results_heap (fun rid -> result_rids_push t rid)
  end

let store_result_list t oids =
  require_txn t;
  let rid = Heap.insert t.results_heap (Codec.encode_oid_list oids) in
  result_rids_push t rid;
  t.result_seq <- t.result_seq + 1

let stored_result_count t = t.result_seq

let stored_result t i =
  if i < 0 || i >= t.result_seq then invalid_arg "Diskdb.stored_result";
  result_index t;
  Codec.decode_oid_list (Heap.read t.results_heap t.result_rids.(i))

(* --- introspection --- *)

type io_counters = {
  pager_reads : int;
  pager_writes : int;
  pool_hits : int;
  pool_misses : int;
  pool_evictions : int;
  pool_prefetches : int;
  round_trips : int;
  batched_round_trips : int;
  server_hits : int;
  server_misses : int;
  wal_bytes : int;
  object_hits : int;
  object_misses : int;
}

let io_counters t =
  let ps = Pager.stats (Engine.pager t.engine) in
  let bs = Buffer_pool.stats t.pool in
  let rt, brt, sh, sm =
    match t.channel with
    | None -> (0, 0, 0, 0)
    | Some c ->
      let k = Hyper_net.Channel.counters c in
      Hyper_net.Channel.
        (k.round_trips, k.batched_round_trips, k.server_hits, k.server_misses)
  in
  { pager_reads = ps.Pager.reads; pager_writes = ps.Pager.writes;
    pool_hits = bs.Buffer_pool.hits; pool_misses = bs.Buffer_pool.misses;
    pool_evictions = bs.Buffer_pool.evictions;
    pool_prefetches = bs.Buffer_pool.prefetches; round_trips = rt;
    batched_round_trips = brt; server_hits = sh; server_misses = sm;
    wal_bytes = Engine.wal_bytes t.engine; object_hits = t.cache_hits;
    object_misses = t.cache_misses }

(* State lives in pages behind the buffer pool and WAL; cloning would
   mean copying the whole file, not a cheap in-memory fork. *)
let snapshot _ = None

let io_description t =
  let c = io_counters t in
  Printf.sprintf
    "pager r/w %d/%d; pool hit/miss/evict %d/%d/%d (+%d prefetched); net \
     trips %d (%d batched, server %d/%d)"
    c.pager_reads c.pager_writes c.pool_hits c.pool_misses c.pool_evictions
    c.pool_prefetches c.round_trips c.batched_round_trips c.server_hits
    c.server_misses

let reset_io t =
  Pager.reset_stats (Engine.pager t.engine);
  Buffer_pool.reset_stats t.pool;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  match t.channel with
  | Some c -> Hyper_net.Channel.reset_counters c
  | None -> ()

let file_bytes t = Pager.page_count (Engine.pager t.engine) * Page.size

(* Mark-and-sweep garbage collection (R10): pages can leak when a
   transaction that extended the file aborts — the undo restores page
   contents and root pointers, but the file keeps its new length.  Mark
   every page reachable from the meta roots (heaps with their overflow
   chains, object table, B+trees, free list), sweep the rest into the
   free list.  Returns the number of pages reclaimed. *)
let collect_garbage t =
  Engine.begin_txn t.engine;
  let total = Pager.page_count (Engine.pager t.engine) in
  let marked = Array.make total false in
  marked.(0) <- true;
  let mark id = if id > 0 && id < total then marked.(id) <- true in
  Heap.iter_pages t.heap mark;
  Heap.iter_pages t.results_heap mark;
  Object_table.iter_pages t.objtab mark;
  Btree.iter_pages t.idx_uid mark;
  (match t.idx_uid_hash with
  | Some h ->
    (* Mark the hash index's header and every directory/bucket page. *)
    mark (Hash_index.header h);
    List.iter mark (Hash_index.all_pages h)
  | None -> ());
  Btree.iter_pages t.idx_hundred mark;
  Btree.iter_pages t.idx_million mark;
  Freelist.iter t.freelist mark;
  let freed = ref 0 in
  for id = 1 to total - 1 do
    if not marked.(id) then begin
      (* The page is dead — an aborted or crashed transaction may have
         left it torn.  Scrub it (bypassing the pool: reading it first
         could trip the checksum) so reuse from the free list starts
         from a clean, verifiable page. *)
      Pager.write (Engine.pager t.engine) id (Page.alloc ());
      Buffer_pool.invalidate t.pool id;
      Freelist.push t.freelist id;
      incr freed
    end
  done;
  Engine.commit t.engine;
  !freed
