(* One planted violation per hyperlint rule.  test_lint asserts the
   exact rule id and line of each finding, so keep this file stable:
   append new plants at the bottom rather than reflowing. *)

module Oid = Hyper_core.Oid

(* vfs-boundary: raw Unix I/O outside the VFS seam. *)
let raw_open path = Unix.openfile path [ Unix.O_RDONLY ] 0o644

(* no-catchall-swallow: handler would eat Vfs.Crash / Storage_error. *)
let swallow f = try f () with _ -> ()

(* pin-balance: pin with no unpin anywhere in the enclosing binding. *)
module Buffer_pool = struct
  let pin _pool _page = ()
  let unpin _pool _page = ()
end

let leak pool page = Buffer_pool.pin pool page

(* no-poly-compare-on-oid: structural equality at Oid.t. *)
let same_node (a : Oid.t) (b : Oid.t) = a = b

(* deterministic-iteration: list built in hash order, never sorted. *)
let doc_ids (tbl : (int, string) Hashtbl.t) =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

(* monotonic-time: wall-clock reads outside lib/util. *)
let stamp () = Unix.gettimeofday ()

(* epoch-check: a frame handler that wildcards the epoch field acts on
   stale-epoch frames from a deposed primary. *)
module Frame = struct
  type t = Ping of { epoch : int; lsn : int }
end

let bad_epoch = function
  | Frame.Ping { epoch = _; lsn } -> lsn

(* no-page-copy: copying a pinned page buffer outside lib/storage. *)
let copy_page (page : bytes) = Bytes.copy page

(* sync-wrapper-only: a raw stdlib primitive dodges the Sync wrapper
   (no lockdep, no metrics, no declared rank). *)
let raw_lock () = Mutex.create ()

(* Ranked Sync locks for the two concurrency plants below. *)
module Sync = Hyper_util.Sync

let outer = Sync.Mutex.create ~rank:10 "fixture.outer"
let inner = Sync.Mutex.create ~rank:40 "fixture.inner"

(* lock-order: the low-rank lock taken while a high-rank one is held. *)
let backwards () =
  Sync.Mutex.with_lock inner (fun () ->
      Sync.Mutex.with_lock outer (fun () -> ()))

(* no-blocking-under-mutex: sleeping inside the critical section. *)
let sleepy () = Sync.Mutex.with_lock outer (fun () -> Thread.delay 0.01)

(* no-poly-compare-on-oid, version-chain shape: the structural [=]
   compares only the oid half of an (oid, variant) chain key — the
   bug Version_store.variants shipped with.  The sort keeps the fold
   deterministic, so only v4 fires. *)
let chain_variants (chains : (Oid.t * string, int) Hashtbl.t) (key : Oid.t) =
  List.sort_uniq Stdlib.compare
    (Hashtbl.fold
       (fun (oid, variant) _ acc -> if oid = key then variant :: acc else acc)
       chains [])

(* one-checksum: a second checksum kernel beside Page.checksum. *)
let checksum b =
  Bytes.fold_left (fun h c -> (h * 33) + Char.code c) 5381 b

(* one-checksum: a codec checksumming its own frames beside the codec. *)
let frame_crc body =
  Hyper_storage.Page.checksum_update 0 body ~pos:0 ~len:(Bytes.length body)
