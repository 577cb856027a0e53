(* The same plants as fixture_violations.ml, each waived with a
   [@lint.allow] attribute — exercising expression attributes,
   let-binding attributes and a floating [@@@lint.allow].  test_lint
   asserts zero findings and counts the suppressions. *)

module Oid = Hyper_core.Oid

let raw_open path =
  (Unix.openfile path [ Unix.O_RDONLY ] 0o644 [@lint.allow "vfs-boundary"])

let swallow f = (try f () with _ -> ()) [@lint.allow "no-catchall-swallow"]

module Buffer_pool = struct
  let pin _pool _page = ()
  let unpin _pool _page = ()
end

let leak pool page = Buffer_pool.pin pool page
  [@@lint.allow "pin-balance"]

(* Everything below the floating attribute is waived for the rule. *)
[@@@lint.allow "no-poly-compare-on-oid"]

let same_node (a : Oid.t) (b : Oid.t) = a = b

let doc_ids (tbl : (int, string) Hashtbl.t) =
  (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
   [@lint.allow "deterministic-iteration"])

let stamp () = (Unix.gettimeofday () [@lint.allow "monotonic-time"])

module Frame = struct
  type t = Ping of { epoch : int; lsn : int }
end

let bad_epoch = function Frame.Ping { epoch = _; lsn } -> lsn
  [@@lint.allow "epoch-check"]

let copy_page (page : bytes) = (Bytes.copy page [@lint.allow "no-page-copy"])

let raw_lock () = (Mutex.create () [@lint.allow "sync-wrapper-only"])

module Sync = Hyper_util.Sync

let outer = Sync.Mutex.create ~rank:10 "fixture_suppressed.outer"
let inner = Sync.Mutex.create ~rank:40 "fixture_suppressed.inner"

let backwards () =
  Sync.Mutex.with_lock inner (fun () ->
      (Sync.Mutex.with_lock outer (fun () -> ())
      [@lint.allow "lock-order"]))

(* no-blocking-under-mutex only accepts the reasoned payload form. *)
let sleepy () =
  Sync.Mutex.with_lock outer (fun () ->
      (Thread.delay 0.01
      [@lint.allow
        "no-blocking-under-mutex: fixture — demonstrates the mandatory \
         reasoned payload"]))

let crc b = Bytes.length b [@@lint.allow "one-checksum"]
