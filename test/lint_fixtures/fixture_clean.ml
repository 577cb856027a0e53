(* The idiomatic counterparts of fixture_violations.ml — the shapes the
   rules are meant to steer code toward.  test_lint asserts hyperlint
   reports nothing here, with nothing suppressed either. *)

module Oid = Hyper_core.Oid
module Vfs = Hyper_storage.Vfs

(* I/O goes through the VFS seam, not raw Unix. *)
let present (vfs : Vfs.t) path = vfs.Vfs.exists path

(* Handlers name the exceptions they mean to absorb. *)
let swallow f = try f () with Not_found | Invalid_argument _ -> ()

module Buffer_pool = struct
  let pin _pool _page = ()
  let unpin _pool _page = ()
end

(* Pin is balanced by an unpin in the same binding. *)
let pinned pool page f =
  Buffer_pool.pin pool page;
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin pool page) f

(* Keyed equality at Oid.t. *)
let same_node (a : Oid.t) (b : Oid.t) = Oid.equal a b

(* Hash-order fold, immediately sorted with a keyed comparator. *)
let doc_ids (tbl : (int, string) Hashtbl.t) =
  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* Durations come from the monotonic clock, not the wall clock. *)
let stamp () = Hyper_util.Mtime_stub.now_ns ()

(* Frame handlers enumerate the constructors and bind the epoch. *)
module Frame = struct
  type t = Ping of { epoch : int; lsn : int }
end

let good_epoch = function Frame.Ping { epoch; lsn } -> epoch + lsn

(* Page contents are read in place through the pin, not copied out. *)
let first_byte (page : bytes) = Bytes.get page 0

(* Locks come from the Sync wrapper with a declared rank. *)
module Sync = Hyper_util.Sync

let outer = Sync.Mutex.create ~rank:10 "fixture_clean.outer"
let inner = Sync.Mutex.create ~rank:40 "fixture_clean.inner"

(* Nested acquisition in ascending declared rank. *)
let ordered () =
  Sync.Mutex.with_lock outer (fun () ->
      Sync.Mutex.with_lock inner (fun () -> ()))

(* Snapshot under the lock, block outside it. *)
let polite () =
  let snapshot = Sync.Mutex.with_lock outer (fun () -> 42) in
  Thread.delay 0.001;
  snapshot

(* A message is framed, and checksummed, by the one frame codec; a
   local name for the CRC it stamped is fine. *)
let frame_crc body =
  let frame =
    Hyper_storage.Frame_codec.write ~magic:0xEE ~kind:1
      ~len:(Bytes.length body)
      (fun body b off -> Bytes.blit body 0 b off (Bytes.length body))
      body
  in
  let crc = Bytes.get_int32_le frame 6 in
  crc
