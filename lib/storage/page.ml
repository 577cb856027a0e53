let size = 4096

let alloc () = Bytes.make size '\000'

let get_u8 b pos = Char.code (Bytes.get b pos)
let set_u8 b pos v = Bytes.set b pos (Char.chr (v land 0xFF))

let get_u16 b pos = Bytes.get_uint16_le b pos
let set_u16 b pos v = Bytes.set_uint16_le b pos v

let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF
let set_u32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

let get_i64 b pos = Bytes.get_int64_le b pos
let set_i64 b pos v = Bytes.set_int64_le b pos v

let get_sub b ~pos ~len = Bytes.sub b pos len
let set_sub b ~pos src = Bytes.blit src 0 b pos (Bytes.length src)

(* CRC-32 (IEEE) — the one checksum of the system: page images, WAL
   records, replication frames and wire frames.  The kernel is C
   (storage_stubs.c): PCLMULQDQ folding on x86-64 CPUs that have it,
   slicing-by-8 everywhere else; both compute the same function. *)
external crc32_update :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "caml_hyper_crc32_update_byte" "caml_hyper_crc32_update"
[@@noalloc]

external crc32_update_portable :
  (int[@untagged]) -> bytes -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged])
  = "caml_hyper_crc32_update_portable_byte" "caml_hyper_crc32_update_portable"
[@@noalloc]

external crc32_hardware : unit -> bool = "caml_hyper_crc32_hardware"
[@@noalloc]

let check_range b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Page.checksum_update"

let checksum_update crc b ~pos ~len =
  check_range b ~pos ~len;
  crc32_update crc b pos len

let checksum b = crc32_update 0 b 0 (Bytes.length b)

module For_testing = struct
  let hardware_crc = crc32_hardware ()

  let checksum_update_portable crc b ~pos ~len =
    check_range b ~pos ~len;
    crc32_update_portable crc b pos len
end

type ptype = Free | Meta | Heap | Overflow | Btree_leaf | Btree_internal | Obj_table

let of_tag = function
  | 0 -> Free
  | 1 -> Meta
  | 2 -> Heap
  | 3 -> Overflow
  | 4 -> Btree_leaf
  | 5 -> Btree_internal
  | 6 -> Obj_table
  | n -> invalid_arg (Printf.sprintf "Page.of_tag: unknown page type %d" n)

let to_tag = function
  | Free -> 0
  | Meta -> 1
  | Heap -> 2
  | Overflow -> 3
  | Btree_leaf -> 4
  | Btree_internal -> 5
  | Obj_table -> 6

let get_type b = of_tag (get_u8 b 0)
let set_type b t = set_u8 b 0 (to_tag t)

let type_to_string = function
  | Free -> "free"
  | Meta -> "meta"
  | Heap -> "heap"
  | Overflow -> "overflow"
  | Btree_leaf -> "btree-leaf"
  | Btree_internal -> "btree-internal"
  | Obj_table -> "obj-table"
