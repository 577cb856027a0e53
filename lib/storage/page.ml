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

(* CRC-32 (IEEE), slicing-by-8 — the one checksum of the system: page
   images, WAL records, replication frames and wire frames.  [tables]
   holds eight 256-entry tables back to back: table 0 is the classic
   bytewise table, and table k advances a table-(k-1) entry by one more
   zero byte, so eight bytes fold into the CRC with eight lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let checksum_update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Page.checksum_update";
  let t = tables in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    (* Little-endian: the low half is the next four bytes in order. *)
    let w = Bytes.get_int64_le b !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let checksum b = checksum_update 0 b ~pos:0 ~len:(Bytes.length b)

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
