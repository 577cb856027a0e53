module Schema = Hyper_core.Schema

type node = {
  doc : int;
  unique_id : int;
  kind : Schema.kind;
  mutable ten : int;
  mutable hundred : int;
  mutable million : int;
  mutable parent : int;
  mutable children : int array;
  mutable parts : int array;
  mutable part_of : int array;
  mutable refs_to : Schema.link array;
  mutable refs_from : Schema.link array;
  mutable dyn : (string * int) list;
  mutable text : string;
  mutable form : bytes;
}

let of_spec spec =
  let text, form =
    match spec.Schema.payload with
    | Schema.P_text s -> (s, Bytes.empty)
    | Schema.P_form b -> ("", Hyper_util.Bitmap.to_bytes b)
    | Schema.P_internal | Schema.P_draw -> ("", Bytes.empty)
  in
  { doc = spec.Schema.doc; unique_id = spec.Schema.unique_id;
    kind = Schema.kind_of_payload spec.Schema.payload; ten = spec.Schema.ten;
    hundred = spec.Schema.hundred; million = spec.Schema.million; parent = 0;
    children = [||]; parts = [||]; part_of = [||]; refs_to = [||];
    refs_from = [||]; dyn = []; text; form }

let kind_tag = function
  | Schema.Internal -> 0
  | Schema.Text -> 1
  | Schema.Form -> 2
  | Schema.Draw -> 3

let kind_of_tag = function
  | 0 -> Schema.Internal
  | 1 -> Schema.Text
  | 2 -> Schema.Form
  | 3 -> Schema.Draw
  | n -> invalid_arg (Printf.sprintf "Codec: bad kind tag %d" n)

(* --- little-endian emit helpers over Buffer --- *)

let emit_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let emit_u16 buf v =
  emit_u8 buf v;
  emit_u8 buf (v lsr 8)

let emit_u32 buf v =
  emit_u16 buf v;
  emit_u16 buf (v lsr 16)

let emit_i32 buf v = emit_u32 buf (v land 0xFFFFFFFF)

let emit_oids buf a =
  emit_u16 buf (Array.length a);
  Array.iter (emit_u32 buf) a

let emit_links buf a =
  emit_u16 buf (Array.length a);
  Array.iter
    (fun l ->
      emit_u32 buf l.Schema.target;
      emit_u8 buf l.Schema.offset_from;
      emit_u8 buf l.Schema.offset_to)
    a

let encode n =
  let buf = Buffer.create 128 in
  emit_u32 buf n.doc;
  emit_u32 buf n.unique_id;
  emit_u8 buf (kind_tag n.kind);
  emit_u8 buf n.ten;
  (* hundred is signed in principle (op 12 maps 1..100 to -1..98) *)
  emit_i32 buf n.hundred;
  emit_u32 buf n.million;
  emit_u32 buf n.parent;
  emit_oids buf n.children;
  emit_oids buf n.parts;
  emit_oids buf n.part_of;
  emit_links buf n.refs_to;
  emit_links buf n.refs_from;
  emit_u8 buf (List.length n.dyn);
  List.iter
    (fun (k, v) ->
      emit_u8 buf (String.length k);
      Buffer.add_string buf k;
      emit_u32 buf (v land 0xFFFFFFFF))
    n.dyn;
  emit_u32 buf (String.length n.text);
  Buffer.add_string buf n.text;
  emit_u32 buf (Bytes.length n.form);
  Buffer.add_bytes buf n.form;
  Buffer.to_bytes buf

(* --- decoding ---

   The fixed header is doc u32 @0, unique_id u32 @4, kind u8 @8,
   ten u8 @9, hundred i32 @10, million u32 @14, parent u32 @18.  The
   variable sections follow in encode order.  [decode_at] walks them all
   with a cursor; a projected reader ([*_at]) skips the sections before
   its own by their counts and allocates only what it returns.  Both
   parse a section with the same code, and both raise the same
   [Invalid_argument] when what they read runs past the window. *)

let header_size = 22
let hundred_pos = 10

let truncated () = invalid_arg "Codec.decode: truncated record"

let get_u32 data p = Int32.to_int (Bytes.get_int32_le data p) land 0xFFFFFFFF

(* A count at [p], which must lie inside [p, limit). *)
let count_u8 data ~limit p =
  if p + 1 > limit then truncated ();
  Bytes.get_uint8 data p

let count_u16 data ~limit p =
  if p + 2 > limit then truncated ();
  Bytes.get_uint16_le data p

let count_u32 data ~limit p =
  if p + 4 > limit then truncated ();
  get_u32 data p

(* The oid and link arrays starting at [p]. *)
let oids_from data ~limit p =
  let n = count_u16 data ~limit p in
  if p + 2 + (4 * n) > limit then truncated ();
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- get_u32 data (p + 2 + (4 * i))
  done;
  a

let links_from data ~limit p =
  let n = count_u16 data ~limit p in
  if p + 2 + (6 * n) > limit then truncated ();
  if n = 0 then [||]
  else
    Array.init n (fun i ->
        let q = p + 2 + (6 * i) in
        { Schema.target = get_u32 data q;
          offset_from = Bytes.get_uint8 data (q + 4);
          offset_to = Bytes.get_uint8 data (q + 5) })

(* [limit] bounds the record inside [data], so a cursor can decode in
   place from a page buffer without extracting the record first. *)
type cursor = { data : bytes; mutable pos : int; limit : int }

let need c n = if c.pos + n > c.limit then truncated ()

let read_u8 c =
  let v = count_u8 c.data ~limit:c.limit c.pos in
  c.pos <- c.pos + 1;
  v

let read_u32 c =
  let v = count_u32 c.data ~limit:c.limit c.pos in
  c.pos <- c.pos + 4;
  v

let read_i32 c =
  let v = read_u32 c in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let read_oids c =
  let a = oids_from c.data ~limit:c.limit c.pos in
  c.pos <- c.pos + 2 + (4 * Array.length a);
  a

let read_links c =
  let a = links_from c.data ~limit:c.limit c.pos in
  c.pos <- c.pos + 2 + (6 * Array.length a);
  a

let read_dyn c =
  match read_u8 c with
  | 0 -> []
  | n ->
    List.init n (fun _ ->
        let klen = read_u8 c in
        need c klen;
        let k = Bytes.sub_string c.data c.pos klen in
        c.pos <- c.pos + klen;
        (k, read_u32 c))

let read_string c =
  let n = read_u32 c in
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let read_bytes c =
  let n = read_u32 c in
  need c n;
  let b = Bytes.sub c.data c.pos n in
  c.pos <- c.pos + n;
  b

(* Validate the window and that it holds the fixed header. *)
let header data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Codec.decode_at: range outside buffer";
  if len < header_size then truncated ()

let decode_at data ~off ~len =
  header data ~off ~len;
  let c = { data; pos = off; limit = off + len } in
  let doc = read_u32 c in
  let unique_id = read_u32 c in
  let kind = kind_of_tag (read_u8 c) in
  let ten = read_u8 c in
  let hundred = read_i32 c in
  let million = read_u32 c in
  let parent = read_u32 c in
  let children = read_oids c in
  let parts = read_oids c in
  let part_of = read_oids c in
  let refs_to = read_links c in
  let refs_from = read_links c in
  let dyn = read_dyn c in
  let text = read_string c in
  let form = read_bytes c in
  { doc; unique_id; kind; ten; hundred; million; parent; children; parts;
    part_of; refs_to; refs_from; dyn; text; form }

let decode data = decode_at data ~off:0 ~len:(Bytes.length data)

(* --- projected reads: one field from the record window --- *)

let doc_at data ~off ~len =
  header data ~off ~len;
  get_u32 data off

let unique_id_at data ~off ~len =
  header data ~off ~len;
  get_u32 data (off + 4)

let kind_at data ~off ~len =
  header data ~off ~len;
  kind_of_tag (Bytes.get_uint8 data (off + 8))

let ten_at data ~off ~len =
  header data ~off ~len;
  Bytes.get_uint8 data (off + 9)

let hundred_at data ~off ~len =
  header data ~off ~len;
  Int32.to_int (Bytes.get_int32_le data (off + hundred_pos))

let million_at data ~off ~len =
  header data ~off ~len;
  get_u32 data (off + 14)

let parent_at data ~off ~len =
  header data ~off ~len;
  get_u32 data (off + 18)

let set_hundred_at data ~off ~len v =
  header data ~off ~len;
  Bytes.set_int32_le data (off + hundred_pos) (Int32.of_int v)

(* Start of each section, absolute in [data]. *)
let after_oids data ~limit p = p + 2 + (4 * count_u16 data ~limit p)
let after_links data ~limit p = p + 2 + (6 * count_u16 data ~limit p)

let after_dyn data ~limit p =
  let rec skip n p =
    if n = 0 then p else skip (n - 1) (p + 1 + count_u8 data ~limit p + 4)
  in
  skip (count_u8 data ~limit p) (p + 1)

let children_pos data ~off ~len =
  header data ~off ~len;
  off + header_size

let parts_pos data ~off ~len =
  after_oids data ~limit:(off + len) (children_pos data ~off ~len)

let part_of_pos data ~off ~len =
  after_oids data ~limit:(off + len) (parts_pos data ~off ~len)

let refs_to_pos data ~off ~len =
  after_oids data ~limit:(off + len) (part_of_pos data ~off ~len)

let refs_from_pos data ~off ~len =
  after_links data ~limit:(off + len) (refs_to_pos data ~off ~len)

let dyn_pos data ~off ~len =
  after_links data ~limit:(off + len) (refs_from_pos data ~off ~len)

let text_pos data ~off ~len =
  after_dyn data ~limit:(off + len) (dyn_pos data ~off ~len)

let form_pos data ~off ~len =
  let p = text_pos data ~off ~len in
  p + 4 + count_u32 data ~limit:(off + len) p

let children_at data ~off ~len =
  oids_from data ~limit:(off + len) (children_pos data ~off ~len)

let parts_at data ~off ~len =
  oids_from data ~limit:(off + len) (parts_pos data ~off ~len)

let part_of_at data ~off ~len =
  oids_from data ~limit:(off + len) (part_of_pos data ~off ~len)

let refs_to_at data ~off ~len =
  links_from data ~limit:(off + len) (refs_to_pos data ~off ~len)

let refs_from_at data ~off ~len =
  links_from data ~limit:(off + len) (refs_from_pos data ~off ~len)

let dyn_at data ~off ~len =
  read_dyn { data; pos = dyn_pos data ~off ~len; limit = off + len }

let text_at data ~off ~len =
  read_string { data; pos = text_pos data ~off ~len; limit = off + len }

let form_at data ~off ~len =
  read_bytes { data; pos = form_pos data ~off ~len; limit = off + len }

let encoded_size n = Bytes.length (encode n)

let encode_oid_list oids =
  let buf = Buffer.create (4 + (4 * List.length oids)) in
  emit_u32 buf (List.length oids);
  List.iter (emit_u32 buf) oids;
  Buffer.to_bytes buf

let decode_oid_list data =
  let c = { data; pos = 0; limit = Bytes.length data } in
  let n = read_u32 c in
  List.init n (fun _ -> read_u32 c)
