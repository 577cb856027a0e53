(** Binary codec for node records in the disk backend.

    A node is stored as one heap record holding its scalar attributes,
    all relationship lists (children in sequence order, parts, partOf,
    refsTo, refsFrom), dynamically added attributes (R4) and the typed
    payload (text string or serialised bitmap).  Storing relationships
    inline with the node is the classic OODB layout the paper's systems
    used; it is what makes clustering along the 1-N hierarchy effective.

    The decoded record is mutable: read → mutate → encode → update is the
    backend's write path. *)

type node = {
  doc : int;
  unique_id : int;
  kind : Hyper_core.Schema.kind;
  mutable ten : int;
  mutable hundred : int; (** may briefly leave 1..100 via op 12 *)
  mutable million : int;
  mutable parent : int; (** 0 = none *)
  mutable children : int array;
  mutable parts : int array;
  mutable part_of : int array;
  mutable refs_to : Hyper_core.Schema.link array;
  mutable refs_from : Hyper_core.Schema.link array;
  mutable dyn : (string * int) list;
  mutable text : string; (** meaningful for Text nodes *)
  mutable form : bytes; (** serialised {!Hyper_util.Bitmap}, or empty *)
}

val of_spec : Hyper_core.Schema.node_spec -> node

val encode : node -> bytes

val decode : bytes -> node
(** @raise Invalid_argument on a corrupt record. *)

val decode_at : bytes -> off:int -> len:int -> node
(** Decode the record occupying [off, off+len) of [data] in place —
    e.g. directly from a pinned page buffer via
    {!Hyper_storage.Heap.read_with}, without extracting it first.  The
    decoded node shares nothing with [data] (strings and payloads are
    copied out), so it stays valid after the buffer is unpinned.
    @raise Invalid_argument on a corrupt record or a range outside the
    buffer. *)

(** {2 Projected reads}

    One reader per field over the record window [\[off, off+len)] of
    [data], for reads that want one field and not the whole node: each
    returns what {!decode_at} would put in that field, and allocates
    only the value it returns.  The layout they read is the fixed
    header — [doc] u32 at 0, [unique_id] u32 at 4, [kind] u8 at 8,
    [ten] u8 at 9, [hundred] i32 at 10, [million] u32 at 14, [parent]
    u32 at 18, 22 bytes in all — then children, parts and partOf
    (u16 count, u32 oids), refsTo and refsFrom (u16 count, 6-byte
    links), the dyn list (u8 count; u8 key length, key, u32 value), the
    text (u32 length, bytes) and the form (u32 length, bytes).  A reader
    of a later section skips the earlier ones by their counts.

    Each raises [Invalid_argument] when the window lies outside [data],
    is shorter than the header, or ends before the bytes the reader
    needs — the way {!decode_at} does on a truncated record.  A reader
    never looks past its own field, so a window holding only a prefix
    of the record (the first overflow page of a large one) serves every
    field that prefix covers. *)

val doc_at : bytes -> off:int -> len:int -> int
val unique_id_at : bytes -> off:int -> len:int -> int
val kind_at : bytes -> off:int -> len:int -> Hyper_core.Schema.kind
val ten_at : bytes -> off:int -> len:int -> int
val hundred_at : bytes -> off:int -> len:int -> int
val million_at : bytes -> off:int -> len:int -> int
val parent_at : bytes -> off:int -> len:int -> int
val children_at : bytes -> off:int -> len:int -> int array
val parts_at : bytes -> off:int -> len:int -> int array
val part_of_at : bytes -> off:int -> len:int -> int array
val refs_to_at : bytes -> off:int -> len:int -> Hyper_core.Schema.link array
val refs_from_at : bytes -> off:int -> len:int -> Hyper_core.Schema.link array
val dyn_at : bytes -> off:int -> len:int -> (string * int) list
val text_at : bytes -> off:int -> len:int -> string
val form_at : bytes -> off:int -> len:int -> bytes

val set_hundred_at : bytes -> off:int -> len:int -> int -> unit
(** Overwrite [hundred] in place: the 4 bytes at offset 10 of the
    window.  The record keeps its length.
    @raise Invalid_argument like the readers. *)

val encoded_size : node -> int

val encode_oid_list : int list -> bytes
(** Closure result lists (the paper requires them to be storable). *)

val decode_oid_list : bytes -> int list
