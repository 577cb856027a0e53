(** Fixed-size database pages and primitive field accessors.

    Every on-disk structure (slotted heap pages, B+tree nodes, the object
    table, overflow chains) is laid out inside a {!size}-byte page.  This
    module provides the little-endian field accessors those layouts are
    built from; bounds errors raise [Invalid_argument] via the underlying
    [Bytes] primitives. *)

val size : int
(** Page size in bytes (4096). *)

val alloc : unit -> bytes
(** A zeroed page buffer. *)

val get_u8 : bytes -> int -> int
val set_u8 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val set_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
(** 32-bit unsigned read (as a non-negative [int]). *)

val set_u32 : bytes -> int -> int -> unit
val get_i64 : bytes -> int -> int64
val set_i64 : bytes -> int -> int64 -> unit

val get_sub : bytes -> pos:int -> len:int -> bytes
val set_sub : bytes -> pos:int -> bytes -> unit

val checksum : bytes -> int
(** CRC-32 (IEEE) of a buffer.  This is the system's only checksum: the
    page-image CRC {!Pager} stores in the [.sum] sidecar and verifies on
    every read, and the CRC of every {!Frame_codec} frame: WAL records,
    replication and wire messages.  The result is in [0 .. 0xFFFFFFFF].

    The kernel is C.  On an x86-64 CPU with PCLMULQDQ it folds 64 bytes
    per step with carry-less multiplication; everywhere else, and for
    slices shorter than 64 bytes, it is table-driven slicing-by-8.  The
    path is picked once, when the program starts; both return the same
    values, so checksums written on one host verify on any other. *)

val checksum_update : int -> bytes -> pos:int -> len:int -> int
(** [checksum_update crc b ~pos ~len] extends [crc], the CRC-32 of some
    prefix, over [b.[pos .. pos + len - 1]] in place, without copying
    the slice.  [checksum_update 0 b ~pos ~len] is the CRC of the slice
    alone, and [checksum_update (checksum x) y ~pos:0 ~len:(Bytes.length
    y)] equals [checksum (Bytes.cat x y)].
    Does not allocate.
    @raise Invalid_argument if the range is outside [b]. *)

(** Entry points for tests only. *)
module For_testing : sig
  val hardware_crc : bool
  (** Whether {!checksum_update} uses the PCLMULQDQ path on this host
      (for slices of 64 bytes or more). *)

  val checksum_update_portable : int -> bytes -> pos:int -> len:int -> int
  (** {!checksum_update} forced onto the portable slicing-by-8 path, so
      a test can check that path on a host where the dispatch picks the
      hardware one. *)
end

(** Page-type tags stored in byte 0 of structured pages.  A freshly
    allocated (zeroed) page reads as [Free]. *)
type ptype = Free | Meta | Heap | Overflow | Btree_leaf | Btree_internal | Obj_table

val get_type : bytes -> ptype
val set_type : bytes -> ptype -> unit
val type_to_string : ptype -> string
