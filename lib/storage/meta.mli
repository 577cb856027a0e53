(** The master page (page 0): a tiny persistent string → int64 map.

    Backends keep their root pointers here — heap heads, B+tree roots, the
    object-table directory, the free-list head, and scalar counters.  The
    map must fit in one page. *)

val magic : string

val format : Buffer_pool.t -> unit
(** Initialise page 0 of a brand-new store (page 0 must already be
    allocated). *)

val is_formatted : Buffer_pool.t -> bool
(** Whether page 0 carries a valid, checksum-verified meta signature.
    Formatting is not WAL-covered, so a corrupt page 0 (a crash tore a
    formatting write) counts as unformatted — every post-format write to
    page 0 is WAL-covered, hence already repaired by recovery. *)

val conceal_magic : Buffer_pool.t -> unit
val stamp_magic : Buffer_pool.t -> unit
(** Two-phase formatting barrier: blank / restore the magic in the
    pooled page 0.  The formatter flushes and syncs the whole store with
    the magic concealed, then stamps and flushes page 0 alone, making
    the magic's arrival on disk the atomic commit point of formatting. *)

val load : Buffer_pool.t -> (string * int64) list
(** @raise Invalid_argument when page 0 has no valid meta signature. *)

val store : Buffer_pool.t -> (string * int64) list -> unit
(** Replace the whole map.  When page 0 already holds exactly [kvs] it
    is not dirtied, so a commit that changed no root neither logs nor
    writes it.  @raise Invalid_argument when it does not fit in one page
    or a key is longer than 255 bytes. *)

val get : Buffer_pool.t -> string -> int64 option
val get_exn : Buffer_pool.t -> string -> int64
val set : Buffer_pool.t -> string -> int64 -> unit
(** Read-modify-write of a single key. *)
