(** Heap files: unordered record storage with stable record ids.

    A heap file is a chain of slotted pages.  Records larger than a page
    spill into a chain of overflow pages; the slot then holds a small
    stub.  Record ids ([rid]) encode (page, slot) and remain valid until
    the record is deleted; an update that no longer fits in place returns
    a fresh rid (the object table provides the stable indirection above
    this).

    Clustering: [insert ~near] tries to place the record in the same page
    as an existing record.  The HyperModel generator uses this to cluster
    children next to parents along the 1-N aggregation hierarchy — the
    ablation the paper explicitly calls for (§5.2). *)

type t

type rid = int

val rid_page : rid -> int
val rid_slot : rid -> int
val rid_make : page:int -> slot:int -> rid

val fresh : Buffer_pool.t -> Freelist.t -> t
(** Create a new heap with one empty page. *)

val attach : Buffer_pool.t -> Freelist.t -> head:int -> t
(** Re-open an existing heap given its first page id. *)

val first_page : t -> int

val insert : ?near:rid -> t -> bytes -> rid

val read : t -> rid -> bytes
(** A fresh copy of the record contents.
    @raise Invalid_argument on a dangling rid. *)

val read_with : t -> rid -> (bytes -> off:int -> len:int -> 'a) -> 'a
(** Zero-copy read: [k buf ~off ~len] receives the record as a range of
    [buf].  For an inline record [buf] is the pinned page buffer itself
    — valid only for the duration of [k], which must not retain it nor
    write to the heap.  For a record that spilled into overflow pages,
    [buf] is a freshly assembled buffer ([off = 0]).  Decoding in place
    through this avoids the per-record extraction copy of {!read}.
    @raise Invalid_argument on a dangling rid. *)

val read_field : t -> rid -> (bytes -> off:int -> len:int -> 'a) -> 'a
(** {!read_with} for readers of one field.  An inline record is read
    the same way.  An overflow record is first handed to [k] as its
    first chunk alone, in place in the pinned first overflow page — a
    prefix of the record.  If [k] raises [Invalid_argument] on that
    prefix (the field runs past it), the chain is assembled and [k] runs
    again on the whole record.  [k] must therefore have no effect
    before it raises. *)

val patch_with : t -> rid -> (bytes -> off:int -> len:int -> 'a) -> 'a
(** In-place write: [k buf ~off ~len] gets the record's window pinned
    for write (the page is marked dirty, so the transaction's undo and
    redo cover it like any page write).  For an inline record that is
    the whole record in its slotted page; for an overflow record it is
    the first chunk in the first overflow page.  [k] may change bytes
    inside the window only, so the record keeps its length and its
    rid.  The same retention rules as {!read_with} apply. *)

val update : t -> rid -> bytes -> rid
(** Update in place when possible; otherwise relocate and return the new
    rid (the old rid becomes invalid). *)

val delete : t -> rid -> unit

val prefetch_records : t -> rid list -> unit
(** Bring the pages backing [rids] into the buffer pool in batched
    fetches: one {!Buffer_pool.prefetch} for the slotted pages, then —
    for records that spilled into overflow chains — one batch per chain
    {e wave} (all first overflow pages across the batch, then all second
    pages, ...).  On a remote channel a batch of K scattered records
    thus costs a handful of round trips instead of one per page.  The
    rids must be live, like for {!read}; duplicate and co-located rids
    collapse into the resident set naturally. *)

val iter : t -> (rid -> bytes -> unit) -> unit
(** Visit every record in page-chain order (physical order — relevant to
    sequential-scan behaviour). *)

val iter_rids : t -> (rid -> unit) -> unit
(** Like {!iter} but yields only the rids, without decoding records or
    touching overflow chains — an O(chain pages) scan used to rebuild
    rid indexes cheaply. *)

val record_count : t -> int
val page_count : t -> int

val iter_pages : t -> (int -> unit) -> unit
(** Visit every page this heap owns: its chain pages and the overflow
    pages of large records.  Used by the garbage collector to mark
    reachable pages. *)
