(** CLOCK buffer pool between the access methods and the {!Pager}.

    The pool holds a bounded number of page frames.  Replacement is
    CLOCK (second chance): every access sets a frame's reference bit,
    and a hand sweeping the frame array evicts the first unpinned frame
    whose bit is already clear, clearing bits as it passes, so choosing
    a victim costs amortized constant time.  Access is scoped —
    [with_page] pins the frame for the duration of the callback so nested
    accesses cannot evict it.  Dirty frames are written back on eviction
    (a "steal" policy) and on [flush_all].

    The pool keeps a table of its dirty frames, so {!take_dirty_set},
    {!flush_all} and {!discard_dirty} cost the pages written, not the
    pages cached.

    Transactional hooks: [on_first_dirty] fires with the page's clean
    before-image whenever a clean frame is dirtied (or a page is
    allocated); the disk backend keeps the first one per transaction as
    the base its commit-time WAL records are diffed against.
    [on_evict_dirty] fires just before a dirty page is stolen so its
    changes can be logged first (write-ahead rule).

    The buffer pool is the lever behind the benchmark's cold/warm
    distinction: [drop_all] empties the cache, which is what "close the
    database" means for an operation sequence (paper §6(e)). *)

type t

val create : Pager.t -> capacity:int -> t
(** @raise Invalid_argument if [capacity < 4]. *)

val capacity : t -> int
val pager : t -> Pager.t

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** Read access to a page.  The callback must not retain the buffer. *)

val with_page_w : t -> int -> (bytes -> 'a) -> 'a
(** Write access; marks the frame dirty. *)

val prefetch : t -> int list -> unit
(** [prefetch t page_ids] brings the not-yet-resident pages of
    [page_ids] into the pool with a single {!Pager.read_many} (one
    round trip on a remote channel, instead of one per page).  A pure
    hint: resident ids and duplicates are skipped, the batch is capped
    at the number of unpinned slots — a prefetch {e never} evicts a
    pinned frame — and ids beyond the cap are dropped, to be demand
    -read later.  Pages fetched this way count in the [prefetches]
    statistic rather than as misses; the demand access that follows is
    then a hit. *)

val with_pages : t -> int list -> (bytes list -> 'a) -> 'a
(** [with_pages t page_ids k] pins all of [page_ids] (missing frames
    are fetched as one {!prefetch} batch) and runs [k] on their buffers,
    in the order given.  The callback must not retain the buffers.
    Fails like {!prefetch}/[with_page] would if more distinct pages than
    the pool capacity are requested. *)

val allocate : t -> int
(** Allocate a fresh page through the pager and cache it (dirty). *)

val flush_all : t -> unit
(** Write every dirty frame back, in page order; frames stay cached. *)

val drop_all : t -> unit
(** Flush, then empty the cache entirely (cold-run reset).
    @raise Invalid_argument if any page is still pinned. *)

val discard_dirty : t -> unit
(** Drop dirty frames *without* writing them back (transaction abort in
    a no-steal window).  Clean frames stay cached. *)

val invalidate : t -> int -> unit
(** Forget any cached copy of one page (without writing it back). *)

val set_txn_hooks :
  t ->
  on_first_dirty:(int -> bytes -> unit) ->
  on_evict_dirty:(int -> bytes -> unit) ->
  unit
(** Both hooks receive {e live} page buffers: [on_first_dirty] the
    page's clean before-image (mutated by the caller as soon as the
    hook returns), [on_evict_dirty] the dirty image about to be
    written back.  A hook must serialize or copy what it retains before
    returning — appending to the WAL counts as serializing. *)

val clear_txn_hooks : t -> unit

val take_dirty_set : t -> (int * bytes) list
(** Current dirty pages and contents in page order (the images a commit
    diffs and logs).  Frames remain cached and dirty until flushed, so a
    further write to one of them does not fire [on_first_dirty].

    The buffers are the live frame contents (dirty frames always own
    their buffer), valid until the page is next mutated: serialize them
    before returning control to code that can write pages, and do not
    retain them. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable prefetches : int;
      (** pages brought in by {!prefetch} batches (not counted as
          misses; the subsequent demand access is a hit) *)
}

val stats : t -> stats
val reset_stats : t -> unit
