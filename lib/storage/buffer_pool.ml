module Obs = Hyper_obs.Obs

(* Process-wide mirrors of the per-pool [stats] record, so a bench run
   over several pools still reports one coherent metric family. *)
let m_hits = Obs.Counter.make "hyper_pool_hits_total" ~help:"buffer-pool hits"

let m_misses =
  Obs.Counter.make "hyper_pool_misses_total" ~help:"buffer-pool demand misses"

let m_evictions =
  Obs.Counter.make "hyper_pool_evictions_total" ~help:"frames evicted"

let m_prefetches =
  Obs.Counter.make "hyper_pool_prefetches_total"
    ~help:"pages brought in by prefetch batches"

let m_pins =
  Obs.Counter.make "hyper_pool_pins_total" ~help:"pin calls (pin churn)"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable prefetches : int; (* pages brought in by [prefetch] batches *)
}

type frame = {
  page_id : int;
  slot : int; (* index in [ring] *)
  mutable data : bytes;
  mutable owned : bool;
      (* false: [data] is a zero-copy view aliasing the pager's backing
         store — read-only until [unshare] copies it (copy-on-write) *)
  mutable dirty : bool;
  mutable pins : int;
  mutable referenced : bool; (* CLOCK reference bit *)
}

(* Replacement is CLOCK: [ring] holds the resident frames by slot, and
   the hand sweeps it, clearing reference bits, until it meets an
   unpinned frame whose bit is already clear.  Every access sets the
   bit, so a victim costs amortized O(1) instead of a scan of all
   frames.  [frames] maps a page to its frame (and so to its slot);
   slots not in use are [empty] and listed on the [free] stack. *)
type t = {
  pager : Pager.t;
  cap : int;
  frames : (int, frame) Hashtbl.t;
  ring : frame array;
  free : int array; (* stack of unused slots, [free.(0 .. nfree - 1)] *)
  mutable nfree : int;
  mutable hand : int;
  mutable on_first_dirty : int -> bytes -> unit;
  mutable on_evict_dirty : int -> bytes -> unit;
  (* the resident frames with [dirty] set, so commit-time walks cost
     the pages written, not the pages cached *)
  dirty_set : (int, frame) Hashtbl.t;
  mutable pinned : int; (* frames with pins > 0; bounds prefetch batches *)
  stats : stats;
}

let no_hook (_ : int) (_ : bytes) = ()

let empty =
  { page_id = -1; slot = -1; data = Bytes.empty; owned = false;
    dirty = false; pins = 0; referenced = false }

(* Every slot empty and free, slot 0 on top; the hand at slot 0. *)
let clear_ring t =
  Array.fill t.ring 0 t.cap empty;
  for i = 0 to t.cap - 1 do
    t.free.(i) <- t.cap - 1 - i
  done;
  t.nfree <- t.cap;
  t.hand <- 0

let create pager ~capacity =
  if capacity < 4 then invalid_arg "Buffer_pool.create: capacity < 4";
  let t =
    { pager; cap = capacity; frames = Hashtbl.create (2 * capacity);
      ring = Array.make capacity empty; free = Array.make capacity 0;
      nfree = 0; hand = 0;
      on_first_dirty = no_hook; on_evict_dirty = no_hook;
      dirty_set = Hashtbl.create 64; pinned = 0;
      stats = { hits = 0; misses = 0; evictions = 0; prefetches = 0 } }
  in
  clear_ring t;
  t

let capacity t = t.cap
let pager t = t.pager

(* Make [page_id] resident in a free slot (the caller made room). *)
let install t page_id ~data ~owned ~dirty =
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  let f = { page_id; slot; data; owned; dirty; pins = 0; referenced = true } in
  t.ring.(slot) <- f;
  Hashtbl.add t.frames page_id f;
  if dirty then Hashtbl.replace t.dirty_set page_id f;
  f

let release t f =
  if f.dirty then Hashtbl.remove t.dirty_set f.page_id;
  Hashtbl.remove t.frames f.page_id;
  t.ring.(f.slot) <- empty;
  t.free.(t.nfree) <- f.slot;
  t.nfree <- t.nfree + 1

let write_back t f =
  if f.dirty then begin
    Pager.write t.pager f.page_id f.data;
    f.dirty <- false;
    Hashtbl.remove t.dirty_set f.page_id
  end

(* Evict the unpinned frame the CLOCK hand stops at.  Dirty victims are
   announced through [on_evict_dirty] (WAL rule) and then written back.
   With an unpinned frame resident the sweep stops within two turns:
   the first clears every bit it passes. *)
let evict_one t =
  let rec sweep steps =
    if steps = 0 then failwith "Buffer_pool: all frames pinned, cannot evict";
    let f = t.ring.(t.hand) in
    t.hand <- (if t.hand + 1 = t.cap then 0 else t.hand + 1);
    if f == empty || f.pins > 0 then sweep (steps - 1)
    else if f.referenced then begin
      f.referenced <- false;
      sweep (steps - 1)
    end
    else f
  in
  let f = sweep (2 * t.cap) in
  if f.dirty then t.on_evict_dirty f.page_id f.data;
  write_back t f;
  release t f;
  t.stats.evictions <- t.stats.evictions + 1;
  Obs.Counter.incr m_evictions

let ensure_room t =
  while Hashtbl.length t.frames >= t.cap do
    evict_one t
  done

let load t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some f ->
    t.stats.hits <- t.stats.hits + 1;
    Obs.Counter.incr m_hits;
    f.referenced <- true;
    f
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Obs.Counter.incr m_misses;
    ensure_room t;
    let data, owned =
      Obs.Span.with_span "pool.miss" (fun () -> Pager.read_view t.pager page_id)
    in
    install t page_id ~data ~owned ~dirty:false

let pin t f =
  Obs.Counter.incr m_pins;
  if f.pins = 0 then t.pinned <- t.pinned + 1;
  f.pins <- f.pins + 1

let unpin t f =
  f.pins <- f.pins - 1;
  if f.pins = 0 then t.pinned <- t.pinned - 1

let with_pinned t page_id k =
  let f = load t page_id in
  pin t f;
  Fun.protect ~finally:(fun () -> unpin t f) (fun () -> k f)

let with_page t page_id k = with_pinned t page_id (fun f -> k f.data)

(* Copy-on-write: give the frame its own buffer before the first
   mutation, so a zero-copy view never writes through to the pager's
   backing store. *)
let unshare f =
  if not f.owned then begin
    f.data <- Bytes.copy f.data;
    f.owned <- true
  end

(* A clean frame holds what the data file holds, so its content when it
   is first dirtied is the before-image.  The hook receives the LIVE
   buffer — it must copy what it retains before returning, because the
   caller mutates the page next. *)
let mark_dirty t f =
  if not f.dirty then begin
    t.on_first_dirty f.page_id f.data;
    unshare f;
    f.dirty <- true;
    Hashtbl.replace t.dirty_set f.page_id f
  end

let with_page_w t page_id k =
  with_pinned t page_id (fun f ->
      mark_dirty t f;
      k f.data)

(* Batch prefetch: bring the missing pages of [page_ids] into the pool
   with one [Pager.read_many].  This is a hint, not a contract —
   already-resident ids are skipped, duplicates collapse, and the batch
   is capped at the number of unpinned slots so making room can never
   require evicting a pinned frame (ids past the cap are dropped; the
   later demand read pays for them one page at a time).  Fetched pages
   count as [prefetches], not [misses]. *)
let prefetch t page_ids =
  let seen = Hashtbl.create 16 in
  let missing =
    List.filter
      (fun id ->
        let fresh =
          (not (Hashtbl.mem t.frames id)) && not (Hashtbl.mem seen id)
        in
        if fresh then Hashtbl.add seen id ();
        fresh)
      page_ids
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let batch = take (t.cap - t.pinned) missing in
  if batch <> [] then begin
    let want = List.length batch in
    (* Terminates before evict_one can run out of unpinned victims:
       after (frames - pinned) evictions frames = pinned, and
       pinned + want <= cap by the cap above. *)
    while Hashtbl.length t.frames + want > t.cap do
      evict_one t
    done;
    let pages =
      Obs.Span.with_span "pool.prefetch" (fun () ->
          Pager.read_many_views t.pager batch)
    in
    Obs.Counter.add m_prefetches want;
    List.iter2
      (fun page_id (data, owned) ->
        ignore (install t page_id ~data ~owned ~dirty:false : frame);
        t.stats.prefetches <- t.stats.prefetches + 1)
      batch pages
  end

(* Pin a whole group for the duration of [k].  The prefetch fills every
   missing frame with one pager batch; the per-page [load]s below then
   hit the pool.  More distinct ids than the pool capacity cannot all be
   pinned and eventually fails in [evict_one]. *)
let with_pages t page_ids k =
  prefetch t page_ids;
  let pinned = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> unpin t f) !pinned)
    (fun () ->
      let frames =
        List.map
          (fun id ->
            let f = load t id in
            pin t f;
            pinned := f :: !pinned;
            f)
          page_ids
      in
      k (List.map (fun f -> f.data) frames))

(* The before-image of any freshly allocated page is all zeroes; one
   shared buffer serves every allocation (read-only by the hook
   contract — the hook copies what it retains). *)
let zero_page = lazy (Page.alloc ())

let allocate t =
  let page_id = Pager.allocate t.pager in
  ensure_room t;
  t.on_first_dirty page_id (Lazy.force zero_page);
  ignore (install t page_id ~data:(Page.alloc ()) ~owned:true ~dirty:true
          : frame);
  page_id

(* The dirty frames in page order (a deterministic write order). *)
let dirty_frames t =
  List.sort
    (fun a b -> compare a.page_id b.page_id)
    (Hashtbl.fold (fun _ f acc -> f :: acc) t.dirty_set [])

let flush_all t = List.iter (write_back t) (dirty_frames t)

let drop_all t =
  Hashtbl.iter
    (fun _ f ->
      if f.pins > 0 then invalid_arg "Buffer_pool.drop_all: page still pinned")
    t.frames;
  flush_all t;
  Hashtbl.reset t.frames;
  clear_ring t

let discard_dirty t = List.iter (release t) (dirty_frames t)

let invalidate t page_id =
  match Hashtbl.find_opt t.frames page_id with
  | Some f -> release t f
  | None -> ()

let set_txn_hooks t ~on_first_dirty ~on_evict_dirty =
  t.on_first_dirty <- on_first_dirty;
  t.on_evict_dirty <- on_evict_dirty

let clear_txn_hooks t =
  t.on_first_dirty <- no_hook;
  t.on_evict_dirty <- no_hook

(* Live buffers: a dirty frame always owns its data (COW in mark_dirty),
   so the returned bytes are the frame contents themselves, valid until
   the page is next mutated.  Callers serialize immediately (the engine
   appends After ranges to the WAL before returning to user code) and
   must not retain them. *)
let take_dirty_set t = List.map (fun f -> (f.page_id, f.data)) (dirty_frames t)

let stats t = t.stats

let reset_stats t =
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.evictions <- 0;
  t.stats.prefetches <- 0
