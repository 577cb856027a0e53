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
  mutable data : bytes;
  mutable owned : bool;
      (* false: [data] is a zero-copy view aliasing the pager's backing
         store — read-only until [unshare] copies it (copy-on-write) *)
  mutable dirty : bool;
  mutable pins : int;
  mutable tick : int; (* last-use stamp for LRU *)
}

type t = {
  pager : Pager.t;
  cap : int;
  frames : (int, frame) Hashtbl.t;
  mutable clock : int;
  mutable on_first_dirty : int -> bytes -> unit;
  mutable on_evict_dirty : int -> bytes -> unit;
  (* pages already reported to [on_first_dirty] since the last
     [take_dirty_set] *)
  first_dirty_seen : (int, unit) Hashtbl.t;
  mutable pinned : int; (* frames with pins > 0; bounds prefetch batches *)
  stats : stats;
}

let no_hook (_ : int) (_ : bytes) = ()

let create pager ~capacity =
  if capacity < 4 then invalid_arg "Buffer_pool.create: capacity < 4";
  { pager; cap = capacity; frames = Hashtbl.create (2 * capacity); clock = 0;
    on_first_dirty = no_hook; on_evict_dirty = no_hook;
    first_dirty_seen = Hashtbl.create 64; pinned = 0;
    stats = { hits = 0; misses = 0; evictions = 0; prefetches = 0 } }

let capacity t = t.cap
let pager t = t.pager

let touch t f =
  t.clock <- t.clock + 1;
  f.tick <- t.clock

let write_back t f =
  if f.dirty then begin
    Pager.write t.pager f.page_id f.data;
    f.dirty <- false
  end

(* Evict the least-recently-used unpinned frame.  Dirty victims are
   announced through [on_evict_dirty] (WAL rule) and then written back. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ f best ->
        if f.pins > 0 then best
        else
          match best with
          | Some b when b.tick <= f.tick -> best
          | _ -> Some f)
      t.frames None
  in
  match victim with
  | None -> failwith "Buffer_pool: all frames pinned, cannot evict"
  | Some f ->
    if f.dirty then t.on_evict_dirty f.page_id f.data;
    write_back t f;
    Hashtbl.remove t.frames f.page_id;
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
    touch t f;
    f
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    Obs.Counter.incr m_misses;
    ensure_room t;
    let data, owned =
      Obs.Span.with_span "pool.miss" (fun () -> Pager.read_view t.pager page_id)
    in
    let f = { page_id; data; owned; dirty = false; pins = 0; tick = 0 } in
    touch t f;
    Hashtbl.add t.frames page_id f;
    f

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

(* The before-image is the frame content prior to the first write in the
   current txn window.  The hook receives the LIVE buffer — it must
   serialize or copy what it retains before returning, because the
   caller mutates the page next. *)
let mark_dirty t f =
  if not (Hashtbl.mem t.first_dirty_seen f.page_id) then begin
    Hashtbl.add t.first_dirty_seen f.page_id ();
    t.on_first_dirty f.page_id f.data
  end;
  unshare f;
  f.dirty <- true

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
        let f = { page_id; data; owned; dirty = false; pins = 0; tick = 0 } in
        touch t f;
        Hashtbl.add t.frames page_id f;
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
  let f =
    { page_id; data = Page.alloc (); owned = true; dirty = true; pins = 0;
      tick = 0 }
  in
  touch t f;
  Hashtbl.add t.frames page_id f;
  if not (Hashtbl.mem t.first_dirty_seen page_id) then begin
    Hashtbl.add t.first_dirty_seen page_id ();
    t.on_first_dirty page_id (Lazy.force zero_page)
  end;
  page_id

let flush_all t = Hashtbl.iter (fun _ f -> write_back t f) t.frames

let drop_all t =
  Hashtbl.iter
    (fun _ f ->
      if f.pins > 0 then invalid_arg "Buffer_pool.drop_all: page still pinned")
    t.frames;
  flush_all t;
  Hashtbl.reset t.frames;
  Hashtbl.reset t.first_dirty_seen

let discard_dirty t =
  let dirty_ids =
    Hashtbl.fold (fun id f acc -> if f.dirty then id :: acc else acc) t.frames []
  in
  List.iter (fun id -> Hashtbl.remove t.frames id) dirty_ids;
  Hashtbl.reset t.first_dirty_seen

let invalidate t page_id = Hashtbl.remove t.frames page_id

let set_txn_hooks t ~on_first_dirty ~on_evict_dirty =
  t.on_first_dirty <- on_first_dirty;
  t.on_evict_dirty <- on_evict_dirty

let clear_txn_hooks t =
  t.on_first_dirty <- no_hook;
  t.on_evict_dirty <- no_hook

(* Live buffers: a dirty frame always owns its data (COW in mark_dirty),
   so the returned bytes are the frame contents themselves, valid until
   the page is next mutated.  Callers serialize immediately (the engine
   appends After images to the WAL before returning to user code) and
   must not retain them. *)
let take_dirty_set t =
  let dirty =
    Hashtbl.fold
      (fun id f acc ->
        if f.dirty then (id, f.data) :: acc else acc)
      t.frames []
  in
  Hashtbl.reset t.first_dirty_seen;
  List.sort (fun (a, _) (b, _) -> compare a b) dirty

let stats t = t.stats

let reset_stats t =
  t.stats.hits <- 0;
  t.stats.misses <- 0;
  t.stats.evictions <- 0;
  t.stats.prefetches <- 0
