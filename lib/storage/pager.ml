type stats = { mutable reads : int; mutable writes : int; mutable allocs : int }

type backing =
  | File of { data : Vfs.file; sums : Vfs.file; mutable crcs : bytes }
      (* [crcs] is the [.sum] sidecar held in memory, slot [id] at byte
         [id * sum_width]: loaded once at [create], written through by
         [write_sum].  Its capacity grows by doubling; slots past
         [count] are zero. *)
  | Memory of { mutable pages : bytes array }
      (* capacity = Array.length pages; the pager's [count] is the used
         prefix, so growth is amortized doubling, not O(n) per alloc *)

type t = {
  backing : backing;
  mutable count : int;
  mutable on_read : int -> unit;
  mutable on_write : int -> unit;
  mutable on_read_many : (int list -> unit) option;
      (* batched-read hook; [None] falls back to [on_read] per page *)
  stats : stats;
  mutable closed : bool;
}

let no_hook (_ : int) = ()

let fresh_stats () = { reads = 0; writes = 0; allocs = 0 }

(* Each page's CRC lives in a 4-byte slot of the [.sum] sidecar.  Zero
   means "no checksum recorded" (a hole, or a pre-checksum file) and is
   accepted; a computed CRC of zero is stored as 1. *)
let sum_width = 4

let page_crc buf = match Page.checksum buf with 0 -> 1 | c -> c

let sum_path path = path ^ ".sum"

let create ?(vfs = Vfs.real) path =
  let data = vfs.Vfs.open_rw path in
  let len = data.Vfs.size () in
  let count = len / Page.size in
  (* A partial page at the tail is a torn append from a crash: the
     allocation never committed, so drop it.  WAL replay re-extends the
     file if the page is mentioned by a committed transaction. *)
  if len mod Page.size <> 0 then data.Vfs.truncate (count * Page.size);
  let sums = vfs.Vfs.open_rw (sum_path path) in
  (* Discard checksums beyond the data (stale sidecar, fresh file). *)
  if sums.Vfs.size () > count * sum_width then
    sums.Vfs.truncate (count * sum_width);
  (* A sidecar shorter than the data reads as zero slots past its end:
     holes, accepted unverified. *)
  let crcs = Bytes.make (count * sum_width) '\000' in
  if count > 0 then sums.Vfs.pread ~buf:crcs ~off:0;
  { backing = File { data; sums; crcs }; count; on_read = no_hook;
    on_write = no_hook; on_read_many = None; stats = fresh_stats ();
    closed = false }

let in_memory () =
  { backing = Memory { pages = [||] }; count = 0; on_read = no_hook;
    on_write = no_hook; on_read_many = None; stats = fresh_stats ();
    closed = false }

let check_open t = if t.closed then invalid_arg "Pager: store is closed"

let check_id t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Pager: page %d out of range (count %d)" id t.count)

let page_count t = t.count

(* Write through: the sidecar slot first, then the in-memory copy, so a
   failed write leaves the copy as the file was. *)
let write_sum sums crcs id buf =
  let sb = Bytes.create sum_width in
  Page.set_u32 sb 0 (page_crc buf);
  sums.Vfs.pwrite ~buf:sb ~off:(id * sum_width);
  Bytes.blit sb 0 crcs (id * sum_width) sum_width

let verify_sum ~data ~crcs id buf =
  let expected = Page.get_u32 crcs (id * sum_width) in
  if expected <> 0 then begin
    let actual = page_crc buf in
    if actual <> expected then
      raise
        (Storage_error.Error
           (Storage_error.Corrupt_page
              { path = data.Vfs.path; page = id; expected; actual }))
  end

let allocate t =
  check_open t;
  let id = t.count in
  t.count <- t.count + 1;
  t.stats.allocs <- t.stats.allocs + 1;
  (match t.backing with
  | File f ->
    let zero = Page.alloc () in
    f.data.Vfs.pwrite ~buf:zero ~off:(id * Page.size);
    let cap = Bytes.length f.crcs in
    if (id + 1) * sum_width > cap then begin
      let grown = Bytes.make (max (8 * sum_width) (2 * cap)) '\000' in
      Bytes.blit f.crcs 0 grown 0 cap;
      f.crcs <- grown
    end;
    write_sum f.sums f.crcs id zero
  | Memory m ->
    let cap = Array.length m.pages in
    if id >= cap then begin
      let grown = Array.make (max 8 (2 * cap)) Bytes.empty in
      Array.blit m.pages 0 grown 0 cap;
      m.pages <- grown
    end;
    m.pages.(id) <- Page.alloc ());
  id

(* A view is the page bytes plus an ownership flag.  [true] = freshly
   allocated, the caller may keep and mutate it.  [false] = the buffer
   aliases the backing store (Memory backend) — read-only, copy before
   mutating, never retain past the next [write]/[allocate]. *)
let read_view t id =
  check_open t;
  check_id t id;
  t.stats.reads <- t.stats.reads + 1;
  t.on_read id;
  match t.backing with
  | File { data; crcs; _ } ->
    let buf = Bytes.create Page.size in
    data.Vfs.pread ~buf ~off:(id * Page.size);
    verify_sum ~data ~crcs id buf;
    (buf, true)
  | Memory m -> (m.pages.(id), false)

let read t id =
  let buf, owned = read_view t id in
  if owned then buf else Bytes.copy buf

(* Vectored read: one [pread_multi] for the page contents, then
   per-page verification against the in-memory checksums.  Statistics count
   every page; the batched hook (when installed) fires once for the
   whole group — that is what lets a remote channel charge a single
   round trip for a group fetch. *)
let read_many_views t ids =
  check_open t;
  List.iter (fun id -> check_id t id) ids;
  if ids = [] then []
  else begin
    t.stats.reads <- t.stats.reads + List.length ids;
    (match t.on_read_many with
    | Some f -> f ids
    | None -> List.iter t.on_read ids);
    match t.backing with
    | File { data; crcs; _ } ->
      let bufs = List.map (fun _ -> Bytes.create Page.size) ids in
      data.Vfs.pread_multi
        (List.map2 (fun id buf -> (buf, id * Page.size)) ids bufs);
      List.iter2 (fun id buf -> verify_sum ~data ~crcs id buf) ids bufs;
      List.map (fun buf -> (buf, true)) bufs
    | Memory m -> List.map (fun id -> (m.pages.(id), false)) ids
  end

let read_many t ids =
  List.map
    (fun (buf, owned) -> if owned then buf else Bytes.copy buf)
    (read_many_views t ids)

let read_unverified t id =
  check_open t;
  check_id t id;
  match t.backing with
  | File { data; _ } ->
    let buf = Bytes.create Page.size in
    data.Vfs.pread ~buf ~off:(id * Page.size);
    buf
  | Memory m -> Bytes.copy m.pages.(id)

let write t id data_buf =
  check_open t;
  check_id t id;
  if Bytes.length data_buf <> Page.size then
    invalid_arg "Pager.write: buffer is not one page";
  t.stats.writes <- t.stats.writes + 1;
  t.on_write id;
  match t.backing with
  | File { data; sums; crcs } ->
    data.Vfs.pwrite ~buf:data_buf ~off:(id * Page.size);
    write_sum sums crcs id data_buf
  (* The copy keeps the store disjoint from the caller's buffer (a pool
     frame keeps mutating its own copy after write-back).  The previous
     store buffer is replaced, not mutated — an outstanding read view
     keeps seeing the pre-write bytes, which is why views must not be
     retained across a write. *)
  | Memory m -> m.pages.(id) <- Bytes.copy data_buf

let sync t =
  check_open t;
  match t.backing with
  | File { data; sums; _ } ->
    data.Vfs.sync ();
    sums.Vfs.sync ()
  | Memory _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with
    | File { data; sums; _ } ->
      data.Vfs.close ();
      sums.Vfs.close ()
    | Memory _ -> ()
  end

let set_hooks ?on_read_many t ~on_read ~on_write =
  t.on_read <- on_read;
  t.on_write <- on_write;
  t.on_read_many <- on_read_many

let clear_hooks t =
  t.on_read <- no_hook;
  t.on_write <- no_hook;
  t.on_read_many <- None

let stats t = t.stats

let reset_stats t =
  t.stats.reads <- 0;
  t.stats.writes <- 0;
  t.stats.allocs <- 0
