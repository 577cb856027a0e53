module Obs = Hyper_obs.Obs

let m_appends =
  Obs.Counter.make "hyper_wal_appends_total" ~help:"log entries appended"

let m_append_bytes =
  Obs.Counter.make "hyper_wal_append_bytes_total"
    ~help:"serialized entry bytes appended (header + payload + crc)"

let m_flushes =
  Obs.Counter.make "hyper_wal_flushes_total"
    ~help:"buffered batches issued to the VFS"

let m_syncs =
  Obs.Counter.make "hyper_wal_syncs_total" ~help:"WAL durability barriers"

let h_flush_bytes =
  Obs.Histogram.make "hyper_wal_flush_bytes"
    ~help:"bytes per flushed batch (fsync batching efficacy)"

let g_size =
  Obs.Gauge.make "hyper_wal_size_bytes"
    ~help:"bytes issued to the log file since the last truncate"

type range = int * bytes

type entry =
  | Begin of int
  | Before of int * int * range list
  | After of int * int * range list
  | Commit of int
  | Checkpoint

type t = {
  path : string;
  file : Vfs.file;
  buf : Buffer.t; (* appended entries not yet issued to the vfs *)
  mutable issued : int; (* bytes already written to the file *)
  mutable next_lsn : int; (* sequence number of the next appended entry *)
  mutable syncs : int; (* durability barriers since open (not Obs-gated) *)
  mutable on_append : (int -> entry -> bytes -> unit) option; (* stream cursor *)
}

(* Every earlier record format used a magic in [first_entry_magic ..
   entry_magic - 1]: 0xA7 had a weak rolling-hash trailer, 0xA8 carried
   whole-page images, 0xA9 had its own 14-byte header.  See
   [check_format]. *)
let entry_magic = 0xAA
let first_entry_magic = 0xA7

(* --- byte ranges --- *)

(* A range is [u16 offset][u16 length][bytes]; merging two spans costs
   the equal bytes between them, a separate range costs this header. *)
let range_header = 4

(* Spans where [cur] differs from [old], as (offset, length), in page
   order.  Spans separated by at most [range_header] equal bytes are
   merged: the merged range is never longer than the two apart.  Equal
   stretches are skipped eight bytes at a time. *)
let diff old cur =
  let n = Bytes.length cur in
  if Bytes.length old <> n then invalid_arg "Wal.diff: length mismatch";
  let spans = ref [] in
  let i = ref 0 in
  while !i < n do
    if !i + 8 <= n
       && (Bytes.get_int64_ne old !i : int64) = Bytes.get_int64_ne cur !i
    then i := !i + 8
    else if Bytes.unsafe_get old !i = Bytes.unsafe_get cur !i then incr i
    else begin
      let start = !i in
      let last = ref start in
      incr i;
      while !i < n && !i - !last <= range_header do
        if Bytes.unsafe_get old !i <> Bytes.unsafe_get cur !i then last := !i;
        incr i
      done;
      spans := (start, !last - start + 1) :: !spans
    end
  done;
  List.rev !spans

let ranges src spans =
  List.map (fun (off, len) -> (off, Bytes.sub src off len)) spans

let patch page rs =
  List.iter (fun (off, b) -> Bytes.blit b 0 page off (Bytes.length b)) rs

let payload_length rs =
  List.fold_left (fun acc (_, b) -> acc + range_header + Bytes.length b) 0 rs

(* The ranges at [data.(pos .. stop - 1)], or [None] when they do not
   tile it exactly or leave the page. *)
let decode_ranges data pos stop =
  let rec go p acc =
    if p = stop then Some (List.rev acc)
    else if p + range_header > stop then None
    else
      let off = Page.get_u16 data p and rlen = Page.get_u16 data (p + 2) in
      let body = p + range_header in
      if body + rlen > stop || off + rlen > Page.size then None
      else go (body + rlen) ((off, Bytes.sub data body rlen) :: acc)
  in
  go pos []

(* Replication ships records verbatim, so a shipped frame carries the
   same per-record CRC the log file does. *)
let write_body e b off =
  match e with
  | Checkpoint -> ()
  | Begin t | Commit t -> Page.set_u32 b off t
  | Before (t, p, rs) | After (t, p, rs) ->
    Page.set_u32 b off t;
    Page.set_u32 b (off + 4) p;
    ignore
      (List.fold_left
         (fun pos (roff, r) ->
           let rlen = Bytes.length r in
           if roff < 0 || roff + rlen > Page.size then
             invalid_arg "Wal.encode_entry: range outside the page";
           Page.set_u16 b pos roff;
           Page.set_u16 b (pos + 2) rlen;
           Bytes.blit r 0 b (pos + range_header) rlen;
           pos + range_header + rlen)
         (off + 8) rs)

let encode_entry e =
  let kind, len =
    match e with
    | Begin _ -> (1, 4)
    | Before (_, _, rs) -> (2, 8 + payload_length rs)
    | After (_, _, rs) -> (3, 8 + payload_length rs)
    | Commit _ -> (4, 4)
    | Checkpoint -> (5, 0)
  in
  Frame_codec.write ~magic:entry_magic ~kind ~len write_body e

let entry_of data ~kind ~body ~len ~stop =
  let with_ranges k =
    Option.map
      (k (Page.get_u32 data body) (Page.get_u32 data (body + 4)))
      (decode_ranges data (body + 8) stop)
  in
  match kind with
  | 1 when len = 4 -> Some (Begin (Page.get_u32 data body))
  | 2 when len >= 8 -> with_ranges (fun t p rs -> Before (t, p, rs))
  | 3 when len >= 8 -> with_ranges (fun t p rs -> After (t, p, rs))
  | 4 when len = 4 -> Some (Commit (Page.get_u32 data body))
  | 5 when len = 0 -> Some Checkpoint
  | _ -> None

(* Decode the clean prefix of [data.(0 .. len)]: entries plus the byte
   offset where decoding stopped, at the first short or bad frame;
   [pos < len] means a torn or garbled tail. *)
let decode_prefix data len =
  let rec go pos acc =
    match
      Frame_codec.check ~magic:entry_magic ~kinds:(fun k -> k >= 1 && k <= 5)
        ~max:max_int data ~off:pos ~len:(len - pos)
    with
    | Frame_codec.Frame { kind; body; len = blen; stop } -> (
      match entry_of data ~kind ~body ~len:blen ~stop with
      | Some e -> go stop (e :: acc)
      | None -> (List.rev acc, pos))
    | Frame_codec.Short | Frame_codec.Bad _ -> (List.rev acc, pos)
  in
  go 0 []

let decode_entries b =
  let entries, pos = decode_prefix b (Bytes.length b) in
  (entries, pos < Bytes.length b)

(* A log written in an earlier record format is refused, not read as a
   torn tail: truncating it would drop committed transactions whose
   forced pages never reached the data file.  Only the first record is
   checked — a torn tail always starts with the current magic. *)
let check_format path data len =
  if len > 0 then begin
    let found = Page.get_u8 data 0 in
    if found >= first_entry_magic && found < entry_magic then
      raise
        (Storage_error.Error
           (Storage_error.Unsupported_format
              { path; found; expected = entry_magic }))
  end

(* A torn final record — a crash mid-append — must be truncated away at
   open: appending past it would bury live records behind garbage that
   every subsequent read stops at.  This is load-bearing for replication
   (a replica's received log is reopened after a replica crash and then
   appended to), and harmless for the engine (which truncates the log
   right after recovery anyway). *)
let open_ ?(vfs = Vfs.real) path =
  let file = vfs.Vfs.open_rw path in
  let len = file.Vfs.size () in
  let clean =
    if len = 0 then 0
    else begin
      let data = Bytes.create len in
      file.Vfs.pread ~buf:data ~off:0;
      (try check_format path data len
       with Storage_error.Error _ as e ->
         file.Vfs.close ();
         raise e);
      let _, pos = decode_prefix data len in
      pos
    end
  in
  if clean < len then file.Vfs.truncate clean;
  { path; file; buf = Buffer.create 4096; issued = clean; next_lsn = 0;
    syncs = 0; on_append = None }

let lsn t = t.next_lsn
let set_on_append t hook = t.on_append <- hook

let append t e =
  let record = encode_entry e in
  Buffer.add_bytes t.buf record;
  Obs.Counter.incr m_appends;
  Obs.Counter.add m_append_bytes (Bytes.length record);
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  match t.on_append with None -> () | Some f -> f lsn e record

(* Issue the buffered suffix to the vfs.  This is the point where WAL
   bytes enter the (possibly simulated) OS — write-ahead ordering is
   established by flushing before the corresponding page writes. *)
let flush t =
  if Buffer.length t.buf > 0 then begin
    let b = Buffer.to_bytes t.buf in
    t.file.Vfs.pwrite ~buf:b ~off:t.issued;
    t.issued <- t.issued + Bytes.length b;
    Buffer.clear t.buf;
    Obs.Counter.incr m_flushes;
    Obs.Histogram.observe h_flush_bytes (float_of_int (Bytes.length b));
    Obs.Gauge.set g_size (float_of_int t.issued)
  end

let sync t =
  flush t;
  t.syncs <- t.syncs + 1;
  Obs.Counter.incr m_syncs;
  t.file.Vfs.sync ()

(* Durability barrier only, no buffer access: the group-commit leader
   fsyncs on behalf of committers that each flushed their own bytes
   before registering, so this must not touch [t.buf] (another thread
   may be appending its next transaction concurrently). *)
let sync_file t =
  t.syncs <- t.syncs + 1;
  Obs.Counter.incr m_syncs;
  t.file.Vfs.sync ()

let sync_count t = t.syncs

let truncate t =
  Buffer.clear t.buf;
  t.file.Vfs.truncate 0;
  t.issued <- 0

let size_bytes t = t.issued + Buffer.length t.buf

let close t =
  (* Try to issue what is buffered, but never let a full disk turn close
     into a crash loop; simulated power failures still propagate. *)
  (try flush t with Storage_error.Error _ -> Buffer.clear t.buf);
  t.file.Vfs.close ()

type scan_result = { entries : entry list; clean_bytes : int; torn : bool }

let scan ?(vfs = Vfs.real) path =
  if not (vfs.Vfs.exists path) then
    { entries = []; clean_bytes = 0; torn = false }
  else begin
    let file = vfs.Vfs.open_rw path in
    let len = file.Vfs.size () in
    let data = Bytes.create len in
    if len > 0 then file.Vfs.pread ~buf:data ~off:0;
    file.Vfs.close ();
    check_format path data len;
    let entries, pos = decode_prefix data len in
    { entries; clean_bytes = pos; torn = pos < len }
  end

let read_all ?(vfs = Vfs.real) path = (scan ~vfs path).entries

let entry_to_string =
  let spans rs =
    String.concat ""
      (List.map (fun (off, b) -> Printf.sprintf " %d+%d" off (Bytes.length b)) rs)
  in
  function
  | Begin t -> Printf.sprintf "begin(%d)" t
  | Before (t, p, rs) -> Printf.sprintf "before(%d, page %d:%s)" t p (spans rs)
  | After (t, p, rs) -> Printf.sprintf "after(%d, page %d:%s)" t p (spans rs)
  | Commit t -> Printf.sprintf "commit(%d)" t
  | Checkpoint -> "checkpoint"
