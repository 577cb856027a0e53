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

type entry =
  | Begin of int
  | Before of int * int * bytes
  | After of int * int * bytes
  | Commit of int
  | Checkpoint

type t = {
  path : string;
  file : Vfs.file;
  buf : Buffer.t; (* appended entries not yet issued to the vfs *)
  mutable issued : int; (* bytes already written to the file *)
  mutable next_lsn : int; (* sequence number of the next appended entry *)
  mutable syncs : int; (* durability barriers since open (not Obs-gated) *)
  mutable on_append : (int -> entry -> unit) option; (* stream cursor *)
}

(* 0xA7 marked the previous record format, whose trailer was a weak
   rolling hash; see [check_format]. *)
let entry_magic = 0xA8
let legacy_entry_magic = 0xA7

let kind_of = function
  | Begin _ -> 1
  | Before _ -> 2
  | After _ -> 3
  | Commit _ -> 4
  | Checkpoint -> 5

let payload_of = function
  | Begin _ | Commit _ | Checkpoint -> Bytes.empty
  | Before (_, _, img) | After (_, _, img) -> img

let ids_of = function
  | Begin t -> (t, 0)
  | Commit t -> (t, 0)
  | Checkpoint -> (0, 0)
  | Before (t, p, _) -> (t, p)
  | After (t, p, _) -> (t, p)

let header_bytes = 14

let encode_header e plen =
  let txn, page = ids_of e in
  let b = Bytes.create header_bytes in
  Page.set_u8 b 0 entry_magic;
  Page.set_u8 b 1 (kind_of e);
  Page.set_u32 b 2 txn;
  Page.set_u32 b 6 page;
  Page.set_u32 b 10 plen;
  b

(* The record CRC: one CRC-32 over header then payload, computed in
   place over the two buffers. *)
let record_crc hdr payload =
  Page.checksum_update (Page.checksum hdr) payload ~pos:0
    ~len:(Bytes.length payload)

(* The exact on-disk (and on-wire) representation of one record:
   header, payload, record CRC.  Replication ships these bytes verbatim,
   so a shipped frame carries the same per-record checksum the log file
   does. *)
let encode_entry e =
  let payload = payload_of e in
  let plen = Bytes.length payload in
  let hdr = encode_header e plen in
  let b = Bytes.create (header_bytes + plen + 4) in
  Bytes.blit hdr 0 b 0 header_bytes;
  Bytes.blit payload 0 b header_bytes plen;
  Page.set_u32 b (header_bytes + plen) (record_crc hdr payload);
  b

(* Decode the clean prefix of [data.(0 .. len)]: entries plus the byte
   offset where decoding stopped; [pos < len] means a torn or garbled
   tail. *)
let decode_prefix data len =
  let entries = ref [] in
  let pos = ref 0 in
  let ok = ref true in
  while !ok && !pos + header_bytes + 4 <= len do
    let hdr = !pos in
    if Page.get_u8 data hdr <> entry_magic then ok := false
    else begin
      let kind = Page.get_u8 data (hdr + 1) in
      let txn = Page.get_u32 data (hdr + 2) in
      let page = Page.get_u32 data (hdr + 6) in
      let plen = Page.get_u32 data (hdr + 10) in
      let body = header_bytes + plen in
      if hdr + body + 4 > len then ok := false
      else if
        Page.get_u32 data (hdr + body)
        <> Page.checksum_update 0 data ~pos:hdr ~len:body
      then ok := false
      else
        let payload () = Bytes.sub data (hdr + header_bytes) plen in
        let entry =
          match kind with
          | 1 -> Some (Begin txn)
          | 2 -> Some (Before (txn, page, payload ()))
          | 3 -> Some (After (txn, page, payload ()))
          | 4 -> Some (Commit txn)
          | 5 -> Some Checkpoint
          | _ -> None
        in
        match entry with
        | Some e ->
          entries := e :: !entries;
          pos := hdr + body + 4
        | None -> ok := false
    end
  done;
  (List.rev !entries, !pos)

let decode_entries b =
  let entries, pos = decode_prefix b (Bytes.length b) in
  (entries, pos < Bytes.length b)

(* A log written in the previous record format is refused, not read as
   a torn tail: truncating it would drop committed transactions whose
   forced pages never reached the data file.  Only the first record is
   checked — a torn tail always starts with the current magic. *)
let check_format path data len =
  if len > 0 && Page.get_u8 data 0 = legacy_entry_magic then
    raise
      (Storage_error.Error
         (Storage_error.Unsupported_format
            { path; found = legacy_entry_magic; expected = entry_magic }))

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
  (* Encode straight into the append buffer: one blit of the payload
     instead of encode-into-scratch plus a second whole-record copy.
     Byte-for-byte identical to [encode_entry]. *)
  let payload = payload_of e in
  let plen = Bytes.length payload in
  let hdr = encode_header e plen in
  Buffer.add_bytes t.buf hdr;
  Buffer.add_bytes t.buf payload;
  Buffer.add_int32_le t.buf (Int32.of_int (record_crc hdr payload));
  let size = header_bytes + plen + 4 in
  Obs.Counter.incr m_appends;
  Obs.Counter.add m_append_bytes size;
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  match t.on_append with None -> () | Some f -> f lsn e

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

let entry_to_string = function
  | Begin t -> Printf.sprintf "begin(%d)" t
  | Before (t, p, _) -> Printf.sprintf "before(%d, page %d)" t p
  | After (t, p, _) -> Printf.sprintf "after(%d, page %d)" t p
  | Commit t -> Printf.sprintf "commit(%d)" t
  | Checkpoint -> "checkpoint"
