type t =
  | Append of { epoch : int; base_lsn : int; payload : bytes }
  | Heartbeat of { epoch : int; commit_lsn : int }
  | Snapshot of {
      epoch : int;
      lsn : int;
      commits : int;
      files : (string * bytes) list;
    }
  | Ack of { epoch : int; lsn : int }
  | Nak of { epoch : int; lsn : int }
  | Fence of { epoch : int }

(* Earlier layouts fail the magic check: 0xB3 had a 30-bit rolling-hash
   trailer, 0xB4 shipped WAL records carrying whole-page images. *)
let frame_magic = 0xB5

module Page = Hyper_storage.Page

let tag_of = function
  | Append _ -> 1
  | Heartbeat _ -> 2
  | Snapshot _ -> 3
  | Ack _ -> 4
  | Nak _ -> 5
  | Fence _ -> 6

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_bytes_u32 buf b =
  add_u32 buf (Bytes.length b);
  Buffer.add_bytes buf b

let epoch_of = function
  | Append { epoch; _ }
  | Heartbeat { epoch; _ }
  | Snapshot { epoch; _ }
  | Ack { epoch; _ }
  | Nak { epoch; _ }
  | Fence { epoch } -> epoch

let encode t =
  let buf = Buffer.create 64 in
  Buffer.add_uint8 buf frame_magic;
  Buffer.add_uint8 buf (tag_of t);
  add_u32 buf (epoch_of t);
  (match t with
  | Append { epoch = _epoch; base_lsn; payload } ->
    add_u32 buf base_lsn;
    add_bytes_u32 buf payload
  | Heartbeat { epoch = _epoch; commit_lsn } -> add_u32 buf commit_lsn
  | Snapshot { epoch = _epoch; lsn; commits; files } ->
    add_u32 buf lsn;
    add_u32 buf commits;
    add_u32 buf (List.length files);
    List.iter
      (fun (name, data) ->
        add_bytes_u32 buf (Bytes.of_string name);
        add_bytes_u32 buf data)
      files
  | Ack { epoch = _epoch; lsn } -> add_u32 buf lsn
  | Nak { epoch = _epoch; lsn } -> add_u32 buf lsn
  | Fence { epoch = _epoch } -> ());
  let body = Buffer.to_bytes buf in
  let out = Bytes.create (Bytes.length body + 4) in
  Bytes.blit body 0 out 0 (Bytes.length body);
  Bytes.set_int32_le out (Bytes.length body)
    (Int32.of_int (Page.checksum body));
  out

exception Bad

let decode b =
  let len = Bytes.length b in
  if len < 10 then None
  else begin
    let body_len = len - 4 in
    let crc = Int32.to_int (Bytes.get_int32_le b body_len) land 0xFFFFFFFF in
    if crc <> Page.checksum_update 0 b ~pos:0 ~len:body_len then None
    else begin
      let pos = ref 2 in
      let u32 () =
        if !pos + 4 > body_len then raise Bad;
        let v = Int32.to_int (Bytes.get_int32_le b !pos) land 0xFFFFFFFF in
        pos := !pos + 4;
        v
      in
      let bytes_u32 () =
        let n = u32 () in
        if !pos + n > body_len then raise Bad;
        let v = Bytes.sub b !pos n in
        pos := !pos + n;
        v
      in
      try
        if Bytes.get_uint8 b 0 <> frame_magic then None
        else begin
          let tag = Bytes.get_uint8 b 1 in
          let epoch = u32 () in
          match tag with
          | 1 ->
            let base_lsn = u32 () in
            let payload = bytes_u32 () in
            Some (Append { epoch; base_lsn; payload })
          | 2 -> Some (Heartbeat { epoch; commit_lsn = u32 () })
          | 3 ->
            let lsn = u32 () in
            let commits = u32 () in
            let n = u32 () in
            let files = ref [] in
            for _ = 1 to n do
              let name = Bytes.to_string (bytes_u32 ()) in
              let data = bytes_u32 () in
              files := (name, data) :: !files
            done;
            Some (Snapshot { epoch; lsn; commits; files = List.rev !files })
          | 4 -> Some (Ack { epoch; lsn = u32 () })
          | 5 -> Some (Nak { epoch; lsn = u32 () })
          | 6 -> Some (Fence { epoch })
          | _ -> None
        end
      with Bad -> None
    end
  end

(* Handlers that only care whether a response was a positive ack (e.g.
   direct snapshot seeding) — enumerated, not wildcarded, so the epoch
   discipline stays visible. *)
let ack_lsn = function
  | Ack { epoch = _epoch; lsn } -> Some lsn
  | Append { epoch = _epoch; base_lsn = _; payload = _ }
  | Heartbeat { epoch = _epoch; commit_lsn = _ }
  | Snapshot { epoch = _epoch; lsn = _; commits = _; files = _ }
  | Nak { epoch = _epoch; lsn = _ }
  | Fence { epoch = _epoch } -> None

let to_string = function
  | Append { epoch; base_lsn; payload } ->
    Printf.sprintf "append(e%d, base %d, %d bytes)" epoch base_lsn
      (Bytes.length payload)
  | Heartbeat { epoch; commit_lsn } ->
    Printf.sprintf "heartbeat(e%d, lsn %d)" epoch commit_lsn
  | Snapshot { epoch; lsn; commits; files } ->
    Printf.sprintf "snapshot(e%d, lsn %d, %d commits, %d files)" epoch lsn
      commits (List.length files)
  | Ack { epoch; lsn } -> Printf.sprintf "ack(e%d, lsn %d)" epoch lsn
  | Nak { epoch; lsn } -> Printf.sprintf "nak(e%d, lsn %d)" epoch lsn
  | Fence { epoch } -> Printf.sprintf "fence(e%d)" epoch
