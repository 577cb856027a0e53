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
   trailer, 0xB4 shipped WAL records carrying whole-page images, 0xB5
   had its own header and a trailing CRC. *)
let frame_magic = 0xB6

module Page = Hyper_storage.Page
module Codec = Hyper_storage.Frame_codec

let epoch_of = function
  | Append { epoch; _ }
  | Heartbeat { epoch; _ }
  | Snapshot { epoch; _ }
  | Ack { epoch; _ }
  | Nak { epoch; _ }
  | Fence { epoch } -> epoch

(* A message is its tag (the frame's kind) and a body: the epoch, then
   the variant's u32 fields; a snapshot file is a u32-length name and
   u32-length data, and an [Append] payload is the rest of the body. *)
type piece = U32 of int | Raw of bytes

let pieces = function
  | Append { epoch; base_lsn; payload } -> (1, [ U32 epoch; U32 base_lsn; Raw payload ])
  | Heartbeat { epoch; commit_lsn } -> (2, [ U32 epoch; U32 commit_lsn ])
  | Snapshot { epoch; lsn; commits; files } ->
    let blob b = [ U32 (Bytes.length b); Raw b ] in
    ( 3,
      U32 epoch :: U32 lsn :: U32 commits :: U32 (List.length files)
      :: List.concat_map (fun (name, data) -> blob (Bytes.of_string name) @ blob data) files )
  | Ack { epoch; lsn } -> (4, [ U32 epoch; U32 lsn ])
  | Nak { epoch; lsn } -> (5, [ U32 epoch; U32 lsn ])
  | Fence { epoch } -> (6, [ U32 epoch ])

let piece_len = function U32 _ -> 4 | Raw b -> Bytes.length b

let write_pieces ps b off =
  ignore
    (List.fold_left
       (fun pos p ->
         (match p with
         | U32 v -> Page.set_u32 b pos v
         | Raw r -> Bytes.blit r 0 b pos (Bytes.length r));
         pos + piece_len p)
       off ps)

let encode t =
  let kind, ps = pieces t in
  let len = List.fold_left (fun n p -> n + piece_len p) 0 ps in
  Codec.write ~magic:frame_magic ~kind ~len write_pieces ps

exception Bad

let decode b =
  match
    Codec.check ~magic:frame_magic ~kinds:(fun k -> k >= 1 && k <= 6)
      ~max:max_int b ~off:0 ~len:(Bytes.length b)
  with
  | Codec.Frame { kind; body; stop; len = _ } when stop = Bytes.length b -> (
    let pos = ref body in
    let take n =
      if n > stop - !pos then raise Bad;
      pos := !pos + n;
      !pos - n
    in
    let u32 () = Page.get_u32 b (take 4) in
    let blob n = Bytes.sub b (take n) n in
    try
      let epoch = u32 () in
      let t =
        match kind with
        | 1 ->
          let base_lsn = u32 () in
          Append { epoch; base_lsn; payload = blob (stop - !pos) }
        | 2 -> Heartbeat { epoch; commit_lsn = u32 () }
        | 3 ->
          let lsn = u32 () in
          let commits = u32 () in
          let files =
            List.init (u32 ()) (fun _ ->
                let name = Bytes.to_string (blob (u32 ())) in
                (name, blob (u32 ())))
          in
          Snapshot { epoch; lsn; commits; files }
        | 4 -> Ack { epoch; lsn = u32 () }
        | 5 -> Nak { epoch; lsn = u32 () }
        | _ -> Fence { epoch }
      in
      if !pos = stop then Some t else None
    with Bad -> None)
  | Codec.Frame _ | Codec.Short | Codec.Bad _ -> None

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
