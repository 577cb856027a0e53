type t = {
  pool : Buffer_pool.t;
  freelist : Freelist.t;
  head : int;
  mutable tail : int; (* last page of the chain, preferred for appends *)
}

type rid = int

let rid_page rid = rid lsr 16
let rid_slot rid = rid land 0xFFFF
let rid_make ~page ~slot = (page lsl 16) lor slot

(* Records are prefixed with a tag byte: 0 inline, 1 overflow stub. *)
let tag_inline = '\000'
let tag_overflow = '\001'

let inline_max = Slotted.max_record - 1
let stub_size = 1 + 4 + 4 (* tag, total length, first overflow page *)

(* Overflow page layout: 0 type, 4 next page, 8 chunk length u16, 10 data *)
let ovf_data_off = 10
let ovf_capacity = Page.size - ovf_data_off

let new_heap_page t =
  let id = Freelist.alloc t.freelist in
  Buffer_pool.with_page_w t.pool id (fun page -> Slotted.init page);
  id

let fresh pool freelist =
  let t = { pool; freelist; head = -1; tail = -1 } in
  let id = new_heap_page t in
  { t with head = id; tail = id }

let attach pool freelist ~head =
  let rec find_tail id =
    let next =
      Buffer_pool.with_page pool id (fun page -> Slotted.next_page page)
    in
    if next = 0 then id else find_tail next
  in
  { pool; freelist; head; tail = find_tail head }

let first_page t = t.head

let append_page t =
  let id = new_heap_page t in
  Buffer_pool.with_page_w t.pool t.tail (fun page -> Slotted.set_next_page page id);
  t.tail <- id;
  id

(* --- overflow chains --- *)

let write_overflow t data =
  let len = Bytes.length data in
  let rec chunk pos =
    if pos >= len then 0
    else begin
      let n = Stdlib.min ovf_capacity (len - pos) in
      let next = chunk (pos + n) in
      let id = Freelist.alloc t.freelist in
      Buffer_pool.with_page_w t.pool id (fun page ->
          Bytes.fill page 0 Page.size '\000';
          Page.set_type page Page.Overflow;
          Page.set_u32 page 4 next;
          Page.set_u16 page 8 n;
          Bytes.blit data pos page ovf_data_off n);
      id
    end
  in
  chunk 0

let read_overflow t ~first ~total =
  let out = Bytes.create total in
  let rec walk id pos =
    if id <> 0 then begin
      let next, n =
        Buffer_pool.with_page t.pool id (fun page ->
            let n = Page.get_u16 page 8 in
            Bytes.blit page ovf_data_off out pos n;
            (Page.get_u32 page 4, n))
      in
      walk next (pos + n)
    end
  in
  walk first 0;
  out

let free_overflow t first =
  let rec walk id =
    if id <> 0 then begin
      let next =
        Buffer_pool.with_page t.pool id (fun page -> Page.get_u32 page 4)
      in
      Freelist.push t.freelist id;
      walk next
    end
  in
  walk first

let encode_inline data =
  let out = Bytes.create (1 + Bytes.length data) in
  Bytes.set out 0 tag_inline;
  Bytes.blit data 0 out 1 (Bytes.length data);
  out

let encode_stub ~total ~first =
  let out = Bytes.create stub_size in
  Bytes.set out 0 tag_overflow;
  Page.set_u32 out 1 total;
  Page.set_u32 out 5 first;
  out

(* --- record operations --- *)

let insert_raw ?near t payload =
  let try_page page_id =
    Buffer_pool.with_page_w t.pool page_id (fun page ->
        Slotted.insert page payload)
  in
  let near_page = Option.map rid_page near in
  let placed =
    match near_page with
    | Some p -> (match try_page p with Some s -> Some (p, s) | None -> None)
    | None -> None
  in
  let placed =
    match placed with
    | Some _ -> placed
    | None -> (
      match try_page t.tail with Some s -> Some (t.tail, s) | None -> None)
  in
  match placed with
  | Some (p, s) -> rid_make ~page:p ~slot:s
  | None ->
    let p = append_page t in
    (match try_page p with
    | Some s -> rid_make ~page:p ~slot:s
    | None -> failwith "Heap.insert: record does not fit a fresh page")

let insert ?near t data =
  if Bytes.length data <= inline_max then insert_raw ?near t (encode_inline data)
  else begin
    let first = write_overflow t data in
    insert_raw ?near t (encode_stub ~total:(Bytes.length data) ~first)
  end

let read_payload t rid =
  Buffer_pool.with_page t.pool (rid_page rid) (fun page ->
      Slotted.read page (rid_slot rid))

let decode t payload =
  match Bytes.get payload 0 with
  | c when c = tag_inline -> Bytes.sub payload 1 (Bytes.length payload - 1)
  | c when c = tag_overflow ->
    let total = Page.get_u32 payload 1 in
    let first = Page.get_u32 payload 5 in
    read_overflow t ~first ~total
  | c -> invalid_arg (Printf.sprintf "Heap: corrupt record tag %d" (Char.code c))

(* Look a record up in its slotted page: run [inline] on an inline
   record's window inside the pin, or return an overflow record's
   total length and first overflow page. *)
let locate t rid inline =
  Buffer_pool.with_page t.pool (rid_page rid) (fun page ->
      let off, len = Slotted.view page (rid_slot rid) in
      if len = 0 then
        invalid_arg "Heap: corrupt record (empty payload)";
      match Bytes.get page off with
      | c when c = tag_inline -> `Done (inline page ~off:(off + 1) ~len:(len - 1))
      | c when c = tag_overflow ->
        `Ovf (Page.get_u32 page (off + 1), Page.get_u32 page (off + 5))
      | c ->
        invalid_arg (Printf.sprintf "Heap: corrupt record tag %d" (Char.code c)))

(* Zero-copy read: hand the record to [k] as a range of a pinned page
   buffer when it is inline (the common case — records up to a page),
   without extracting it first.  Overflow records are assembled into a
   fresh buffer outside the pin. *)
let read_with t rid k =
  match locate t rid k with
  | `Done v -> v
  | `Ovf (total, first) ->
    let data = read_overflow t ~first ~total in
    k data ~off:0 ~len:total

(* Like [read_with], but an overflow record is first offered as its
   first chunk alone, read in place from the first overflow page: a
   field reader that stops short of the chunk's end never assembles the
   chain.  One that runs past it raises [Invalid_argument], and only
   then is the whole record assembled and [k] run again. *)
let read_field t rid k =
  match locate t rid k with
  | `Done v -> v
  | `Ovf (total, first) -> (
    let prefix =
      Buffer_pool.with_page t.pool first (fun page ->
          let n = Page.get_u16 page 8 in
          match k page ~off:ovf_data_off ~len:n with
          | v -> `Done v
          | exception Invalid_argument _ when n < total -> `Past_chunk)
    in
    match prefix with
    | `Done v -> v
    | `Past_chunk -> k (read_overflow t ~first ~total) ~off:0 ~len:total)

(* In-place write of a record that keeps its length: [k] gets the
   record's window in its slotted page, or the first chunk of an
   overflow record in its first overflow page, pinned for write. *)
let patch_with t rid k =
  match locate t rid (fun _ ~off:_ ~len:_ -> ()) with
  | `Done () ->
    Buffer_pool.with_page_w t.pool (rid_page rid) (fun page ->
        let off, len = Slotted.view page (rid_slot rid) in
        k page ~off:(off + 1) ~len:(len - 1))
  | `Ovf (_, first) ->
    Buffer_pool.with_page_w t.pool first (fun page ->
        k page ~off:ovf_data_off ~len:(Page.get_u16 page 8))

let read t rid =
  read_with t rid (fun b ~off ~len ->
      if off = 0 && len = Bytes.length b then b else Bytes.sub b off len)

let release_if_overflow t payload =
  if Bytes.get payload 0 = tag_overflow then
    free_overflow t (Page.get_u32 payload 5)

let delete t rid =
  let payload = read_payload t rid in
  release_if_overflow t payload;
  Buffer_pool.with_page_w t.pool (rid_page rid) (fun page ->
      Slotted.delete page (rid_slot rid))

let update t rid data =
  let old_payload = read_payload t rid in
  let inline = Bytes.length data <= inline_max in
  if inline && Bytes.get old_payload 0 = tag_inline then begin
    let payload = encode_inline data in
    let ok =
      Buffer_pool.with_page_w t.pool (rid_page rid) (fun page ->
          Slotted.update page (rid_slot rid) payload)
    in
    if ok then rid
    else begin
      delete t rid;
      insert ~near:rid t data
    end
  end
  else begin
    delete t rid;
    insert ~near:rid t data
  end

(* --- batch prefetch --- *)

(* Overflow chains are followed breadth-first across the whole record
   batch: one [Buffer_pool.prefetch] per wave (all first overflow pages,
   then all second pages, ...), so a batch of K records whose longest
   chain has depth D costs D batched fetches instead of sum(chain
   lengths) single-page fetches. *)
let prefetch_overflow_waves t firsts =
  let rec wave pages =
    if pages <> [] then begin
      Buffer_pool.prefetch t.pool pages;
      let next =
        List.filter_map
          (fun id ->
            match
              Buffer_pool.with_page t.pool id (fun page -> Page.get_u32 page 4)
            with
            | 0 -> None
            | n -> Some n)
          pages
      in
      wave next
    end
  in
  wave firsts

let prefetch_records t rids =
  Buffer_pool.prefetch t.pool (List.map rid_page rids);
  let firsts =
    List.filter_map
      (fun rid ->
        let payload = read_payload t rid in
        if Bytes.length payload > 0 && Bytes.get payload 0 = tag_overflow then
          match Page.get_u32 payload 5 with 0 -> None | first -> Some first
        else None)
      rids
  in
  prefetch_overflow_waves t firsts

let iter t f =
  let rec walk page_id =
    if page_id <> 0 && page_id <> -1 then begin
      let next, records =
        Buffer_pool.with_page t.pool page_id (fun page ->
            let acc = ref [] in
            Slotted.iter page (fun slot payload ->
                acc := (slot, payload) :: !acc);
            (Slotted.next_page page, List.rev !acc))
      in
      List.iter
        (fun (slot, payload) ->
          f (rid_make ~page:page_id ~slot) (decode t payload))
        records;
      walk next
    end
  in
  walk t.head

let iter_rids t f =
  let rec walk page_id =
    if page_id <> 0 && page_id <> -1 then begin
      let next =
        Buffer_pool.with_page t.pool page_id (fun page ->
            Slotted.iter page (fun slot _ -> f (rid_make ~page:page_id ~slot));
            Slotted.next_page page)
      in
      walk next
    end
  in
  walk t.head

let record_count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let iter_pages t f =
  let rec walk page_id =
    if page_id <> 0 && page_id <> -1 then begin
      f page_id;
      let next, stubs =
        Buffer_pool.with_page t.pool page_id (fun page ->
            let stubs = ref [] in
            Slotted.iter page (fun _ payload ->
                if Bytes.get payload 0 = tag_overflow then
                  stubs := Page.get_u32 payload 5 :: !stubs);
            (Slotted.next_page page, !stubs))
      in
      List.iter
        (fun first ->
          let rec ovf id =
            if id <> 0 then begin
              f id;
              ovf
                (Buffer_pool.with_page t.pool id (fun page ->
                     Page.get_u32 page 4))
            end
          in
          ovf first)
        stubs;
      walk next
    end
  in
  walk t.head

let page_count t =
  let rec walk id acc =
    if id = 0 || id = -1 then acc
    else
      let next =
        Buffer_pool.with_page t.pool id (fun page -> Slotted.next_page page)
      in
      walk next (acc + 1)
  in
  walk t.head 0
