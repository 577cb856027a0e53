let magic = "HYPM"

let header = 16 (* type byte, padding, magic at 4..7, count u16 at 8 *)

let format pool =
  Buffer_pool.with_page_w pool 0 (fun page ->
      Bytes.fill page 0 Page.size '\000';
      Page.set_type page Page.Meta;
      Page.set_sub page ~pos:4 (Bytes.of_string magic);
      Page.set_u16 page 8 0)

let check page =
  Page.get_type page = Page.Meta
  && Bytes.to_string (Page.get_sub page ~pos:4 ~len:4) = magic

(* Two-phase formatting barrier (see Diskdb.open_db): the magic's
   presence on disk is the atomic commit point of formatting, so the
   formatter blanks it in the pooled page, flushes and syncs everything,
   then stamps it back and flushes page 0 alone. *)
let conceal_magic pool =
  Buffer_pool.with_page_w pool 0 (fun page ->
      Page.set_sub page ~pos:4 (Bytes.make 4 '\000'))

let stamp_magic pool =
  Buffer_pool.with_page_w pool 0 (fun page ->
      Page.set_sub page ~pos:4 (Bytes.of_string magic))

(* Formatting is not WAL-covered, so its commit point is a page 0 that
   carries the magic *and* verifies.  A crash during formatting can leave
   the magic written but the page or its checksum torn; every page-0
   write after formatting completes is WAL-covered, so recovery has
   already repaired any legitimate store by the time this runs and a
   corrupt page 0 here can only be a formatting crash. *)
let is_formatted pool =
  Pager.page_count (Buffer_pool.pager pool) > 0
  && (match Buffer_pool.with_page pool 0 check with
     | ok -> ok
     | exception Storage_error.Error (Storage_error.Corrupt_page _) -> false)

let load pool =
  Buffer_pool.with_page pool 0 (fun page ->
      if not (check page) then invalid_arg "Meta.load: not a formatted store";
      let count = Page.get_u16 page 8 in
      let pos = ref header in
      List.init count (fun _ ->
          let klen = Page.get_u8 page !pos in
          let key = Bytes.to_string (Page.get_sub page ~pos:(!pos + 1) ~len:klen) in
          let value = Page.get_i64 page (!pos + 1 + klen) in
          pos := !pos + 1 + klen + 8;
          (key, value)))

let write pool kvs =
  Buffer_pool.with_page_w pool 0 (fun page ->
      if not (check page) then invalid_arg "Meta.store: not a formatted store";
      let pos = ref header in
      List.iter
        (fun (key, value) ->
          let klen = String.length key in
          if klen > 255 then invalid_arg "Meta.store: key too long";
          if !pos + 1 + klen + 8 > Page.size then
            invalid_arg "Meta.store: map does not fit in the meta page";
          Page.set_u8 page !pos klen;
          Page.set_sub page ~pos:(!pos + 1) (Bytes.of_string key);
          Page.set_i64 page (!pos + 1 + klen) value;
          pos := !pos + 1 + klen + 8)
        kvs;
      Page.set_u16 page 8 (List.length kvs))

(* Called on every commit: when page 0 already holds [kvs] it is left
   clean, so the commit neither logs nor writes it.  [write] lays the
   map out in order from [header], so an equal decoded map means equal
   bytes. *)
let store pool kvs = if load pool <> kvs then write pool kvs

let get pool key = List.assoc_opt key (load pool)

let get_exn pool key =
  match get pool key with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Meta.get_exn: missing key %S" key)

let set pool key value =
  let kvs = load pool in
  let kvs = (key, value) :: List.remove_assoc key kvs in
  store pool kvs
