module Bitmap = Hyper_util.Bitmap

type payload =
  | P_internal
  | P_text of string
  | P_form of int * int
  | P_draw

type op =
  | Begin
  | Commit
  | Abort
  | Clear_caches
  | Create of {
      oid : Oid.t;
      doc : int;
      uid : int;
      ten : int;
      hundred : int;
      million : int;
      near : Oid.t option;
      payload : payload;
    }
  | Add_child of { parent : Oid.t; child : Oid.t }
  | Add_children of { parent : Oid.t; children : Oid.t list }
  | Add_part of { whole : Oid.t; part : Oid.t }
  | Add_parts of { whole : Oid.t; parts : Oid.t list }
  | Add_ref of { src : Oid.t; dst : Oid.t; offset_from : int; offset_to : int }
  | Remove_child of { parent : Oid.t; child : Oid.t }
  | Remove_part of { whole : Oid.t; part : Oid.t }
  | Remove_ref of { src : Oid.t; dst : Oid.t }
  | Delete of Oid.t
  | Set_hundred of { oid : Oid.t; value : int }
  | Set_text of { oid : Oid.t; value : string }
  | Set_dyn of { oid : Oid.t; key : string; value : int }
  | Text_edit of Oid.t
  | Form_edit of { oid : Oid.t; x : int; y : int; w : int; h : int }
  | Lookup_unique of { doc : int; uid : int }
  | Range_unique of { doc : int; lo : int; hi : int }
  | Range_hundred of { doc : int; lo : int; hi : int }
  | Range_million of { doc : int; lo : int; hi : int }
  | Attrs of Oid.t
  | Dyn_attr of { oid : Oid.t; key : string }
  | Children of Oid.t
  | Parent of Oid.t
  | Parts of Oid.t
  | Part_of of Oid.t
  | Refs_to of Oid.t
  | Refs_from of Oid.t
  | Text of Oid.t
  | Form_digest of Oid.t
  | Scan of int
  | Node_count of int
  | Closure_1n of Oid.t
  | Closure_mn of Oid.t
  | Closure_mnatt of { start : Oid.t; depth : int }
  | Closure_1n_att_sum of Oid.t
  | Closure_1n_att_set of Oid.t
  | Closure_1n_pred of { start : Oid.t; x : int }
  | Closure_link_sum of { start : Oid.t; depth : int }
  | Verify_checks
  (* primitives added for the wire protocol: a remote Backend.S
     (Hyper_net.Client_backend) needs every backend capability to be
     expressible as one reified op *)
  | Doc_oids of int
  | Store_results of Oid.t list
  | Form_get of Oid.t
  | Form_set of { oid : Oid.t; width : int; height : int; data : string }

let is_mutation = function
  | Create _ | Add_child _ | Add_children _ | Add_part _ | Add_parts _
  | Add_ref _ | Remove_child _ | Remove_part _ | Remove_ref _ | Delete _
  | Set_hundred _ | Set_text _ | Set_dyn _ | Text_edit _ | Form_edit _
  | Closure_1n _ | Closure_mn _ | Closure_mnatt _ | Closure_1n_att_set _
  | Store_results _ | Form_set _ ->
    true
  | Begin | Commit | Abort | Clear_caches | Lookup_unique _ | Range_unique _
  | Range_hundred _ | Range_million _ | Attrs _ | Dyn_attr _ | Children _
  | Parent _ | Parts _ | Part_of _ | Refs_to _ | Refs_from _ | Text _
  | Form_digest _ | Scan _ | Node_count _ | Closure_1n_att_sum _
  | Closure_1n_pred _ | Closure_link_sum _ | Verify_checks | Doc_oids _
  | Form_get _ ->
    false

type value =
  | V_unit
  | V_int of int
  | V_int_opt of int option
  | V_ints of int list
  | V_oids of Oid.t list
  | V_links of (Oid.t * int * int) list
  | V_pairs of (Oid.t * int) list
  | V_string of string
  | V_checks of (string * bool) list
  | V_form of int * int * string  (* width, height, packed payload *)

type outcome = Done of value | Raised of string

let outcome_equal (a : outcome) (b : outcome) = a = b

let elide to_s l =
  let n = List.length l in
  if n <= 12 then "[" ^ String.concat ";" (List.map to_s l) ^ "]"
  else
    Printf.sprintf "[%s;... %d total]"
      (String.concat ";" (List.map to_s (List.filteri (fun i _ -> i < 12) l)))
      n

let value_to_string = function
  | V_unit -> "()"
  | V_int n -> string_of_int n
  | V_int_opt None -> "none"
  | V_int_opt (Some n) -> Printf.sprintf "some %d" n
  | V_ints l -> elide string_of_int l
  | V_oids l -> elide string_of_int l
  | V_links l ->
    elide (fun (t, f, o) -> Printf.sprintf "%d/%d/%d" t f o) l
  | V_pairs l -> elide (fun (o, d) -> Printf.sprintf "%d@%d" o d) l
  | V_string s ->
    if String.length s <= 32 then Printf.sprintf "%S" s
    else Printf.sprintf "%S..(%d bytes)" (String.sub s 0 32) (String.length s)
  | V_checks l ->
    elide (fun (name, ok) -> Printf.sprintf "%s=%b" name ok) l
  | V_form (w, h, data) ->
    Printf.sprintf "form %dx%d (%d bytes, hash %d)" w h (String.length data)
      (Hashtbl.hash data)

let outcome_to_string = function
  | Done v -> value_to_string v
  | Raised cls -> "raised " ^ cls

(* --- application --- *)

let to_schema_payload = function
  | P_internal -> Schema.P_internal
  | P_text s -> Schema.P_text s
  | P_form (w, h) -> Schema.P_form (Bitmap.create ~width:w ~height:h)
  | P_draw -> Schema.P_draw

let sorted_oids arr = List.sort compare (Array.to_list arr)

let link_triple l = (l.Schema.target, l.Schema.offset_from, l.Schema.offset_to)

let kind_code = function
  | Schema.Internal -> 0
  | Schema.Text -> 1
  | Schema.Form -> 2
  | Schema.Draw -> 3

let apply ?(reraise = fun _ -> false) ~layout
    (Backend.Instance ((module B), b) : Backend.instance) op : outcome =
  (* [Ops.Make] and [Verify.Make] are applied only in the arms that use
     them: applying them costs about 270 words per call, and every served
     read goes through here. *)
  try
    Done
      (match op with
      | Begin ->
        B.begin_txn b;
        V_unit
      | Commit ->
        B.commit b;
        V_unit
      | Abort ->
        B.abort b;
        V_unit
      | Clear_caches ->
        B.clear_caches b;
        V_unit
      | Create { oid; doc; uid; ten; hundred; million; near; payload } ->
        B.create_node ?near b
          { Schema.oid; doc; unique_id = uid; ten; hundred; million;
            payload = to_schema_payload payload };
        V_unit
      | Add_child { parent; child } ->
        B.add_child b ~parent ~child;
        V_unit
      | Add_children { parent; children } ->
        B.add_children b ~parent (Array.of_list children);
        V_unit
      | Add_part { whole; part } ->
        B.add_part b ~whole ~part;
        V_unit
      | Add_parts { whole; parts } ->
        B.add_parts b ~whole (Array.of_list parts);
        V_unit
      | Add_ref { src; dst; offset_from; offset_to } ->
        B.add_ref b ~src ~dst ~offset_from ~offset_to;
        V_unit
      | Remove_child { parent; child } ->
        B.remove_child b ~parent ~child;
        V_unit
      | Remove_part { whole; part } ->
        B.remove_part b ~whole ~part;
        V_unit
      | Remove_ref { src; dst } ->
        B.remove_ref b ~src ~dst;
        V_unit
      | Delete oid ->
        B.delete_node b oid;
        V_unit
      | Set_hundred { oid; value } ->
        B.set_hundred b oid value;
        V_unit
      | Set_text { oid; value } ->
        B.set_text b oid value;
        V_unit
      | Set_dyn { oid; key; value } ->
        B.set_dyn_attr b oid key value;
        V_unit
      | Text_edit oid ->
        let module O = Ops.Make (B) in
        O.text_node_edit b ~oid;
        V_unit
      | Form_edit { oid; x; y; w; h } ->
        let module O = Ops.Make (B) in
        O.form_node_edit b ~oid ~x ~y ~w ~h;
        V_unit
      | Lookup_unique { doc; uid } -> V_int_opt (B.lookup_unique b ~doc uid)
      | Range_unique { doc; lo; hi } ->
        V_oids (List.sort Oid.compare (B.range_unique b ~doc ~lo ~hi))
      | Range_hundred { doc; lo; hi } ->
        V_oids (List.sort Oid.compare (B.range_hundred b ~doc ~lo ~hi))
      | Range_million { doc; lo; hi } ->
        V_oids (List.sort Oid.compare (B.range_million b ~doc ~lo ~hi))
      | Attrs oid ->
        V_ints
          [ kind_code (B.kind b oid); B.unique_id b oid; B.ten b oid;
            B.hundred b oid; B.million b oid ]
      | Dyn_attr { oid; key } -> V_int_opt (B.dyn_attr b oid key)
      | Children oid -> V_oids (Array.to_list (B.children b oid))
      | Parent oid -> V_int_opt (B.parent b oid)
      | Parts oid -> V_oids (Array.to_list (B.parts b oid))
      | Part_of oid -> V_oids (sorted_oids (B.part_of b oid))
      | Refs_to oid ->
        V_links (List.map link_triple (Array.to_list (B.refs_to b oid)))
      | Refs_from oid ->
        V_links
          (List.sort compare
             (List.map link_triple (Array.to_list (B.refs_from b oid))))
      | Text oid -> V_string (B.text b oid)
      | Form_digest oid ->
        let f = B.form b oid in
        V_ints
          [ Bitmap.width f; Bitmap.height f; Bitmap.count_set f;
            Hashtbl.hash (Bytes.to_string (Bitmap.to_bytes f)) ]
      | Scan doc ->
        (* Visit order is an access-path artefact; expose only
           order-insensitive aggregates. *)
        let count = ref 0 and sum_ten = ref 0 and sum_oid = ref 0 in
        B.iter_doc b ~doc (fun oid ->
            incr count;
            sum_ten := !sum_ten + B.ten b oid;
            sum_oid := !sum_oid + oid);
        V_ints [ !count; !sum_ten; !sum_oid ]
      | Node_count doc -> V_int (B.node_count b ~doc)
      | Closure_1n start ->
        let module O = Ops.Make (B) in
        V_oids (O.closure_1n b ~start)
      | Closure_mn start ->
        let module O = Ops.Make (B) in
        V_oids (O.closure_mn b ~start)
      | Closure_mnatt { start; depth } ->
        let module O = Ops.Make (B) in
        V_oids (O.closure_mnatt b ~start ~depth)
      | Closure_1n_att_sum start ->
        let module O = Ops.Make (B) in
        V_int (O.closure_1n_att_sum b ~start)
      | Closure_1n_att_set start ->
        let module O = Ops.Make (B) in
        V_int (O.closure_1n_att_set b ~start)
      | Closure_1n_pred { start; x } ->
        let module O = Ops.Make (B) in
        V_oids (O.closure_1n_pred b ~start ~x)
      | Closure_link_sum { start; depth } ->
        let module O = Ops.Make (B) in
        V_pairs (O.closure_mnatt_link_sum b ~start ~depth)
      | Verify_checks ->
        let module V = Verify.Make (B) in
        (* Details of failing checks can embed backend-specific exception
           messages; compare (name, verdict) only. *)
        V_checks
          (List.map
             (fun c -> (c.Verify.name, c.Verify.ok))
             (V.run ~reraise b layout))
      | Doc_oids doc ->
        (* Visit order is an access-path artefact (cf. Scan); expose the
           membership, sorted. *)
        let acc = ref [] in
        B.iter_doc b ~doc (fun oid -> acc := oid :: !acc);
        V_oids (List.sort Oid.compare !acc)
      | Store_results oids ->
        B.store_result_list b oids;
        V_unit
      | Form_get oid ->
        let f = B.form b oid in
        V_form
          (Bitmap.width f, Bitmap.height f,
           Bytes.to_string (Bitmap.to_bytes f))
      | Form_set { oid; width; height; data } ->
        let f = Bitmap.of_bytes (Bytes.of_string data) in
        if Bitmap.width f <> width || Bitmap.height f <> height then
          invalid_arg "Trace: form-set dimensions disagree with payload";
        B.set_form b oid f;
        V_unit)
  with
  | e when reraise e -> raise e
  | Invalid_argument _ -> Raised "Invalid_argument"
  | Failure _ -> Raised "Failure"
  | e ->
    (* Outcome normalisation is this function's purpose: any backend
       exception becomes a comparable Raised value.  Crash faults were
       already re-raised by the guarded case above. *)
    (Raised (Printexc.exn_slot_name e) [@lint.allow "no-catchall-swallow"])

(* --- serialisation --- *)

let string_of_near = function None -> 0 | Some oid -> oid

let payload_to_string = function
  | P_internal -> "internal"
  | P_draw -> "draw"
  | P_form (w, h) -> Printf.sprintf "form %d %d" w h
  | P_text s -> Printf.sprintf "text %S" s

let op_to_string = function
  | Begin -> "begin"
  | Commit -> "commit"
  | Abort -> "abort"
  | Clear_caches -> "clear-caches"
  | Create { oid; doc; uid; ten; hundred; million; near; payload } ->
    Printf.sprintf "create %d %d %d %d %d %d %d %s" oid doc uid ten hundred
      million (string_of_near near)
      (payload_to_string payload)
  | Add_child { parent; child } -> Printf.sprintf "add-child %d %d" parent child
  | Add_children { parent; children } ->
    Printf.sprintf "add-children %d %s" parent
      (String.concat " " (List.map string_of_int children))
  | Add_part { whole; part } -> Printf.sprintf "add-part %d %d" whole part
  | Add_parts { whole; parts } ->
    Printf.sprintf "add-parts %d %s" whole
      (String.concat " " (List.map string_of_int parts))
  | Add_ref { src; dst; offset_from; offset_to } ->
    Printf.sprintf "add-ref %d %d %d %d" src dst offset_from offset_to
  | Remove_child { parent; child } ->
    Printf.sprintf "remove-child %d %d" parent child
  | Remove_part { whole; part } -> Printf.sprintf "remove-part %d %d" whole part
  | Remove_ref { src; dst } -> Printf.sprintf "remove-ref %d %d" src dst
  | Delete oid -> Printf.sprintf "delete %d" oid
  | Set_hundred { oid; value } -> Printf.sprintf "set-hundred %d %d" oid value
  | Set_text { oid; value } -> Printf.sprintf "set-text %d %S" oid value
  | Set_dyn { oid; key; value } ->
    Printf.sprintf "set-dyn %d %s %d" oid key value
  | Text_edit oid -> Printf.sprintf "text-edit %d" oid
  | Form_edit { oid; x; y; w; h } ->
    Printf.sprintf "form-edit %d %d %d %d %d" oid x y w h
  | Lookup_unique { doc; uid } -> Printf.sprintf "lookup-unique %d %d" doc uid
  | Range_unique { doc; lo; hi } ->
    Printf.sprintf "range-unique %d %d %d" doc lo hi
  | Range_hundred { doc; lo; hi } ->
    Printf.sprintf "range-hundred %d %d %d" doc lo hi
  | Range_million { doc; lo; hi } ->
    Printf.sprintf "range-million %d %d %d" doc lo hi
  | Attrs oid -> Printf.sprintf "attrs %d" oid
  | Dyn_attr { oid; key } -> Printf.sprintf "dyn-attr %d %s" oid key
  | Children oid -> Printf.sprintf "children %d" oid
  | Parent oid -> Printf.sprintf "parent %d" oid
  | Parts oid -> Printf.sprintf "parts %d" oid
  | Part_of oid -> Printf.sprintf "part-of %d" oid
  | Refs_to oid -> Printf.sprintf "refs-to %d" oid
  | Refs_from oid -> Printf.sprintf "refs-from %d" oid
  | Text oid -> Printf.sprintf "text %d" oid
  | Form_digest oid -> Printf.sprintf "form-digest %d" oid
  | Scan doc -> Printf.sprintf "scan %d" doc
  | Node_count doc -> Printf.sprintf "node-count %d" doc
  | Closure_1n oid -> Printf.sprintf "closure-1n %d" oid
  | Closure_mn oid -> Printf.sprintf "closure-mn %d" oid
  | Closure_mnatt { start; depth } ->
    Printf.sprintf "closure-mnatt %d %d" start depth
  | Closure_1n_att_sum oid -> Printf.sprintf "closure-1n-att-sum %d" oid
  | Closure_1n_att_set oid -> Printf.sprintf "closure-1n-att-set %d" oid
  | Closure_1n_pred { start; x } -> Printf.sprintf "closure-1n-pred %d %d" start x
  | Closure_link_sum { start; depth } ->
    Printf.sprintf "closure-link-sum %d %d" start depth
  | Verify_checks -> "verify"
  | Doc_oids doc -> Printf.sprintf "doc-oids %d" doc
  | Store_results oids ->
    Printf.sprintf "store-results %s"
      (String.concat " " (List.map string_of_int oids))
  | Form_get oid -> Printf.sprintf "form-get %d" oid
  | Form_set { oid; width; height; data } ->
    Printf.sprintf "form-set %d %d %d %S" oid width height data

let bad line = failwith (Printf.sprintf "Trace.op_of_string: %S" line)

(* Split into whitespace tokens; a trailing quoted string (the only kind
   the grammar produces) is handled by the per-op parsers below. *)
let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* The remainder of [line] after its first [n] space-separated tokens —
   used to recover a trailing %S-quoted string verbatim. *)
let rest_after line n =
  let len = String.length line in
  let rec skip i remaining =
    if remaining = 0 then i
    else if i >= len then len
    else begin
      let j = ref i in
      while !j < len && line.[!j] <> ' ' do incr j done;
      while !j < len && line.[!j] = ' ' do incr j done;
      skip !j (remaining - 1)
    end
  in
  let start = skip (let i = ref 0 in
                    while !i < len && line.[!i] = ' ' do incr i done;
                    !i)
      n
  in
  String.sub line start (len - start)

let parse_quoted line s =
  try Scanf.sscanf s "%S" (fun x -> x) with Scanf.Scan_failure _ | End_of_file -> bad line

let op_of_string line =
  let int s = match int_of_string_opt s with Some n -> n | None -> bad line in
  match tokens line with
  | [ "begin" ] -> Begin
  | [ "commit" ] -> Commit
  | [ "abort" ] -> Abort
  | [ "clear-caches" ] -> Clear_caches
  | "create" :: oid :: doc :: uid :: ten :: hundred :: million :: near :: rest
    ->
    let payload =
      match rest with
      | [ "internal" ] -> P_internal
      | [ "draw" ] -> P_draw
      | [ "form"; w; h ] -> P_form (int w, int h)
      | "text" :: _ -> P_text (parse_quoted line (rest_after line 9))
      | _ -> bad line
    in
    let near = int near in
    Create
      { oid = int oid; doc = int doc; uid = int uid; ten = int ten;
        hundred = int hundred; million = int million;
        near = (if near = 0 then None else Some near); payload }
  | [ "add-child"; p; c ] -> Add_child { parent = int p; child = int c }
  | "add-children" :: p :: cs ->
    Add_children { parent = int p; children = List.map int cs }
  | [ "add-part"; w; p ] -> Add_part { whole = int w; part = int p }
  | "add-parts" :: w :: ps -> Add_parts { whole = int w; parts = List.map int ps }
  | [ "add-ref"; s; d; f; t ] ->
    Add_ref { src = int s; dst = int d; offset_from = int f; offset_to = int t }
  | [ "remove-child"; p; c ] -> Remove_child { parent = int p; child = int c }
  | [ "remove-part"; w; p ] -> Remove_part { whole = int w; part = int p }
  | [ "remove-ref"; s; d ] -> Remove_ref { src = int s; dst = int d }
  | [ "delete"; oid ] -> Delete (int oid)
  | [ "set-hundred"; oid; v ] -> Set_hundred { oid = int oid; value = int v }
  | "set-text" :: oid :: _ ->
    Set_text { oid = int oid; value = parse_quoted line (rest_after line 2) }
  | [ "set-dyn"; oid; key; v ] -> Set_dyn { oid = int oid; key; value = int v }
  | [ "text-edit"; oid ] -> Text_edit (int oid)
  | [ "form-edit"; oid; x; y; w; h ] ->
    Form_edit { oid = int oid; x = int x; y = int y; w = int w; h = int h }
  | [ "lookup-unique"; doc; uid ] ->
    Lookup_unique { doc = int doc; uid = int uid }
  | [ "range-unique"; doc; lo; hi ] ->
    Range_unique { doc = int doc; lo = int lo; hi = int hi }
  | [ "range-hundred"; doc; lo; hi ] ->
    Range_hundred { doc = int doc; lo = int lo; hi = int hi }
  | [ "range-million"; doc; lo; hi ] ->
    Range_million { doc = int doc; lo = int lo; hi = int hi }
  | [ "attrs"; oid ] -> Attrs (int oid)
  | [ "dyn-attr"; oid; key ] -> Dyn_attr { oid = int oid; key }
  | [ "children"; oid ] -> Children (int oid)
  | [ "parent"; oid ] -> Parent (int oid)
  | [ "parts"; oid ] -> Parts (int oid)
  | [ "part-of"; oid ] -> Part_of (int oid)
  | [ "refs-to"; oid ] -> Refs_to (int oid)
  | [ "refs-from"; oid ] -> Refs_from (int oid)
  | [ "text"; oid ] -> Text (int oid)
  | [ "form-digest"; oid ] -> Form_digest (int oid)
  | [ "scan"; doc ] -> Scan (int doc)
  | [ "node-count"; doc ] -> Node_count (int doc)
  | [ "closure-1n"; oid ] -> Closure_1n (int oid)
  | [ "closure-mn"; oid ] -> Closure_mn (int oid)
  | [ "closure-mnatt"; s; d ] -> Closure_mnatt { start = int s; depth = int d }
  | [ "closure-1n-att-sum"; oid ] -> Closure_1n_att_sum (int oid)
  | [ "closure-1n-att-set"; oid ] -> Closure_1n_att_set (int oid)
  | [ "closure-1n-pred"; s; x ] -> Closure_1n_pred { start = int s; x = int x }
  | [ "closure-link-sum"; s; d ] ->
    Closure_link_sum { start = int s; depth = int d }
  | [ "verify" ] -> Verify_checks
  | [ "doc-oids"; doc ] -> Doc_oids (int doc)
  | "store-results" :: oids -> Store_results (List.map int oids)
  | [ "form-get"; oid ] -> Form_get (int oid)
  | "form-set" :: oid :: width :: height :: _ ->
    Form_set
      { oid = int oid; width = int width; height = int height;
        data = parse_quoted line (rest_after line 4) }
  | _ -> bad line
