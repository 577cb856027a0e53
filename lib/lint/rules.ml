(* Typedtree-level checks.  Each rule is a structural (and, for V4, a
   type-level) pattern over the tree the compiler already elaborated, so
   module aliases, [open]s and type abbreviations are resolved for us.
   The checks deliberately approximate in the direction of precision:
   a site that trips a rule legitimately carries a
   [@lint.allow "rule-id"] attribute or an allowlist entry, and the
   remaining blind spots (e.g. a polymorphic compare whose type the
   inferencer already expanded to [int]) are accepted rather than
   guessed at. *)

open Typedtree

let v1 = "vfs-boundary"
let v2 = "no-catchall-swallow"
let v3 = "pin-balance"
let v4 = "no-poly-compare-on-oid"
let v5 = "deterministic-iteration"
let v6 = "monotonic-time"
let v7 = "epoch-check"
let v8 = "no-page-copy"
let v9 = "lock-order"
let v10 = "no-blocking-under-mutex"
let v11 = "sync-wrapper-only"
let v12 = "one-checksum"

let all =
  [
    (v1, "direct Unix/ExtUnix file I/O outside lib/storage/{vfs,extUnix}.ml");
    (v2, "catch-all exception handler that never re-raises");
    (v3, "Buffer_pool.pin without an unpin in the enclosing binding");
    (v4, "polymorphic =/<>/compare/Hashtbl.hash instantiated at Oid.t");
    (v5, "Hashtbl iteration order flowing into an unsorted list result");
    (v6, "Unix.gettimeofday (wall clock) outside lib/util");
    (v7, "replication frame pattern that wildcards the frame or its epoch");
    (v8, "Bytes.copy/Bytes.sub of a page buffer outside lib/storage");
    (v9, "Sync.Mutex acquisition against the declared rank order");
    (v10, "blocking call lexically inside a Sync.Mutex critical section");
    (v11, "raw Mutex.create/Condition.create outside lib/util");
    (v12,
     "a top-level checksum/crc/crc32 binding outside lib/storage/page.ml, \
      or a Page.checksum call outside page.ml, pager.ml and frame_codec.ml");
  ]

type result = { findings : Finding.t list; suppressed : Finding.t list }

(* {2 Small helpers over compiler-libs data} *)

(* "Hyper_storage__Buffer_pool" is the mangled unit name of the wrapped
   module "Buffer_pool"; accept both spellings everywhere. *)
let part_matches m part =
  part = m || String.ends_with ~suffix:("__" ^ m) part

let path_parts p = String.split_on_char '.' (Path.name p)

let ident_path e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

(* Head of an application chain: [head_of (f a b)] is [f]. *)
let rec head_of e =
  match e.exp_desc with Texp_apply (f, _) -> head_of f | _ -> e

let head_constr_parts ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (path_parts p)
  | _ -> None

let arrow_first ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

let is_oid_type ty =
  match head_constr_parts ty with
  | Some parts -> (
      match List.rev parts with
      | "t" :: owner :: _ -> part_matches "Oid" owner
      | _ -> false)
  | None -> false

let is_list_type ty =
  match head_constr_parts ty with
  | Some [ "list" ] -> true
  | Some _ | None -> false

(* A replication frame: any type [t] owned by a module whose name (or
   wrapped-unit suffix) is [Frame]. *)
let is_frame_type ty =
  match head_constr_parts ty with
  | Some parts -> (
      match List.rev parts with
      | "t" :: owner :: _ -> part_matches "Frame" owner
      | _ -> false)
  | None -> false

(* {2 [@lint.allow] attributes} *)

let allow_strings (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "lint.allow" then []
      else
        match a.attr_payload with
        | Parsetree.PStr
            [ { pstr_desc = Parsetree.Pstr_eval (e, _); _ } ] -> (
            let string_const (e : Parsetree.expression) =
              match e.pexp_desc with
              | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) ->
                  Some s
              | _ -> None
            in
            match e.pexp_desc with
            | Parsetree.Pexp_tuple es -> List.filter_map string_const es
            | _ -> Option.to_list (string_const e))
        | _ -> [])
    attrs

(* An allow payload is either a bare rule id or ["rule-id: reason"].
   [no-blocking-under-mutex] demands the reasoned form: every waived
   blocking call must say *why* it is safe, right in the payload. *)
let allow_covers ~rule s =
  if String.equal s rule then not (String.equal rule v10)
  else
    match String.index_opt s ':' with
    | Some i ->
        String.equal (String.trim (String.sub s 0 i)) rule
        && String.trim (String.sub s (i + 1) (String.length s - i - 1)) <> ""
    | None -> false

(* {2 Sub-tree scans} *)

exception Found

let expr_exists pred e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          if pred e then raise Found;
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  match it.expr it e with () -> false | exception Found -> true

let mentions_unpin =
  expr_exists (fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> Path.last p = "unpin"
      | _ -> false)

(* Any use of [raise]/[raise_notrace] counts as a re-raise; a handler
   that raises a *different* exception still discards the original, but
   distinguishing that would need value tracking — the rule stays
   syntactic. *)
let has_raise =
  expr_exists (fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) ->
          let n = Path.last p in
          n = "raise" || n = "raise_notrace" || n = "reraise"
      | _ -> false)

(* [r := x :: !r] anywhere below [e] — the list-accumulating iteration
   callback shape. *)
let accumulates_cons =
  expr_exists (fun e ->
      match e.exp_desc with
      | Texp_apply (f, [ (_, Some _); (_, Some rhs) ]) -> (
          match f.exp_desc with
          | Texp_ident (p, _, _) when Path.last p = ":=" -> (
              match rhs.exp_desc with
              | Texp_construct (_, cd, _) -> cd.Types.cstr_name = "::"
              | _ -> false)
          | _ -> false)
      | _ -> false)

(* A value pattern that matches every exception. *)
let rec catch_all_pat (p : pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> true
  | Tpat_or (a, b, _) -> catch_all_pat a || catch_all_pat b
  | _ -> false

let sortish e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match Path.last p with
      | "sort" | "sort_uniq" | "stable_sort" | "fast_sort" -> true
      | _ -> false)
  | _ -> false

(* An application is a "sorting context" when its head or one of its
   arguments is a sort: covers both [List.sort cmp (fold ...)] and
   [fold ... |> List.sort_uniq cmp]. *)
let is_sort_context fn args =
  sortish (head_of fn)
  || List.exists
       (fun (_, a) ->
         match a with Some ae -> sortish (head_of ae) | None -> false)
       args

(* {2 The pass} *)

let unix_io_names =
  [
    "read"; "write"; "single_write"; "write_substring"; "openfile";
    "ftruncate"; "fsync"; "fdatasync"; "lseek";
  ]

let ext_unix_io_names = [ "pread"; "pwrite" ]

let source_under prefix source =
  String.length source >= String.length prefix
  && String.sub source 0 (String.length prefix) = prefix

let v5_in_scope source =
  source_under "lib/reldb" source
  || source_under "lib/txn" source
  || source_under "lib/check" source

(* {2 Concurrency prepass (V9/V10)}

   A whole-project phase run before the per-unit pass.  It harvests:

   - the declared lock-rank table, from every
     [Sync.Mutex.create ?rank "name"] site whose arguments are
     literals; the lock's {e binder} (the let-bound variable or record
     field label it is stored in) is remembered per source file, so a
     later [Sync.Mutex.lock t.m] can be resolved back to its class;
   - one-level function summaries — for every [let f ... = body] in a
     scanned unit, the lock classes [body] acquires directly and the
     blocking calls it makes directly.  Callers check a callee's
     summary against their own held set; the summaries are not closed
     transitively (one level, as advertised). *)

type summary = {
  mutable s_acquires : (string * int option) list;  (* class, rank *)
  mutable s_blocks : string list;  (* display names of blocking calls *)
}

type pre = {
  ranks : (string, int option) Hashtbl.t;  (* lock class -> rank *)
  binds : (string * string, string) Hashtbl.t;
      (* (source basename, binder name) -> lock class *)
  summaries : (string * string, summary) Hashtbl.t;
      (* (module name, function name) -> summary *)
}

let empty_pre () =
  { ranks = Hashtbl.create 16; binds = Hashtbl.create 16;
    summaries = Hashtbl.create 64 }

(* Strip the wrapped-unit prefix: "Hyper_storage__Group_commit" ->
   "Group_commit". *)
let norm_mod m =
  let n = String.length m in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if m.[i] = '_' && m.[i + 1] = '_' then last_sep (i + 1) (Some (i + 1))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i -> String.sub m (i + 1) (n - i - 1)
  | None -> m

let unit_module source =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename source))

(* [Sync.Mutex.create]: the wrapper's own create, as opposed to a raw
   [Stdlib.Mutex.create] (V11 flags the latter). *)
let is_sync_create p =
  match List.rev (path_parts p) with
  | "create" :: owner :: rest ->
      part_matches "Mutex" owner && List.exists (part_matches "Sync") rest
  | _ -> false

let is_sync_op op p =
  match List.rev (path_parts p) with
  | name :: owner :: rest ->
      String.equal name op && part_matches "Mutex" owner
      && List.exists (part_matches "Sync") rest
  | _ -> false

let string_lit e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
  | _ -> None

let int_lit e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_int n) -> Some n
  | _ -> None

(* [~rank:30] reaches the typedtree wrapped in the [Some] the compiler
   inserts for a supplied optional argument. *)
let rank_lit e =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ arg ]) -> int_lit arg
  | _ -> int_lit e

(* If [e] is [Sync.Mutex.create ?rank "name"] with literal arguments,
   its (class, rank). *)
let create_class e =
  match e.exp_desc with
  | Texp_apply (fn, args) -> (
      match ident_path fn with
      | Some p when is_sync_create p ->
          let name =
            List.find_map
              (fun (lbl, a) ->
                match (lbl, a) with
                | Asttypes.Nolabel, Some ae -> string_lit ae
                | _ -> None)
              args
          in
          let rank =
            List.find_map
              (fun (lbl, a) ->
                match (lbl, a) with
                | (Asttypes.Labelled "rank" | Asttypes.Optional "rank"), Some ae
                  ->
                    rank_lit ae
                | _ -> None)
              args
          in
          Option.map (fun n -> (n, rank)) name
      | _ -> None)
  | _ -> None

(* Resolve a lock expression ([t.m], [db_mutex]) to its class via the
   binder table of the current source file. *)
let lock_class pre ~base arg =
  let key n = Hashtbl.find_opt pre.binds (base, n) in
  match arg.exp_desc with
  | Texp_ident (p, _, _) -> key (Path.last p)
  | Texp_field (_, _, lbl) -> key lbl.Types.lbl_name
  | _ -> None

(* Calls that park the thread (or the disk) while made: taking any of
   these with a Sync lock held starves every peer of that lock.
   [Sync.Condition.wait] is exempt — it releases the mutex. *)
let blocking_call p =
  match List.rev (path_parts p) with
  | name :: owner :: _ ->
      let unixish =
        part_matches "Unix" owner || part_matches "UnixLabels" owner
      in
      let is n = String.equal name n in
      if
        unixish
        && (is "read" || is "write" || is "single_write"
           || is "write_substring" || is "select" || is "sleep" || is "sleepf"
           || is "connect" || is "accept" || is "close" || is "fsync"
           || is "fdatasync")
        || (part_matches "Thread" owner && (is "delay" || is "join"))
        || (part_matches "Wal" owner && (is "sync" || is "sync_file"))
      then Some (Path.name p)
      else None
  | _ -> None

let prepass units =
  let pre = empty_pre () in
  (* Phase a: lock classes and their binders. *)
  let harvest_create ~base name e =
    match create_class e with
    | Some (cls, rank) ->
        if not (Hashtbl.mem pre.ranks cls) then Hashtbl.add pre.ranks cls rank;
        if name <> "" && not (Hashtbl.mem pre.binds (base, name)) then
          Hashtbl.add pre.binds (base, name) cls
    | None -> ()
  in
  List.iter
    (fun (source, str) ->
      let base = Filename.basename source in
      let it =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun sub e ->
              (match e.exp_desc with
              | Texp_record { fields; _ } ->
                  Array.iter
                    (fun (lbl, def) ->
                      match def with
                      | Overridden (_, fe) ->
                          harvest_create ~base lbl.Types.lbl_name fe
                      | Kept _ -> ())
                    fields
              | _ -> ());
              Tast_iterator.default_iterator.expr sub e);
          value_binding =
            (fun sub vb ->
              (match pat_bound_idents vb.vb_pat with
              | [ id ] -> harvest_create ~base (Ident.name id) vb.vb_expr
              | _ -> ());
              Tast_iterator.default_iterator.value_binding sub vb);
        }
      in
      it.structure it str)
    units;
  (* Phase b: one-level summaries of every bound function. *)
  List.iter
    (fun (source, str) ->
      let base = Filename.basename source in
      let m = unit_module source in
      let summarize name body =
        let s =
          match Hashtbl.find_opt pre.summaries (m, name) with
          | Some s -> s
          | None ->
              let s = { s_acquires = []; s_blocks = [] } in
              Hashtbl.add pre.summaries (m, name) s;
              s
        in
        let note_acquire cls =
          if not (List.mem_assoc cls s.s_acquires) then
            s.s_acquires <-
              (cls, Option.join (Hashtbl.find_opt pre.ranks cls))
              :: s.s_acquires
        in
        let it =
          {
            Tast_iterator.default_iterator with
            expr =
              (fun sub e ->
                (match e.exp_desc with
                | Texp_apply (fn, (_, Some arg) :: _) -> (
                    match ident_path fn with
                    | Some p
                      when is_sync_op "lock" p || is_sync_op "try_lock" p
                           || is_sync_op "with_lock" p -> (
                        match lock_class pre ~base arg with
                        | Some cls -> note_acquire cls
                        | None -> ())
                    | _ -> ())
                | Texp_ident (p, _, _) -> (
                    match blocking_call p with
                    | Some d ->
                        if not (List.mem d s.s_blocks) then
                          s.s_blocks <- d :: s.s_blocks
                    | None -> ())
                | _ -> ());
                Tast_iterator.default_iterator.expr sub e);
          }
        in
        it.expr it body
      in
      let it =
        {
          Tast_iterator.default_iterator with
          value_binding =
            (fun sub vb ->
              (match (pat_bound_idents vb.vb_pat, vb.vb_expr.exp_desc) with
              | [ id ], Texp_function _ -> summarize (Ident.name id) vb.vb_expr
              | _ -> ());
              Tast_iterator.default_iterator.value_binding sub vb);
        }
      in
      it.structure it str)
    units;
  pre

type ctx = {
  source : string;
  base : string;  (* Filename.basename source *)
  unit_mod : string;  (* module name of this unit, for summary lookups *)
  pre : pre;
  scope_all : bool;
  mutable active_allows : string list;  (* stack-scoped [@lint.allow] ids *)
  mutable sort_depth : int;  (* > 0 inside a sorting application *)
  mutable bindings : (string * bool) list;  (* (name, mentions unpin) *)
  mutable held : (string * int option) list;  (* lexically held Sync locks *)
  mutable findings : Finding.t list;
  mutable suppressed : Finding.t list;
}

let check_structure ?pre ~scope_all ~source (str : structure) =
  let ctx =
    {
      source;
      base = Filename.basename source;
      unit_mod = unit_module source;
      pre = (match pre with Some p -> p | None -> empty_pre ());
      scope_all;
      active_allows = [];
      sort_depth = 0;
      bindings = [];
      held = [];
      findings = [];
      suppressed = [];
    }
  in
  let flag ?(extra_allows = []) rule (loc : Location.t) message hint =
    let pos = loc.loc_start in
    let f =
      {
        Finding.rule;
        file = ctx.source;
        line = pos.pos_lnum;
        col = pos.pos_cnum - pos.pos_bol;
        message;
        hint;
      }
    in
    if List.exists (allow_covers ~rule) (extra_allows @ ctx.active_allows)
    then ctx.suppressed <- f :: ctx.suppressed
    else ctx.findings <- f :: ctx.findings
  in
  let check_ident e p =
    let parts = path_parts p in
    let rev = List.rev parts in
    (match rev with
    | name :: owner ->
        (* V1: the Vfs seam.  [lib/storage/vfs.ml] and its pread/pwrite
           shim are the only files allowed to touch the OS directly. *)
        let v1_hit =
          (List.mem name unix_io_names
          && List.exists (fun m -> part_matches "Unix" m || part_matches "UnixLabels" m) owner)
          || (List.mem name ext_unix_io_names
             && List.exists (part_matches "ExtUnix") owner)
        in
        if v1_hit && ctx.base <> "vfs.ml" && ctx.base <> "extUnix.ml" then
          flag v1 e.exp_loc
            (Printf.sprintf "direct I/O call `%s` bypasses the Vfs seam"
               (Path.name p))
            "route the operation through a Vfs.t (lib/storage/vfs.ml); \
             only vfs.ml/extUnix.ml may call Unix I/O directly";
        (* V6: the wall clock.  Unix.gettimeofday moves with NTP steps,
           so any timing or deadline derived from it can go negative or
           wildly wrong mid-run; lib/util owns the monotonic source
           (Mtime_stub, with gettimeofday only as a clamped fallback). *)
        if
          name = "gettimeofday"
          && List.exists
               (fun m ->
                 part_matches "Unix" m || part_matches "UnixLabels" m)
               owner
          && not (source_under "lib/util" ctx.source)
        then
          flag v6 e.exp_loc
            "Unix.gettimeofday is wall-clock time; NTP steps make \
             derived timings and deadlines wrong"
            "use Hyper_util.Mtime_stub.now_ns (or Vclock) for durations \
             and deadlines; only lib/util may read the wall clock"
    | [] -> ());
    (* V11: the Sync wrapper is the only mutex/condition source.  Raw
       primitives dodge the lockdep detector and the lint rules alike;
       [lib/util] (the wrapper's home) is the one place allowed. *)
    (match rev with
    | "create" :: owner :: rest
      when (part_matches "Mutex" owner || part_matches "Condition" owner)
           && not (List.exists (part_matches "Sync") rest)
           && not (source_under "lib/util" ctx.source) ->
        flag v11 e.exp_loc
          (Printf.sprintf
             "raw `%s` bypasses Hyper_util.Sync (no lockdep, no metrics, \
              no rank)"
             (Path.name p))
          "create the lock with Hyper_util.Sync.Mutex.create ?rank \
           \"area.module.role\" (Condition via Sync.Condition.create)"
    | _ -> ());
    (* V12, second half: one framing.  Pages are checksummed by the
       pager, every message by the frame codec; a checksum call anywhere
       else is a codec growing its own framing again. *)
    (match rev with
    | ("checksum" | "checksum_update") :: owner :: _
      when part_matches "Page" owner
           && not
                (List.mem ctx.source
                   [ "lib/storage/page.ml"; "lib/storage/pager.ml";
                     "lib/storage/frame_codec.ml" ]) ->
        flag v12 e.exp_loc
          (Printf.sprintf "`%s` called outside the pager and the frame codec"
             (Path.name p))
          "frame the bytes with Hyper_storage.Frame_codec.write/check; it \
           is the one place a message is checksummed"
    | _ -> ());
    (* V10: blocking calls lexically inside a critical section. *)
    (match blocking_call p with
    | Some display when ctx.held <> [] ->
        flag v10 e.exp_loc
          (Printf.sprintf "blocking call `%s` while holding %s" display
             (String.concat ", "
                (List.map (fun (c, _) -> Printf.sprintf "%S" c) ctx.held)))
          "move the call outside the critical section (snapshot under the \
           lock, act after unlock), or waive with \
           [@lint.allow \"no-blocking-under-mutex: <why it is safe>\"]"
    | _ -> ());
    (* V3: pin balance. *)
    (match rev with
    | "pin" :: owner
      when List.exists (part_matches "Buffer_pool") owner
           || ctx.base = "buffer_pool.ml" ->
        let enclosing_unpins = List.exists snd ctx.bindings in
        let defining_pin =
          match ctx.bindings with ("pin", _) :: _ -> true | _ -> false
        in
        if not (enclosing_unpins || defining_pin) then
          flag v3 e.exp_loc
            "Buffer_pool.pin with no unpin in the enclosing binding"
            "pair pin with unpin in a Fun.protect ~finally, or use \
             with_page/with_pages"
    | _ -> ());
    (* V4: polymorphic structural ops at Oid.t.  The ident's type is the
       instantiation, so both applied ([a = b]) and first-class uses
       ([List.sort compare oids]) are caught. *)
    let poly_op =
      match parts with
      | [ "Stdlib"; ("=" | "<>" | "compare") ] -> Some (List.nth parts 1)
      | _ -> (
          match rev with
          | "hash" :: owner :: _ when part_matches "Hashtbl" owner ->
              Some "Hashtbl.hash"
          | _ -> None)
    in
    match poly_op with
    | Some op -> (
        match arrow_first e.exp_type with
        | Some a when is_oid_type a ->
            flag v4 e.exp_loc
              (Printf.sprintf "polymorphic `%s` instantiated at Oid.t" op)
              "use Oid.equal / Oid.compare (or a keyed hash) so the code \
               survives Oid.t gaining structure"
        | _ -> ())
    | None -> ()
  in
  let check_catch_all_case ~what (guard : expression option)
      (pat_loc : Location.t) (rhs : expression) =
    if Option.is_none guard && not (has_raise rhs) then
      flag v2 ~extra_allows:(allow_strings rhs.exp_attributes) pat_loc
        (what
       ^ " can swallow Storage_error.Error and Vfs.Crash crash points")
        "match explicit exception constructors, add a `when` guard that \
         re-raises crash faults, or re-raise"
  in
  (* V8: page-buffer copies above the storage layer.  The zero-copy read
     path (Pager.read_view → Buffer_pool → Slotted.view → Heap.read_with)
     exists so consumers decode records in place; a [Bytes.copy page] or
     [Bytes.sub page ...] outside lib/storage reintroduces the per-read
     allocation the path was built to remove.  "Page buffer" is
     approximated by the argument's name — [page] or [*_page], the
     binder every pinned-frame callback in this codebase uses. *)
  let is_page_name n = n = "page" || String.ends_with ~suffix:"_page" n in
  let check_page_copy e =
    if not (source_under "lib/storage" ctx.source) then
      match e.exp_desc with
      | Texp_apply (fn, (_, Some arg) :: _) -> (
          match ident_path fn with
          | Some p -> (
              match List.rev (path_parts p) with
              | (("copy" | "sub") as op) :: owner :: _
                when part_matches "Bytes" owner -> (
                  match arg.exp_desc with
                  | Texp_ident (ap, _, _) when is_page_name (Path.last ap) ->
                      flag v8 e.exp_loc
                        (Printf.sprintf
                           "Bytes.%s of page buffer `%s` copies what the \
                            zero-copy read path pins in place"
                           op (Path.last ap))
                        "decode in place via Slotted.view / Heap.read_with \
                         (Codec.decode_at takes ~off/~len); copy only what \
                         outlives the pin"
                  | _ -> ())
              | _ -> ())
          | None -> ())
      | _ -> ()
  in
  let check_expr e =
    (match ident_path e with
    | Some p -> check_ident e p
    | None -> ());
    check_page_copy e;
    match e.exp_desc with
    | Texp_try (_, cases) ->
        List.iter
          (fun c ->
            if catch_all_pat c.c_lhs then
              check_catch_all_case ~what:"catch-all `try ... with` handler"
                c.c_guard c.c_lhs.pat_loc c.c_rhs)
          cases
    | Texp_match (_, cases, _) ->
        List.iter
          (fun c ->
            match split_pattern c.c_lhs with
            | _, Some ep when catch_all_pat ep ->
                check_catch_all_case ~what:"catch-all `exception` case"
                  c.c_guard ep.pat_loc c.c_rhs
            | _ -> ())
          cases
    | Texp_apply (fn, args)
      when ctx.scope_all || v5_in_scope ctx.source -> (
        match ident_path fn with
        | Some p -> (
            match List.rev (path_parts p) with
            | "fold" :: owner :: _ when part_matches "Hashtbl" owner ->
                if is_list_type e.exp_type && ctx.sort_depth = 0 then
                  flag v5 e.exp_loc
                    "Hashtbl.fold builds a list in hash-iteration order \
                     with no sort in sight"
                    "sort the result with a keyed comparator (e.g. \
                     List.sort Int.compare), or iterate a sorted key list"
            | "iter" :: owner :: _ when part_matches "Hashtbl" owner ->
                if
                  List.exists
                    (fun (_, a) ->
                      match a with
                      | Some ae -> accumulates_cons ae
                      | None -> false)
                    args
                then
                  flag v5 e.exp_loc
                    "Hashtbl.iter accumulates a list in hash-iteration \
                     order"
                    "collect then sort with a keyed comparator, or \
                     iterate a sorted key list"
            | _ -> ())
        | None -> ())
    | _ -> ()
  in
  (* V7: epoch fencing.  Every protocol decision starts from the frame's
     epoch — a handler that matches a whole [Frame.t] with a wildcard,
     or wildcards/omits the [epoch] field of a frame constructor, will
     happily act on a stale-epoch frame from a deposed primary.  Named
     binders (including [_epoch]) pass: they keep the field visible at
     the match site. *)
  let v7_hint =
    "enumerate the frame constructors and bind their epoch field (a \
     named binder like _epoch is fine)"
  in
  let check_frame_pat (p : pattern) =
    match p.pat_desc with
    | Tpat_any when is_frame_type p.pat_type ->
        flag v7 ~extra_allows:(allow_strings p.pat_attributes) p.pat_loc
          "wildcard pattern at Frame.t matches frames of any epoch"
          v7_hint
    | Tpat_construct (_, cstr, args, _) when is_frame_type p.pat_type ->
        List.iter
          (fun (arg : pattern) ->
            let flag_arg msg =
              flag v7 ~extra_allows:(allow_strings arg.pat_attributes)
                arg.pat_loc msg v7_hint
            in
            match arg.pat_desc with
            | Tpat_record (fields, closed) ->
                let epoch_field =
                  List.find_opt
                    (fun (_, lbl, _) -> lbl.Types.lbl_name = "epoch")
                    fields
                in
                (match epoch_field with
                | Some (_, _, { pat_desc = Tpat_any; _ }) ->
                    flag_arg
                      (Printf.sprintf
                         "frame handler for `%s` wildcards the epoch field"
                         cstr.Types.cstr_name)
                | Some _ -> ()
                | None ->
                    if closed = Asttypes.Open then
                      flag_arg
                        (Printf.sprintf
                           "frame handler for `%s` never binds the epoch \
                            field"
                           cstr.Types.cstr_name))
            | Tpat_any when cstr.Types.cstr_inlined <> None ->
                flag_arg
                  (Printf.sprintf
                     "frame handler for `%s` wildcards the whole payload, \
                      epoch included"
                     cstr.Types.cstr_name)
            | _ -> ())
          args
    | _ -> ()
  in
  (* V9: the declared rank order — strictly increasing along the
     acquisition chain (same-class nesting skipped, like the runtime
     detector). *)
  let check_acquire ~via loc cls rank =
    match rank with
    | None -> ()
    | Some r ->
        List.iter
          (fun (hc, hr) ->
            match hr with
            | Some hr when hr >= r && not (String.equal hc cls) ->
                flag v9 loc
                  (Printf.sprintf
                     "%s acquires %S (rank %d) while %S (rank %d) is held; \
                      ranks must strictly increase"
                     via cls r hc hr)
                  "acquire locks in ascending declared rank (see DESIGN.md \
                   §17), or re-rank the hierarchy deliberately"
            | _ -> ())
          ctx.held
  in
  let summary_of p =
    match List.rev (path_parts p) with
    | [ fn ] -> Hashtbl.find_opt ctx.pre.summaries (ctx.unit_mod, fn)
    | fn :: owner :: _ -> Hashtbl.find_opt ctx.pre.summaries (norm_mod owner, fn)
    | [] -> None
  in
  (* Lock bookkeeping for one application node.  Returns the classes to
     treat as held while traversing the node's sub-expressions (the
     [with_lock]/summarized-callee bracket); [lock]/[unlock] mutate
     [ctx.held] persistently instead. *)
  let conc_apply e =
    match e.exp_desc with
    | Texp_apply (fn, ((_, Some arg0) :: _ as _args)) -> (
        match ident_path fn with
        | Some p when is_sync_op "lock" p || is_sync_op "try_lock" p -> (
            match lock_class ctx.pre ~base:ctx.base arg0 with
            | Some cls ->
                let rank = Option.join (Hashtbl.find_opt ctx.pre.ranks cls) in
                check_acquire ~via:"Sync.Mutex.lock" e.exp_loc cls rank;
                ctx.held <- (cls, rank) :: ctx.held;
                []
            | None -> [])
        | Some p when is_sync_op "unlock" p -> (
            match lock_class ctx.pre ~base:ctx.base arg0 with
            | Some cls ->
                let rec drop = function
                  | [] -> []
                  | (c, _) :: rest when String.equal c cls -> rest
                  | h :: rest -> h :: drop rest
                in
                ctx.held <- drop ctx.held;
                []
            | None -> [])
        | Some p when is_sync_op "with_lock" p -> (
            match lock_class ctx.pre ~base:ctx.base arg0 with
            | Some cls ->
                let rank = Option.join (Hashtbl.find_opt ctx.pre.ranks cls) in
                check_acquire ~via:"Sync.Mutex.with_lock" e.exp_loc cls rank;
                [ (cls, rank) ]
            | None -> [])
        | Some p -> (
            (* One-level inter-procedural step: the callee's summary. *)
            match summary_of p with
            | Some s ->
                List.iter
                  (fun (cls, rank) ->
                    check_acquire
                      ~via:(Printf.sprintf "`%s`" (Path.name p))
                      e.exp_loc cls rank)
                  s.s_acquires;
                if ctx.held <> [] && s.s_blocks <> [] then
                  flag v10 e.exp_loc
                    (Printf.sprintf
                       "`%s` blocks (%s) and is called while holding %s"
                       (Path.name p)
                       (String.concat ", " s.s_blocks)
                       (String.concat ", "
                          (List.map
                             (fun (c, _) -> Printf.sprintf "%S" c)
                             ctx.held)))
                    "restructure so the blocking callee runs outside the \
                     critical section, or waive with [@lint.allow \
                     \"no-blocking-under-mutex: <why it is safe>\"]";
                s.s_acquires
            | None -> [])
        | None -> [])
    | _ -> []
  in
  let default = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match classify_pattern p with
    | Value -> check_frame_pat (p : value general_pattern)
    | Computation -> ());
    default.pat sub p
  in
  let expr sub e =
    let saved = ctx.active_allows in
    ctx.active_allows <- allow_strings e.exp_attributes @ ctx.active_allows;
    check_expr e;
    let bracket = conc_apply e in
    let held0 = ctx.held in
    ctx.held <- bracket @ ctx.held;
    (match e.exp_desc with
    | Texp_apply (fn, args) when is_sort_context fn args ->
        ctx.sort_depth <- ctx.sort_depth + 1;
        default.expr sub e;
        ctx.sort_depth <- ctx.sort_depth - 1
    | Texp_ifthenelse (c, t, eo) ->
        (* Each branch starts from the pre-branch held set, and nothing
           a branch locks or unlocks leaks past the conditional. *)
        sub.Tast_iterator.expr sub c;
        let h = ctx.held in
        sub.Tast_iterator.expr sub t;
        ctx.held <- h;
        (match eo with
        | Some el ->
            sub.Tast_iterator.expr sub el;
            ctx.held <- h
        | None -> ())
    | Texp_match (scrut, cases, _) ->
        sub.Tast_iterator.expr sub scrut;
        let h = ctx.held in
        List.iter
          (fun c ->
            sub.Tast_iterator.case sub c;
            ctx.held <- h)
          cases
    | Texp_try (body, cases) ->
        sub.Tast_iterator.expr sub body;
        let h = ctx.held in
        List.iter
          (fun c ->
            sub.Tast_iterator.case sub c;
            ctx.held <- h)
          cases
    | Texp_function _ ->
        (* A lambda inherits the lexically held set (the with_lock /
           Fun.protect idiom), but its own lock traffic must not leak
           into siblings evaluated elsewhere. *)
        let h = ctx.held in
        default.expr sub e;
        ctx.held <- h
    | _ -> default.expr sub e);
    (match bracket with [] -> () | _ -> ctx.held <- held0);
    ctx.active_allows <- saved
  in
  let value_binding sub vb =
    let saved_allows = ctx.active_allows in
    ctx.active_allows <- allow_strings vb.vb_attributes @ ctx.active_allows;
    let name =
      match pat_bound_idents vb.vb_pat with
      | [ id ] -> Ident.name id
      | _ -> ""
    in
    ctx.bindings <- (name, mentions_unpin vb.vb_expr) :: ctx.bindings;
    default.value_binding sub vb;
    ctx.bindings <- List.tl ctx.bindings;
    ctx.active_allows <- saved_allows
  in
  (* V12: one checksum.  [Page.checksum] is the CRC-32 of pages and of
     every frame; a module-level [checksum]/[crc]/[crc32] elsewhere is a
     second kernel, or an alias hiding which one a codec uses. *)
  let check_checksum_binding vb =
    if ctx.source <> "lib/storage/page.ml" then
      List.iter
        (fun id ->
          match Ident.name id with
          | ("checksum" | "crc" | "crc32") as name ->
              flag v12 ~extra_allows:(allow_strings vb.vb_attributes)
                vb.vb_pat.pat_loc
                (Printf.sprintf "top-level `%s` outside lib/storage/page.ml"
                   name)
                "frame messages with Hyper_storage.Frame_codec; \
                 Page.checksum is the one CRC-32 kernel"
          | _ -> ())
        (pat_bound_idents vb.vb_pat)
  in
  let structure sub s =
    (* Floating [@@@lint.allow "..."] applies to the rest of the
       enclosing structure (commonly: the rest of the file). *)
    let saved = ctx.active_allows in
    List.iter
      (fun item ->
        (match item.str_desc with
        | Tstr_attribute a -> ctx.active_allows <- allow_strings [ a ] @ ctx.active_allows
        | Tstr_value (_, vbs) -> List.iter check_checksum_binding vbs
        | _ -> ());
        (* Lock tracking is per top-level definition. *)
        ctx.held <- [];
        sub.Tast_iterator.structure_item sub item)
      s.str_items;
    ctx.active_allows <- saved
  in
  let it = { default with expr; value_binding; structure; pat } in
  it.structure it str;
  { findings = List.rev ctx.findings; suppressed = List.rev ctx.suppressed }
