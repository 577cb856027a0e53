open Hyper_core
module Vfs = Hyper_storage.Vfs
module Storage_error = Hyper_storage.Storage_error
module M = Hyper_memdb.Memdb
module D = Hyper_diskdb.Diskdb
module R = Hyper_reldb.Reldb

type divergence = {
  step : int;
  op : Trace.op;
  oracle : Trace.outcome;
  subject : Trace.outcome;
  backend : string;
}

let pp_divergence ppf d =
  Format.fprintf ppf "@[<v>step %d on %s: %s@,  oracle:  %s@,  subject: %s@]"
    d.step d.backend (Trace.op_to_string d.op)
    (Trace.outcome_to_string d.oracle)
    (Trace.outcome_to_string d.subject)

let layout_of ~level = Layout.make ~doc:1 ~oid_base:0 ~leaf_level:level ()

(* {2 Subjects} *)

let is_crash = function
  | Vfs.Crash | Hyper_net.Client.Connection_lost _ -> true
  | _ -> false

type recovered = {
  state : Backend.instance;
  prefixes : int list;
  acked_durable : bool;
  note : string;
  catchups : int * int;
  release : unit -> unit;
}

type instance = {
  store : Backend.instance;
  env : Vfs.Faulty.env;
  apply : Trace.op -> Trace.outcome;
  before_op : int -> unit;
  recover : crashed:bool -> acked:int -> in_flight:bool -> recovered;
  close : unit -> unit;
}

type subject = { name : string; fresh : unit -> instance }

let generate ~gen_seed ~level (Backend.Instance ((module B), b)) =
  let module G = Generator.Make (B) in
  ignore (G.generate b ~doc:1 ~leaf_level:level ~seed:gen_seed)

(* Every store runs entirely over the in-memory fault-injecting VFS
   (quiet plan): no real files, no cleanup, and the crash loop arms
   faults on the very same seam. *)
let local ~name ~gen_seed ~level open_ =
  let layout = layout_of ~level in
  let fresh () =
    let env = Vfs.Faulty.create Vfs.Faulty.quiet in
    let vfs = Vfs.Faulty.vfs env in
    let store, close = open_ vfs in
    generate ~gen_seed ~level store;
    let recover ~crashed:_ ~acked ~in_flight =
      (* Power-fail, disarm, reopen: recovery replays the WAL over
         whatever the simulated disk retained.  A commit the crash
         interrupted may or may not have reached the log. *)
      Vfs.Faulty.set_plan env Vfs.Faulty.quiet;
      Vfs.Faulty.power_fail env;
      let state, release = open_ vfs in
      { state; prefixes = (if in_flight then [ acked; acked + 1 ] else [ acked ]);
        acked_durable = true; note = ""; catchups = (0, 0); release }
    in
    { store; env; apply = Trace.apply ~reraise:is_crash ~layout store;
      before_op = ignore; recover; close }
  in
  { name; fresh }

let oracle ~gen_seed ~level =
  local ~name:"memdb" ~gen_seed ~level (fun _ ->
      (Backend.Instance ((module M : Backend.S with type t = M.t), M.create ()),
       ignore))

let disk_instance db =
  Backend.Instance ((module D : Backend.S with type t = D.t), db)

let quietly close db () = try close db with Storage_error.Error _ -> ()

(* Small pools / caches keep the eviction, overflow and group-fetch
   paths hot at fuzzing sizes.  Durable stores enable group commit with
   a zero hold window: the fuzzers are single-threaded, so every group
   has one member and the barrier fires immediately — same
   fsync-per-commit semantics, but the whole scheduler path
   (register/lead/poison) runs under crash injection. *)
let disk_config ~durable ~remote vfs =
  let cfg =
    { (D.default_config ~path:"/fuzz/disk.db") with
      pool_pages = 96; object_cache = 64; uid_hash_index = true; remote;
      prefetch = remote <> None; vfs = Some vfs }
  in
  if not durable then cfg
  else
    { cfg with
      durable_sync = true;
      group_commit =
        Some { Hyper_storage.Group_commit.max_batch = 8; max_hold_ns = 0.0 } }

let crash_config vfs = disk_config ~durable:true ~remote:None vfs

type kind = Disk | Disk_remote | Rel

let kind_name = function
  | Disk -> "diskdb"
  | Disk_remote -> "diskdb-remote"
  | Rel -> "reldb"

let all_kinds = [ Disk; Disk_remote; Rel ]
let kind_of_name n = List.find_opt (fun k -> kind_name k = n) all_kinds

let subject ?(durable = false) ~gen_seed ~level kind =
  local ~name:(kind_name kind) ~gen_seed ~level (fun vfs ->
      match kind with
      | Disk | Disk_remote ->
        let remote =
          if kind = Disk_remote then Some Hyper_net.Channel.profile_test
          else None
        in
        let db = D.open_db (disk_config ~durable ~remote vfs) in
        (disk_instance db, quietly D.close db)
      | Rel ->
        let db =
          R.open_db
            { (R.default_config ~path:"/fuzz/rel.db") with
              pool_pages = 96; durable_sync = durable; vfs = Some vfs }
        in
        (Backend.Instance ((module R : Backend.S with type t = R.t), db),
         quietly R.close db))

(* {2 The differential check} *)

let diverge ~backend oracle subject ops =
  let rec go i = function
    | [] -> None
    | op :: rest ->
      let o = oracle op in
      let s = subject op in
      if Trace.outcome_equal o s then go (i + 1) rest
      else Some { step = i; op; oracle = o; subject = s; backend }
  in
  go 0 ops

let check ~oracle ~subject ops =
  let ops = ops @ [ Trace.Verify_checks ] in
  let o = oracle.fresh () in
  let s = subject.fresh () in
  let d = diverge ~backend:subject.name o.apply s.apply ops in
  o.close ();
  s.close ();
  d

(* Shrinking *)

(* A chunk is the unit whole-removal preserves trace shape on: a full
   Begin .. Commit/Abort block, or one op outside any block. *)
let chunk_ops ops =
  let chunks = ref [] and block = ref [] and in_block = ref false in
  List.iter
    (fun op ->
      match op with
      | Trace.Begin ->
          if !block <> [] then chunks := List.rev !block :: !chunks;
          in_block := true;
          block := [ op ]
      | (Trace.Commit | Trace.Abort) when !in_block ->
          in_block := false;
          chunks := List.rev (op :: !block) :: !chunks;
          block := []
      | _ when !in_block -> block := op :: !block
      | _ -> chunks := [ op ] :: !chunks)
    ops;
  if !block <> [] then chunks := List.rev !block :: !chunks;
  List.rev !chunks

(* Keep ops 0..step; if that cuts a transaction block open, close it so
   the subject is not left mid-transaction before the final verify. *)
let truncate_after ops step =
  let rec take i in_block acc = function
    | [] -> (acc, in_block)
    | op :: rest ->
        if i > step then (acc, in_block)
        else
          let in_block =
            match op with
            | Trace.Begin -> true
            | Trace.Commit | Trace.Abort -> false
            | _ -> in_block
          in
          take (i + 1) in_block (op :: acc) rest
  in
  let acc, open_block = take 0 false [] ops in
  List.rev (if open_block then Trace.Commit :: acc else acc)

let remove_nth l n = List.filteri (fun i _ -> i <> n) l

let shrink ~oracle ~subject ops d =
  let best_d = ref d in
  let attempt candidate =
    if candidate = [] then None
    else
      match check ~oracle ~subject candidate with
      | Some d ->
          best_d := d;
          Some candidate
      | None -> None
  in
  let current = ref ops in
  (* Truncation only helps if the trace still diverges without its tail
     (it should — the divergence is at d.step — but a cautious re-check
     keeps shrink total). *)
  (match attempt (truncate_after !current d.step) with
  | Some c -> current := c
  | None -> ());
  let changed = ref true in
  while !changed do
    changed := false;
    (* Pass 1: drop whole chunks (txn blocks / standalone ops), last
       chunk first — later chunks depend on earlier state, not vice
       versa, so they fall away easier. *)
    let continue_pass = ref true in
    while !continue_pass do
      continue_pass := false;
      let cs = chunk_ops !current in
      let n = List.length cs in
      (try
         for i = n - 1 downto 0 do
           let candidate = List.concat (remove_nth cs i) in
           match attempt candidate with
           | Some c ->
               current := c;
               changed := true;
               continue_pass := true;
               raise Exit
           | None -> ()
         done
       with Exit -> ())
    done;
    (* Pass 2: drop single ops inside surviving blocks.  Begin and
       Commit/Abort stay: a block disappears only whole (pass 1). *)
    let continue_pass = ref true in
    while !continue_pass do
      continue_pass := false;
      let arr = Array.of_list !current in
      (try
         for i = Array.length arr - 1 downto 0 do
           match arr.(i) with
           | Trace.Begin | Trace.Commit | Trace.Abort -> ()
           | _ -> (
               let candidate = remove_nth !current i in
               match attempt candidate with
               | Some c ->
                   current := c;
                   changed := true;
                   continue_pass := true;
                   raise Exit
               | None -> ())
         done
       with Exit -> ())
    done
  done;
  (!current, !best_d)

(* Every oid the probe suite must look at: the generated structure plus
   everything the trace ever created (probing since-deleted or
   never-committed oids is fine — both sides must fail identically). *)
let probe_oids layout ops =
  let oids = ref [] in
  Layout.iter_oids layout (fun o -> oids := o :: !oids);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun op ->
      match op with
      | Trace.Create { oid; _ } when not (Hashtbl.mem seen oid) ->
          Hashtbl.add seen oid ();
          oids := oid :: !oids
      | _ -> ())
    ops;
  List.rev !oids

let probe_trace layout ops =
  let doc = layout.Layout.doc in
  let per_oid o =
    [
      Trace.Attrs o;
      Trace.Children o;
      Trace.Parent o;
      Trace.Parts o;
      Trace.Part_of o;
      Trace.Refs_to o;
      Trace.Refs_from o;
      Trace.Text o;
      Trace.Form_digest o;
      Trace.Dyn_attr { oid = o; key = "alpha" };
    ]
  in
  List.concat_map per_oid (probe_oids layout ops)
  @ [
      Trace.Scan doc;
      Trace.Node_count doc;
      Trace.Range_unique { doc; lo = 1; hi = 10_000_000 };
      Trace.Range_hundred { doc; lo = -50; hi = 200 };
      Trace.Range_million { doc; lo = 1; hi = 1_000_000 };
      Trace.Verify_checks;
    ]

(* The trace prefix covering the first [n] commits (inclusive).  With
   the generator's shape invariants this is exactly the state an oracle
   must hold after [n] transactions were made durable. *)
let prefix_through_commit ops n =
  if n = 0 then []
  else
    let rec go acc k = function
      | [] -> List.rev acc
      | op :: rest ->
          let acc = op :: acc in
          if op = Trace.Commit then
            if k + 1 = n then List.rev acc else go acc (k + 1) rest
          else go acc k rest
    in
    go [] 0 ops

let verdict ~gen_seed ~level ~backend ops state prefixes =
  let layout = layout_of ~level in
  let probes = probe_trace layout ops in
  let at k =
    let o = (oracle ~gen_seed ~level).fresh () in
    List.iter (fun op -> ignore (o.apply op)) (prefix_through_commit ops k);
    diverge ~backend o.apply (Trace.apply ~layout state) probes
  in
  match List.find_opt (fun k -> Option.is_none (at k)) prefixes with
  | Some k -> (Some k, None)
  | None -> (None, at (List.hd prefixes))

type crash_report = {
  crash_step : int option;
  acked : int;
  in_flight : bool;
  matched : int option;
  acked_lost : bool;
  divergence : divergence option;
  note : string;
  catchups : int * int;
}

let crash_ok r = (not r.acked_lost) && r.divergence = None

let pp_crash_report ppf r =
  Format.fprintf ppf "@[<v>%s, %d acked commit(s)%s, recovered prefix %s%s%s"
    (match r.crash_step with
    | Some s -> Printf.sprintf "crash at step %d" s
    | None -> "no crash")
    r.acked
    (if r.in_flight then ", commit in flight" else "")
    (match r.matched with Some k -> string_of_int k | None -> "none")
    (if r.note = "" then "" else "; " ^ r.note)
    (if r.acked_lost then " ACKED-COMMIT-LOST" else "");
  Option.iter (Format.fprintf ppf "@,%a" pp_divergence) r.divergence;
  Format.fprintf ppf "@]"

let crash_writes subject ops =
  let i = subject.fresh () in
  let before = Vfs.Faulty.write_count i.env in
  List.iter (fun op -> ignore (i.apply op)) ops;
  let writes = Vfs.Faulty.write_count i.env - before in
  i.close ();
  writes

let crash_check ~gen_seed ~level ~crash_after subject ops =
  let i = subject.fresh () in
  if crash_after > 0 then Vfs.Faulty.arm_crash i.env ~after_writes:crash_after ();
  let acked = ref 0 in
  let crash = ref None in
  (try
     List.iteri
       (fun n op ->
         i.before_op n;
         match i.apply op with
         | outcome ->
           if op = Trace.Commit && outcome = Trace.Done Trace.V_unit then
             incr acked
         | exception e when is_crash e ->
           crash := Some (n, op = Trace.Commit);
           raise Exit)
       ops
   with Exit -> ());
  let in_flight = match !crash with Some (_, c) -> c | None -> false in
  let r = i.recover ~crashed:(!crash <> None) ~acked:!acked ~in_flight in
  let matched, divergence =
    verdict ~gen_seed ~level ~backend:subject.name ops r.state r.prefixes
  in
  r.release ();
  { crash_step = Option.map fst !crash; acked = !acked; in_flight; matched;
    acked_lost = r.acked_durable && List.for_all (fun k -> !acked > k) r.prefixes;
    divergence; note = r.note; catchups = r.catchups }
