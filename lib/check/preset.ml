open Hyper_core
module Dif = Differential

type subject =
  | Local of Dif.kind
  | Wire of Dif.kind
  | Replicated of Failover.config
  | Snapshots of int
  | Store of { writers : int; readers : int; keys : int; txns : int }

type case = {
  subject : subject;
  crash_after : int option;
  seed : int64;
  gen_seed : int64;
  level : int;
  ops : Trace.op list;
}

let preset c =
  match c.subject with
  | Local _ -> "run"
  | Wire _ -> "net"
  | Replicated _ -> "failover"
  | Snapshots _ | Store _ -> "mvcc"

type outcome = {
  ok : bool;
  repro : case;
  report : string;
  crashed : bool;
  catchups : int * int;
}

let outcome ?(crashed = false) ?(catchups = (0, 0)) ok repro report =
  { ok; repro; report; crashed; catchups }

let trace_check ~shrink c (subject : Dif.subject) =
  let { gen_seed; level; ops; _ } = c in
  match c.crash_after with
  | Some crash_after ->
    let r = Dif.crash_check ~gen_seed ~level ~crash_after subject ops in
    outcome ~crashed:(r.crash_step <> None) ~catchups:r.catchups
      (Dif.crash_ok r) c
      (Format.asprintf "%s, crash after %d writes:@.%a" subject.name
         crash_after Dif.pp_crash_report r)
  | None -> (
    let oracle = Dif.oracle ~gen_seed ~level in
    match Dif.check ~oracle ~subject ops with
    | None ->
      outcome true c
        (Printf.sprintf "%s: agrees (%d ops)" subject.name (List.length ops))
    | Some d ->
      let ops, d =
        if shrink then Dif.shrink ~oracle ~subject ops d else (ops, d)
      in
      outcome false { c with ops }
        (Format.asprintf "%d-op trace diverges:@.%a" (List.length ops)
           Dif.pp_divergence d))

let violation c what = function
  | None -> outcome true c (what ^ ": clean")
  | Some v ->
    outcome false c (Format.asprintf "%s: %a" what Mvcc_check.pp_violation v)

let check ?(shrink = false) c =
  let { gen_seed; level; _ } = c in
  match c.subject with
  | Local k ->
    trace_check ~shrink c
      (Dif.subject ~durable:(c.crash_after <> None) ~gen_seed ~level k)
  | Wire k ->
    trace_check ~shrink c
      (Netcheck.subject ~level (Dif.subject ~durable:true ~gen_seed ~level k))
  | Replicated f ->
    trace_check ~shrink c (Failover.subject ~seed:c.seed ~gen_seed ~level f)
  | Snapshots snap_every ->
    violation c "memdb-snapshot"
      (Mvcc_check.backend_check ~gen_seed ~level ~snap_every c.ops)
  | Store { writers; readers; keys; txns } ->
    violation c "version-store"
      (Mvcc_check.store_check ~seed:c.seed ~writers ~readers ~keys
         ~txns_per_writer:txns)

(* {2 Repro files} *)

let fields c =
  let i = string_of_int in
  let subject, extra =
    match c.subject with
    | Local k | Wire k -> (Dif.kind_name k, [])
    | Replicated f ->
      ( "diskdb",
        [ ("policy", Hyper_repl.Repl.policy_to_string f.policy);
          ("replicas", i f.replicas);
          ("net_faults", string_of_bool f.net_faults) ]
        @ Option.fold f.kill_at ~none:[] ~some:(fun (r, s) ->
              [ ("kill", Printf.sprintf "%d@%d" r s) ])
        @ Option.fold f.restart_at ~none:[] ~some:(fun s -> [ ("restart", i s) ])
        @ [ ("retain", i f.retain); ("snapshot_lag", i f.snapshot_lag) ] )
    | Snapshots n -> ("memdb", [ ("snap_every", i n) ])
    | Store s ->
      ( "version-store",
        [ ("writers", i s.writers); ("readers", i s.readers);
          ("keys", i s.keys); ("txns", i s.txns) ] )
  in
  [ ("gen_seed", Int64.to_string c.gen_seed); ("level", i c.level);
    ("preset", preset c); ("subject", subject); ("seed", Int64.to_string c.seed) ]
  @ Option.fold c.crash_after ~none:[] ~some:(fun k -> [ ("crash_after", i k) ])
  @ extra

let file_name c =
  Printf.sprintf "%s-%Ld-%s%s.trace" (preset c) c.seed
    (List.assoc "subject" (fields c))
    (Option.fold c.crash_after ~none:"" ~some:(Printf.sprintf "-crash%d"))

let save ~path c =
  let oc = open_out path in
  Printf.fprintf oc "# hyperfuzz v1 %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (fields c)));
  List.iter (fun op -> output_string oc (Trace.op_to_string op ^ "\n")) c.ops;
  close_out oc

let load ?(local = Dif.all_kinds) path =
  let ic = open_in path in
  let header, ops =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = try input_line ic with End_of_file -> "" in
        let ops = ref [] in
        (try
           while true do
             let line = String.trim (input_line ic) in
             if line <> "" && line.[0] <> '#' then
               ops := Trace.op_of_string line :: !ops
           done
         with End_of_file -> ());
        (header, List.rev !ops))
  in
  let fail what =
    failwith (Printf.sprintf "%s: bad hyperfuzz header (%s): %s" path what header)
  in
  let fields =
    match String.split_on_char ' ' header with
    | "#" :: "hyperfuzz" :: "v1" :: kvs ->
      List.filter_map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
            Some
              (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
          | None -> if kv = "" then None else fail kv)
        kvs
    | _ -> fail "not v1"
  in
  let opt conv k =
    Option.map
      (fun v -> match conv v with Some x -> x | None -> fail k)
      (List.assoc_opt k fields)
  in
  let req conv k = match opt conv k with Some x -> x | None -> fail k in
  let int = req int_of_string_opt in
  let subject = List.assoc_opt "subject" fields in
  let subjects =
    match Option.value (List.assoc_opt "preset" fields) ~default:"run" with
    | "run" when subject = None -> List.map (fun k -> Local k) local
    | "run" -> [ Local (req Dif.kind_of_name "subject") ]
    | "net" -> [ Wire (req Dif.kind_of_name "subject") ]
    | "failover" ->
      let kill s =
        match List.map int_of_string_opt (String.split_on_char '@' s) with
        | [ Some r; Some at ] -> Some (r, at)
        | _ -> None
      in
      [ Replicated
          { policy = req Hyper_repl.Repl.policy_of_string "policy";
            replicas = int "replicas";
            net_faults = req bool_of_string_opt "net_faults";
            kill_at = opt kill "kill";
            restart_at = opt int_of_string_opt "restart";
            retain = int "retain";
            snapshot_lag = int "snapshot_lag" } ]
    | "mvcc" when subject = Some "version-store" ->
      [ Store
          { writers = int "writers"; readers = int "readers";
            keys = int "keys"; txns = int "txns" } ]
    | "mvcc" -> [ Snapshots (int "snap_every") ]
    | p -> fail ("preset " ^ p)
  in
  List.map
    (fun subject ->
      { subject; crash_after = opt int_of_string_opt "crash_after";
        seed = Option.value (opt Int64.of_string_opt "seed") ~default:0L;
        gen_seed = req Int64.of_string_opt "gen_seed"; level = int "level"; ops })
    subjects
