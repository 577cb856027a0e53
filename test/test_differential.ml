(* Tier-1 harness around Hyper_check: small-budget differential runs
   (the big budget lives in bin/fuzz.ml and CI's nightly job).

   What is pinned here:
   - agreement: generated traces find zero divergences on every subject;
   - sensitivity: a deliberately lying backend IS caught, locally and
     served over the wire, the repro shrinks to the same handful of ops
     either way, and shrinking is deterministic;
   - crash interleaving: recovery at several crash points matches the
     oracle replay of the acked prefix;
   - the checked-in corpus replays cleanly (regression traces for every
     divergence class the fuzzer has found);
   - trace serialisation round-trips, and a repro of every preset
     saves, loads and replays to the same verdict. *)

open Hyper_core
open Hyper_check

let check = Alcotest.check
let gen_seed = 42L
let level = 3

(* --- cross-backend agreement on generated traces --- *)

let test_agreement () =
  let oracle = Differential.oracle ~gen_seed ~level in
  List.iter
    (fun seed ->
      let ops = Gen.trace ~seed ~gen_seed ~level ~steps:50 in
      List.iter
        (fun kind ->
          let subject = Differential.subject ~gen_seed ~level kind in
          match Differential.check ~oracle ~subject ops with
          | None -> ()
          | Some d ->
            Alcotest.failf "seed %Ld diverged on %s: %s" seed subject.name
              (Format.asprintf "%a" Differential.pp_divergence d))
        Differential.all_kinds)
    [ 201L; 202L ]

(* --- sensitivity: a lying backend must be caught and shrunk --- *)

(* Memdb with a bug planted in [children]: nodes whose oid is a multiple
   of 23 report their children reversed.  Several layout nodes (23, 46,
   69, 92, 115) hit it, so generated reads, closures and the final
   verify all can observe it. *)
module Liar = struct
  include Hyper_memdb.Memdb

  let name = "liar"

  let children t oid =
    let c = children t oid in
    let n = Array.length c in
    if oid mod 23 = 0 && n > 1 then
      Array.init n (fun i -> c.(n - 1 - i))
    else c
end

let liar =
  Differential.local ~name:"liar" ~gen_seed ~level (fun _ ->
      ( Backend.Instance
          ((module Liar : Backend.S with type t = Liar.t), Liar.create ()),
        ignore ))

(* The same liar served over the wire: a subject harness, so the wire
   divergence shrinks exactly like the local one. *)
let wire_liar = Netcheck.subject ~level liar

let find_liar subject =
  let oracle = Differential.oracle ~gen_seed ~level in
  let ops = Gen.trace ~seed:303L ~gen_seed ~level ~steps:60 in
  match Differential.check ~oracle ~subject ops with
  | None -> Alcotest.fail "planted bug not detected"
  | Some d -> Differential.shrink ~oracle ~subject ops d

let op_strings = List.map Trace.op_to_string

let test_liar_detected_and_shrunk () =
  let minimal, d = find_liar liar in
  check Alcotest.bool "shrunk to a handful of ops" true
    (List.length minimal <= 4);
  (* The minimal repro still diverges when replayed from scratch. *)
  let oracle = Differential.oracle ~gen_seed ~level in
  (match Differential.check ~oracle ~subject:liar minimal with
  | None -> Alcotest.fail "minimal repro does not reproduce"
  | Some d2 ->
    check Alcotest.int "same divergence step" d.Differential.step
      d2.Differential.step);
  let wire_minimal, wire_d = find_liar wire_liar in
  check (Alcotest.list Alcotest.string) "wire shrinks to the local minimum"
    (op_strings minimal) (op_strings wire_minimal);
  check Alcotest.int "wire: same divergence step" d.step wire_d.step;
  check Alcotest.string "wire divergence names the wire subject" "liar-wire"
    wire_d.backend

let test_shrink_deterministic () =
  let m1, d1 = find_liar liar in
  let m2, d2 = find_liar liar in
  check
    (Alcotest.list Alcotest.string)
    "same minimal trace" (op_strings m1) (op_strings m2);
  check Alcotest.int "same step" d1.Differential.step d2.Differential.step

(* --- crash-point interleaving --- *)

let test_crash_points_clean () =
  let ops = Gen.trace ~seed:404L ~gen_seed ~level ~steps:40 in
  let subject = Differential.subject ~durable:true ~gen_seed ~level Differential.Disk in
  let writes = Differential.crash_writes subject ops in
  check Alcotest.bool "trace performs writes" true (writes > 0);
  List.iter
    (fun k ->
      let k = max 1 k in
      let r = Differential.crash_check ~gen_seed ~level ~crash_after:k subject ops in
      if not (Differential.crash_ok r) then
        Alcotest.failf "recovery diverged at k=%d: %a" k
          Differential.pp_crash_report r)
    [ writes / 4; writes / 2; 3 * writes / 4 ]

(* --- checked-in corpus --- *)

let corpus_files () =
  let dir = "corpus" in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Alcotest.fail "corpus directory missing (dune deps broken?)";
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".trace")
  |> List.sort compare
  |> List.map (Filename.concat dir)

(* A bare v1 header is the differential check on every local subject. *)
let test_corpus_replays () =
  let files = corpus_files () in
  check Alcotest.bool "corpus is non-empty" true (List.length files >= 4);
  List.iter
    (fun path ->
      let cases = Preset.load path in
      check Alcotest.int "one case per local subject"
        (List.length Differential.all_kinds) (List.length cases);
      List.iter
        (fun c ->
          let o = Preset.check c in
          if not o.ok then Alcotest.failf "%s: %s" path o.report)
        cases)
    files

(* --- serialisation and generation determinism --- *)

let test_op_round_trip () =
  let ops = Gen.trace ~seed:505L ~gen_seed ~level ~steps:300 in
  check Alcotest.bool "trace long enough to cover the grammar" true
    (List.length ops > 200);
  List.iter
    (fun op ->
      let s = Trace.op_to_string op in
      if Trace.op_of_string s <> op then
        Alcotest.failf "round trip broke: %S" s)
    ops

let test_gen_deterministic () =
  let t1 = Gen.trace ~seed:606L ~gen_seed ~level ~steps:80 in
  let t2 = Gen.trace ~seed:606L ~gen_seed ~level ~steps:80 in
  check
    (Alcotest.list Alcotest.string)
    "same seed, same trace"
    (List.map Trace.op_to_string t1)
    (List.map Trace.op_to_string t2);
  let t3 = Gen.trace ~seed:607L ~gen_seed ~level ~steps:80 in
  check Alcotest.bool "different seed, different trace" true
    (List.map Trace.op_to_string t1 <> List.map Trace.op_to_string t3)

(* One case of every preset survives save/load field for field, and
   the loaded case replays to the same verdict.  The failover case is
   the old replication round trip's. *)
let test_save_load_round_trip () =
  let ops seed steps = Gen.trace ~seed ~gen_seed ~level ~steps in
  let case ?crash_after ?(seed = 708L) ?(ops = ops seed 60) subject =
    { Preset.subject; crash_after; seed; gen_seed; level; ops }
  in
  let cases =
    [ case (Preset.Local Differential.Disk_remote);
      case ~crash_after:17 (Preset.Local Differential.Disk);
      case ~crash_after:9 (Preset.Wire Differential.Disk);
      case ~seed:77L ~ops:(ops 77L 50) ~crash_after:120
        (Preset.Replicated
           { Failover.policy = Hyper_repl.Repl.Quorum; replicas = 3;
             net_faults = true; kill_at = Some (1, 9); restart_at = Some 30;
             retain = 64; snapshot_lag = 128 });
      case (Preset.Snapshots 15);
      case ~ops:[]
        (Preset.Store { writers = 3; readers = 2; keys = 16; txns = 20 }) ]
  in
  List.iter
    (fun c ->
      let path = Filename.temp_file "hyper_fuzz_repro" ".trace" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Preset.save ~path c;
          match Preset.load path with
          | [ c' ] ->
            check Alcotest.string "file name survives" (Preset.file_name c)
              (Preset.file_name c');
            check (Alcotest.list Alcotest.string) "ops survive"
              (op_strings c.ops) (op_strings c'.ops);
            if c <> c' then Alcotest.failf "%s: case not faithful" path;
            let o = Preset.check c and o' = Preset.check c' in
            check Alcotest.bool (Preset.file_name c ^ " passes") true o.ok;
            check Alcotest.string "same verdict" o.report o'.report
          | cs -> Alcotest.failf "%s: loaded %d cases" path (List.length cs)))
    cases

let () =
  Alcotest.run "hyper_differential"
    [
      ( "agreement",
        [
          Alcotest.test_case "generated traces agree everywhere" `Quick
            test_agreement;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "planted bug detected and shrunk" `Quick
            test_liar_detected_and_shrunk;
          Alcotest.test_case "shrinking is deterministic" `Quick
            test_shrink_deterministic;
        ] );
      ( "crash",
        [
          Alcotest.test_case "recovery matches oracle at 3 crash points"
            `Quick test_crash_points_clean;
        ] );
      ( "corpus",
        [ Alcotest.test_case "checked-in traces replay" `Quick test_corpus_replays ] );
      ( "serialisation",
        [
          Alcotest.test_case "op print/parse round trip" `Quick
            test_op_round_trip;
          Alcotest.test_case "generation deterministic" `Quick
            test_gen_deterministic;
          Alcotest.test_case "repro file round trip" `Quick
            test_save_load_round_trip;
        ] );
    ]
