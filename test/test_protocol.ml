(* Protocol/report/multiuser/layout tests: measurement arithmetic,
   reporting tables, cold-vs-warm behaviour on the disk backend, layout
   property tests, verifier negative cases (a corrupted database must be
   flagged), and deterministic multi-user runs. *)

open Hyper_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- measurement arithmetic --- *)

let measurement ~nodes_cold ~nodes_warm ~cold_ms ~warm_ms =
  { Protocol.op = "test"; reps = 50; nodes_cold; nodes_warm; cold_ms; warm_ms }

let test_per_node_math () =
  let m = measurement ~nodes_cold:100 ~nodes_warm:100 ~cold_ms:50.0 ~warm_ms:10.0 in
  check (Alcotest.float 1e-9) "cold" 0.5 (Protocol.cold_ms_per_node m);
  check (Alcotest.float 1e-9) "warm" 0.1 (Protocol.warm_ms_per_node m);
  check (Alcotest.float 1e-9) "nodes/op" 2.0 (Protocol.nodes_per_op m);
  let z = measurement ~nodes_cold:0 ~nodes_warm:0 ~cold_ms:5.0 ~warm_ms:5.0 in
  check (Alcotest.float 1e-9) "zero nodes is defined" 0.0
    (Protocol.cold_ms_per_node z)

let test_op_ids_complete () =
  check Alcotest.int "20 operations" 20 (List.length Protocol.op_ids);
  List.iter
    (fun id ->
      if not (List.mem id Protocol.op_ids) then Alcotest.failf "missing %s" id)
    [ "01"; "05A"; "05B"; "07A"; "07B"; "09"; "10"; "18" ]

(* --- cold vs warm on the disk backend --- *)

module D = Hyper_diskdb.Diskdb
module GenD = Generator.Make (D)
module ProtoD = Protocol.Make (D)

let test_disk_cold_slower_than_warm () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_proto_%d.db" (Unix.getpid ()))
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path);
  (* A latency model makes cold misses expensive and deterministic. *)
  let b =
    D.open_db
      { (D.default_config ~path) with
        D.pool_pages = 256;
        remote = Some Hyper_net.Channel.profile_1988 }
  in
  let layout, _ = GenD.generate b ~doc:1 ~leaf_level:4 ~seed:5L in
  let config = { Protocol.default_config with reps = 10 } in
  let m = ProtoD.run_op ~config b layout "01" in
  let cold = Protocol.cold_ms_per_node m in
  let warm = Protocol.warm_ms_per_node m in
  if cold <= 2.0 *. warm then
    Alcotest.failf "expected cold >> warm: %.4f vs %.4f" cold warm;
  (* Node counts identical between the two temperatures (same inputs). *)
  check Alcotest.int "same inputs" m.Protocol.nodes_cold m.Protocol.nodes_warm;
  D.close b;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

let test_protocol_deterministic_inputs () =
  (* Equal (seed, op) draws identical inputs: two runs on identical
     databases return identical node counts, rep for rep. *)
  let mk () =
    let b = Hyper_memdb.Memdb.create () in
    let module G = Generator.Make (Hyper_memdb.Memdb) in
    let layout, _ = G.generate b ~doc:1 ~leaf_level:4 ~seed:31L in
    (b, layout)
  in
  let b1, l1 = mk () and b2, l2 = mk () in
  let module P = Protocol.Make (Hyper_memdb.Memdb) in
  let config = { Protocol.default_config with reps = 6 } in
  List.iter
    (fun id ->
      let m1 = P.run_op ~config b1 l1 id in
      let m2 = P.run_op ~config b2 l2 id in
      check Alcotest.int
        (Printf.sprintf "%s deterministic" m1.Protocol.op)
        m1.Protocol.nodes_cold m2.Protocol.nodes_cold)
    Protocol.op_ids

(* --- report rendering --- *)

let test_report_tables () =
  let ms =
    [ measurement ~nodes_cold:50 ~nodes_warm:50 ~cold_ms:25.0 ~warm_ms:5.0 ]
  in
  let ms = List.map (fun m -> { m with Protocol.op = "10 closure1N" }) ms in
  let s =
    Report.operation_table ~title:"T" ~levels:[ 4; 5 ] [ (4, ms); (5, ms) ]
  in
  check Alcotest.bool "table mentions op" true
    (Hyper_util.Text_gen.count_occurrences s ~sub:"10 closure1N" = 1);
  check Alcotest.bool "has both level columns" true
    (Hyper_util.Text_gen.count_occurrences s ~sub:"L4 cold" = 1
    && Hyper_util.Text_gen.count_occurrences s ~sub:"L5 warm" = 1);
  let s2 =
    Report.comparison_table ~title:"C" ~backends:[ "a"; "b" ]
      [ ("op x", [ ("a", List.hd ms); ("b", List.hd ms) ]) ]
  in
  check Alcotest.bool "comparison columns" true
    (Hyper_util.Text_gen.count_occurrences s2 ~sub:"a cold" = 1);
  let s3 = Report.size_table ~title:"S" [ (4, 400_000, 440_000) ] in
  check Alcotest.bool "ratio rendered" true
    (Hyper_util.Text_gen.count_occurrences s3 ~sub:"1.10" = 1)

(* --- layout properties --- *)

let prop_layout_parent_child_inverse =
  QCheck.Test.make ~name:"layout parent/children inverse" ~count:300
    QCheck.(pair (int_range 1 5) (int_bound 10_000))
    (fun (level, salt) ->
      let l = Layout.make ~doc:1 ~oid_base:0 ~leaf_level:level () in
      let oid = (salt mod l.Layout.node_count) + 1 in
      let children_ok =
        Array.for_all
          (fun c -> Layout.parent_of l c = Some oid)
          (Layout.children_of l oid)
      in
      let parent_ok =
        match Layout.parent_of l oid with
        | None -> oid = Layout.root l
        | Some p -> Array.exists (fun c -> c = oid) (Layout.children_of l p)
      in
      children_ok && parent_ok)

let prop_layout_uid_bijection =
  QCheck.Test.make ~name:"layout uid <-> oid bijection" ~count:300
    QCheck.(pair (int_range 1 5) (int_bound 10_000))
    (fun (level, salt) ->
      let l = Layout.make ~doc:1 ~oid_base:7777 ~leaf_level:level () in
      let uid = (salt mod l.Layout.node_count) + 1 in
      Layout.uid_of_oid l (Layout.oid_of_uid l uid) = uid)

let prop_layout_level_consistent =
  QCheck.Test.make ~name:"level_of_oid vs level_first_oid" ~count:300
    QCheck.(pair (int_range 1 5) (int_bound 10_000))
    (fun (leaf, salt) ->
      let l = Layout.make ~doc:1 ~oid_base:0 ~leaf_level:leaf () in
      let oid = (salt mod l.Layout.node_count) + 1 in
      let level = Layout.level_of_oid l oid in
      let first = Layout.level_first_oid l level in
      oid >= first && oid < first + Schema.nodes_at_level level)

let prop_random_pickers_in_range =
  QCheck.Test.make ~name:"random pickers respect their domains" ~count:200
    QCheck.int64 (fun seed ->
      let l = Layout.make ~doc:1 ~oid_base:0 ~leaf_level:4 () in
      let rng = Hyper_util.Prng.create seed in
      let node = Layout.random_node l rng in
      let non_root = Layout.random_non_root l rng in
      let internal = Layout.random_internal l rng in
      let level3 = Layout.random_level l rng 3 in
      let text = Layout.random_text l rng in
      let form = Layout.random_form l rng in
      node >= 1 && node <= 781 && non_root >= 2 && non_root <= 781
      && (not (Layout.is_leaf l internal))
      && Layout.level_of_oid l level3 = 3
      && Layout.is_leaf l text
      && (not (Layout.is_form l text))
      && Layout.is_form l form)

(* --- verifier negative cases --- *)

module B = Hyper_memdb.Memdb
module GenM = Generator.Make (B)
module V = Verify.Make (B)

let failing_checks b layout = Verify.failures (V.run b layout)

let test_verifier_catches_bad_text () =
  let b = B.create () in
  let layout, _ = GenM.generate b ~doc:1 ~leaf_level:4 ~seed:9L in
  let text_oid = Layout.random_text layout (Hyper_util.Prng.create 1L) in
  B.begin_txn b;
  B.set_text b text_oid "no markers here at all";
  B.commit b;
  let fails = failing_checks b layout in
  check Alcotest.bool "text check fails" true
    (List.exists
       (fun c ->
         Hyper_util.Text_gen.count_occurrences c.Verify.name ~sub:"text nodes"
         = 1)
       fails)

let test_verifier_catches_bad_attribute () =
  let b = B.create () in
  let layout, _ = GenM.generate b ~doc:1 ~leaf_level:4 ~seed:9L in
  B.begin_txn b;
  B.set_hundred b 10 5_000 (* out of 1..100 *);
  B.commit b;
  let fails = failing_checks b layout in
  check Alcotest.bool "attribute range check fails" true
    (List.exists
       (fun c ->
         Hyper_util.Text_gen.count_occurrences c.Verify.name
           ~sub:"attribute ranges"
         = 1)
       fails)

let test_verifier_catches_missing_node () =
  let b = B.create () in
  let layout, _ = GenM.generate b ~doc:1 ~leaf_level:4 ~seed:9L in
  (* Add a stray extra node to the same doc: node count check fires. *)
  B.begin_txn b;
  B.create_node b
    { Schema.oid = 40_000; doc = 1; unique_id = 40_000; ten = 1; hundred = 1;
      million = 1; payload = Schema.P_internal };
  B.commit b;
  let fails = failing_checks b layout in
  check Alcotest.bool "count check fails" true
    (List.exists
       (fun c ->
         Hyper_util.Text_gen.count_occurrences c.Verify.name ~sub:"node count"
         = 1)
       fails)

(* --- multiuser determinism and invariants --- *)

module M = Multiuser.Make (B)

let run_multi ~mode ~users ~hot =
  let b = B.create () in
  let layout, _ = GenM.generate b ~doc:1 ~leaf_level:4 ~seed:3L in
  (b, layout, M.run b layout ~mode ~users ~txns_per_user:30 ~hot_fraction:hot ~seed:3L)

let test_multiuser_single_user_never_aborts () =
  List.iter
    (fun mode ->
      let _, _, r = run_multi ~mode ~users:1 ~hot:1.0 in
      check Alcotest.int "no aborts single user" 0 r.Multiuser.aborted;
      check Alcotest.int "all committed" 30 r.Multiuser.committed)
    [ Multiuser.Optimistic; Multiuser.Two_phase_locking ]

let test_multiuser_disjoint_never_aborts () =
  List.iter
    (fun mode ->
      let _, _, r = run_multi ~mode ~users:4 ~hot:0.0 in
      check Alcotest.int "no aborts disjoint" 0 r.Multiuser.aborted;
      check Alcotest.int "all committed" 120 r.Multiuser.committed)
    [ Multiuser.Optimistic; Multiuser.Two_phase_locking ]

let test_multiuser_database_consistent_after_run () =
  (* closure1NAttSet is self-inverse per txn pair, but arbitrary numbers
     of commits may leave hundred complemented; structural invariants
     other than the attribute range must still hold. *)
  let b, layout, _ = run_multi ~mode:Multiuser.Optimistic ~users:4 ~hot:0.5 in
  let fails =
    List.filter
      (fun c -> c.Verify.name <> "attribute ranges (ten, hundred, million)")
      (failing_checks b layout)
  in
  (match fails with
  | [] -> ()
  | c :: _ -> Alcotest.failf "structure broken: %s — %s" c.Verify.name c.Verify.detail);
  ignore layout

let test_multiuser_validation () =
  let b = B.create () in
  let layout, _ = GenM.generate b ~doc:1 ~leaf_level:4 ~seed:3L in
  Alcotest.check_raises "users < 1"
    (Invalid_argument "Multiuser.run: users < 1") (fun () ->
      ignore
        (M.run b layout ~mode:Multiuser.Optimistic ~users:0 ~txns_per_user:1
           ~hot_fraction:0.0 ~seed:1L));
  Alcotest.check_raises "hot out of range"
    (Invalid_argument "Multiuser.run: hot_fraction outside [0, 1]") (fun () ->
      ignore
        (M.run b layout ~mode:Multiuser.Optimistic ~users:1 ~txns_per_user:1
           ~hot_fraction:1.5 ~seed:1L))

let () =
  Alcotest.run "hyper_protocol"
    [
      ( "measurement",
        [
          Alcotest.test_case "per-node math" `Quick test_per_node_math;
          Alcotest.test_case "op ids" `Quick test_op_ids_complete;
          Alcotest.test_case "disk cold >> warm under latency" `Quick
            test_disk_cold_slower_than_warm;
          Alcotest.test_case "deterministic inputs per (seed, op)" `Quick
            test_protocol_deterministic_inputs;
        ] );
      ("report", [ Alcotest.test_case "tables render" `Quick test_report_tables ]);
      ( "layout",
        [
          qtest prop_layout_parent_child_inverse;
          qtest prop_layout_uid_bijection;
          qtest prop_layout_level_consistent;
          qtest prop_random_pickers_in_range;
        ] );
      ( "verifier negatives",
        [
          Alcotest.test_case "bad text flagged" `Quick test_verifier_catches_bad_text;
          Alcotest.test_case "bad attribute flagged" `Quick
            test_verifier_catches_bad_attribute;
          Alcotest.test_case "extra node flagged" `Quick
            test_verifier_catches_missing_node;
        ] );
      ( "multiuser",
        [
          Alcotest.test_case "single user clean" `Quick
            test_multiuser_single_user_never_aborts;
          Alcotest.test_case "disjoint users clean" `Quick
            test_multiuser_disjoint_never_aborts;
          Alcotest.test_case "structure survives contention" `Quick
            test_multiuser_database_consistent_after_run;
          Alcotest.test_case "argument validation" `Quick
            test_multiuser_validation;
        ] );
    ]
