(* Structural-modification tests (remove_child / remove_part /
   remove_ref / delete_node), run identically against all three backends
   through the shared signature, plus backend-specific durability and
   rollback checks. *)

open Hyper_core

let check = Alcotest.check

(* A scenario is polymorphic in the backend. *)
type scenario = {
  name : string;
  run : 'a. (module Backend.S with type t = 'a) -> 'a -> Layout.t -> unit;
}

let find_ref (type a) (module B : Backend.S with type t = a) (b : a) oid =
  match B.refs_to b oid with
  | [| l |] -> l.Schema.target
  | _ -> Alcotest.fail "expected exactly one reference"

let scenario_remove_ref =
  { name = "remove_ref";
    run =
      (fun (type a) (module B : Backend.S with type t = a) (b : a) layout ->
        let src = Layout.root layout in
        let dst = find_ref (module B) b src in
        let inverse_before = Array.length (B.refs_from b dst) in
        B.begin_txn b;
        B.remove_ref b ~src ~dst;
        B.commit b;
        check Alcotest.int "outgoing gone" 0 (Array.length (B.refs_to b src));
        check Alcotest.int "inverse gone" (inverse_before - 1)
          (Array.length (B.refs_from b dst));
        B.begin_txn b;
        (match B.remove_ref b ~src ~dst with
        | () -> Alcotest.fail "double remove should raise"
        | exception Invalid_argument _ -> ());
        B.abort b) }

let scenario_remove_part =
  { name = "remove_part";
    run =
      (fun (type a) (module B : Backend.S with type t = a) (b : a) layout ->
        let whole = Layout.root layout in
        let part = (B.parts b whole).(0) in
        let inverse_before = Array.length (B.part_of b part) in
        B.begin_txn b;
        B.remove_part b ~whole ~part;
        B.commit b;
        check Alcotest.int "parts shrank" (layout.Layout.fanout - 1)
          (Array.length (B.parts b whole));
        check Alcotest.int "partOf shrank" (inverse_before - 1)
          (Array.length (B.part_of b part));
        check Alcotest.bool "edge gone" false
          (Array.exists (fun p -> p = part) (B.parts b whole))) }

let scenario_remove_child_and_readd =
  { name = "remove_child + re-add";
    run =
      (fun (type a) (module B : Backend.S with type t = a) (b : a) layout ->
        let parent = Layout.root layout in
        let original = B.children b parent in
        let victim = original.(1) in
        B.begin_txn b;
        B.remove_child b ~parent ~child:victim;
        B.commit b;
        let remaining = B.children b parent in
        check Alcotest.int "one fewer child"
          (Array.length original - 1)
          (Array.length remaining);
        check
          (Alcotest.array Alcotest.int)
          "sequence order preserved"
          (Array.of_list
             (List.filter (fun c -> c <> victim) (Array.to_list original)))
          remaining;
        check (Alcotest.option Alcotest.int) "orphaned" None
          (B.parent b victim);
        (* Re-attach: appends at the end of the sequence. *)
        B.begin_txn b;
        B.add_child b ~parent ~child:victim;
        B.commit b;
        let readded = B.children b parent in
        check Alcotest.int "back to full size" (Array.length original)
          (Array.length readded);
        check Alcotest.int "appended last" victim
          readded.(Array.length readded - 1);
        check (Alcotest.option Alcotest.int) "parent restored" (Some parent)
          (B.parent b victim)) }

let scenario_delete_leaf =
  { name = "delete_node (leaf)";
    run =
      (fun (type a) (module B : Backend.S with type t = a) (b : a) layout ->
        let doc = layout.Layout.doc in
        let victim = Layout.level_first_oid layout layout.Layout.leaf_level in
        let parent = Option.get (B.parent b victim) in
        let uid = B.unique_id b victim in
        let n0 = B.node_count b ~doc in
        (* Incoming references must be detached by the delete itself. *)
        B.begin_txn b;
        B.delete_node b victim;
        B.commit b;
        check Alcotest.int "count dropped" (n0 - 1) (B.node_count b ~doc);
        check (Alcotest.option Alcotest.int) "uid unindexed" None
          (B.lookup_unique b ~doc uid);
        check Alcotest.bool "parent's sequence updated" false
          (Array.exists (fun c -> c = victim) (B.children b parent));
        (* Not in any range lookup either. *)
        let survivors = B.range_hundred b ~doc ~lo:1 ~hi:100 in
        check Alcotest.bool "not in attribute index" false
          (List.mem victim survivors);
        (* A scan no longer visits it. *)
        let seen = ref false in
        B.iter_doc b ~doc (fun oid -> if oid = victim then seen := true);
        check Alcotest.bool "not scanned" false !seen;
        B.begin_txn b;
        (match B.delete_node b victim with
        | () -> Alcotest.fail "double delete should raise"
        | exception Invalid_argument _ -> ());
        B.abort b) }

let scenario_delete_with_children_rejected =
  { name = "delete_node with children rejected";
    run =
      (fun (type a) (module B : Backend.S with type t = a) (b : a) layout ->
        B.begin_txn b;
        (match B.delete_node b (Layout.root layout) with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
        B.abort b) }

let scenario_delete_subtree_bottom_up =
  { name = "delete a whole subtree bottom-up";
    run =
      (fun (type a) (module B : Backend.S with type t = a) (b : a) layout ->
        let doc = layout.Layout.doc in
        let top = (Layout.children_of layout (Layout.root layout)).(0) in
        let n0 = B.node_count b ~doc in
        (* Post-order deletion via the backend's own children lists. *)
        let deleted = ref 0 in
        B.begin_txn b;
        let rec wipe oid =
          Array.iter wipe (B.children b oid);
          B.delete_node b oid;
          incr deleted
        in
        wipe top;
        B.commit b;
        check Alcotest.int "subtree size"
          (Layout.closure_size layout ~from_level:1)
          !deleted;
        check Alcotest.int "count dropped" (n0 - !deleted)
          (B.node_count b ~doc);
        check Alcotest.int "root lost one child"
          (layout.Layout.fanout - 1)
          (Array.length (B.children b (Layout.root layout)))) }

let scenarios =
  [ scenario_remove_ref; scenario_remove_part; scenario_remove_child_and_readd;
    scenario_delete_leaf; scenario_delete_with_children_rejected;
    scenario_delete_subtree_bottom_up ]

(* --- backend harnesses --- *)

let temp_path =
  let counter = ref 0 in
  fun name ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hyper_mod_%d_%s_%d" (Unix.getpid ()) name !counter)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (Hyper_storage.Engine.files path)

let memdb_case s =
  Alcotest.test_case s.name `Quick (fun () ->
      let b = Hyper_memdb.Memdb.create () in
      let module G = Generator.Make (Hyper_memdb.Memdb) in
      let layout, _ = G.generate b ~doc:1 ~leaf_level:2 ~seed:13L in
      s.run (module Hyper_memdb.Memdb) b layout)

let diskdb_case s =
  Alcotest.test_case s.name `Quick (fun () ->
      let module D = Hyper_diskdb.Diskdb in
      let path = temp_path "disk" in
      cleanup path;
      let b = D.open_db (D.default_config ~path) in
      let module G = Generator.Make (D) in
      let layout, _ = G.generate b ~doc:1 ~leaf_level:2 ~seed:13L in
      Fun.protect
        ~finally:(fun () ->
          (try D.close b with _ -> ());
          cleanup path)
        (fun () -> s.run (module D) b layout))

let reldb_case s =
  Alcotest.test_case s.name `Quick (fun () ->
      let module R = Hyper_reldb.Reldb in
      let path = temp_path "rel" in
      cleanup path;
      let b = R.open_db (R.default_config ~path) in
      let module G = Generator.Make (R) in
      let layout, _ = G.generate b ~doc:1 ~leaf_level:2 ~seed:13L in
      Fun.protect
        ~finally:(fun () ->
          (try R.close b with _ -> ());
          cleanup path)
        (fun () -> s.run (module R) b layout))

(* --- backend-specific cases --- *)

let test_delete_self_reference () =
  (* A node that references itself: the delete must unhook both
     directions of the same edge without double-removal. *)
  let module B = Hyper_memdb.Memdb in
  let b = B.create () in
  B.begin_txn b;
  B.create_node b
    { Schema.oid = 1; doc = 5; unique_id = 1; ten = 1; hundred = 1;
      million = 1; payload = Schema.P_internal };
  B.add_ref b ~src:1 ~dst:1 ~offset_from:2 ~offset_to:3;
  B.delete_node b 1;
  B.commit b;
  check Alcotest.int "doc empty" 0 (B.node_count b ~doc:5)

let test_delete_persists_across_reopen () =
  let module D = Hyper_diskdb.Diskdb in
  let path = temp_path "persist" in
  cleanup path;
  let b = D.open_db (D.default_config ~path) in
  let module G = Generator.Make (D) in
  let layout, _ = G.generate b ~doc:1 ~leaf_level:2 ~seed:13L in
  let victim = Layout.level_first_oid layout 2 in
  let uid = D.unique_id b victim in
  D.begin_txn b;
  D.delete_node b victim;
  D.commit b;
  D.close b;
  let b2 = D.open_db (D.default_config ~path) in
  check Alcotest.int "count persisted" (layout.Layout.node_count - 1)
    (D.node_count b2 ~doc:1);
  check (Alcotest.option Alcotest.int) "uid stays gone" None
    (D.lookup_unique b2 ~doc:1 uid);
  D.close b2;
  cleanup path

let test_delete_abort_restores () =
  let module D = Hyper_diskdb.Diskdb in
  let path = temp_path "abortdel" in
  cleanup path;
  let b = D.open_db (D.default_config ~path) in
  let module G = Generator.Make (D) in
  let layout, _ = G.generate b ~doc:1 ~leaf_level:2 ~seed:13L in
  let victim = Layout.level_first_oid layout 2 in
  let uid = D.unique_id b victim in
  D.begin_txn b;
  D.delete_node b victim;
  D.abort b;
  check Alcotest.int "count restored" layout.Layout.node_count
    (D.node_count b ~doc:1);
  check (Alcotest.option Alcotest.int) "uid restored" (Some victim)
    (D.lookup_unique b ~doc:1 uid);
  check Alcotest.bool "back in parent's sequence" true
    (Array.exists
       (fun c -> c = victim)
       (D.children b (Option.get (Layout.parent_of layout victim))));
  D.close b;
  cleanup path

let test_custom_fanout_generation () =
  (* §5.2 N.B.: fanouts must be variable.  Build a fanout-3 database and
     verify it fully. *)
  let module B = Hyper_memdb.Memdb in
  let b = B.create () in
  let module G = Generator.Make (B) in
  let module V = Verify.Make (B) in
  let layout, _ = G.generate ~fanout:3 b ~doc:1 ~leaf_level:3 ~seed:21L in
  check Alcotest.int "fanout recorded" 3 layout.Layout.fanout;
  check Alcotest.int "node count 1+3+9+27" 40 layout.Layout.node_count;
  check Alcotest.int "backend agrees" 40 (B.node_count b ~doc:1);
  List.iter
    (fun c ->
      if not c.Verify.ok then
        Alcotest.failf "fanout-3 verify failed: %s — %s" c.Verify.name
          c.Verify.detail)
    (V.run b layout);
  check Alcotest.int "closure size from level 1" 13
    (Layout.closure_size layout ~from_level:1)

let () =
  Alcotest.run "hyper_modification"
    [
      ("memdb", List.map memdb_case scenarios);
      ("diskdb", List.map diskdb_case scenarios);
      ("reldb", List.map reldb_case scenarios);
      ( "specifics",
        [
          Alcotest.test_case "self-reference delete" `Quick
            test_delete_self_reference;
          Alcotest.test_case "delete persists (diskdb)" `Quick
            test_delete_persists_across_reopen;
          Alcotest.test_case "delete abort restores (diskdb)" `Quick
            test_delete_abort_restores;
          Alcotest.test_case "custom fanout generation" `Quick
            test_custom_fanout_generation;
        ] );
    ]
