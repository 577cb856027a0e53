(* hyperlint end-to-end: the fixture library plants one violation per
   rule (test/lint_fixtures/fixture_violations.ml), one suppressed copy
   of each (fixture_suppressed.ml) and one idiomatic copy
   (fixture_clean.ml).  The linter must report exactly the planted
   findings with exact rule ids and lines, honour both suppression
   channels, and — the point of the exercise — find nothing in lib/. *)

module Driver = Hyper_lint.Driver
module Finding = Hyper_lint.Finding

let check = Alcotest.check

(* Tests run from _build/default/test; the fixture cmts are below us,
   the library cmts one level up. *)
let fixture_root = "lint_fixtures"

let scan_fixture name =
  Driver.scan ~scope_all:true
    ~only:[ "test/lint_fixtures/" ^ name ]
    [ fixture_root ]

let rule_line f = (f.Finding.rule, f.Finding.line)

let pp_rule_lines rl =
  String.concat "; "
    (List.map (fun (r, l) -> Printf.sprintf "%s:%d" r l) rl)

let rule_lines_t =
  Alcotest.testable
    (fun ppf rl -> Format.pp_print_string ppf (pp_rule_lines rl))
    ( = )

let by_line a b = compare (snd a, fst a) (snd b, fst b)

(* --- planted violations: exact rule ids and locations --- *)

let expected_violations =
  [
    ("vfs-boundary", 8);
    ("no-catchall-swallow", 11);
    ("pin-balance", 19);
    ("no-poly-compare-on-oid", 22);
    ("deterministic-iteration", 26);
    ("monotonic-time", 29);
    ("epoch-check", 38);
    ("no-page-copy", 41);
    ("sync-wrapper-only", 45);
    ("lock-order", 56);
    ("no-blocking-under-mutex", 59);
    ("no-poly-compare-on-oid", 68);
    ("one-checksum", 72);
    ("one-checksum", 77);
  ]

let test_violations () =
  let r = scan_fixture "fixture_violations.ml" in
  check Alcotest.int "one unit scanned" 1 r.Driver.units;
  check rule_lines_t "planted findings" expected_violations
    (List.sort by_line (List.map rule_line r.Driver.findings));
  check Alcotest.int "nothing suppressed" 0
    (List.length r.Driver.attr_suppressed)

(* --- every suppression channel waives its finding --- *)

let test_suppressed () =
  let r = scan_fixture "fixture_suppressed.ml" in
  check Alcotest.int "no findings" 0 (List.length r.Driver.findings);
  let rules =
    List.sort_uniq String.compare
      (List.map (fun f -> f.Finding.rule) r.Driver.attr_suppressed)
  in
  check
    Alcotest.(list string)
    "every rule was suppressed, not missed"
    (List.sort String.compare (List.map fst Hyper_lint.Rules.all))
    rules

(* --- the idiomatic shapes trigger nothing at all --- *)

let test_clean () =
  let r = scan_fixture "fixture_clean.ml" in
  check Alcotest.int "no findings" 0 (List.length r.Driver.findings);
  check Alcotest.int "no suppressions" 0
    (List.length r.Driver.attr_suppressed)

(* --- allowlist file waives by rule id + path substring --- *)

let test_allowlist () =
  let file = Filename.temp_file "hyperlint" ".allowlist" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "# test waiver\nvfs-boundary fixture_violations\n";
      close_out oc;
      let r =
        Driver.scan ~scope_all:true ~allowlist_file:file
          ~only:[ "test/lint_fixtures/fixture_violations.ml" ]
          [ fixture_root ]
      in
      check rule_lines_t "vfs-boundary waived"
        (List.filter (fun (rl, _) -> rl <> "vfs-boundary") expected_violations)
        (List.sort by_line (List.map rule_line r.Driver.findings));
      check rule_lines_t "waiver recorded" [ ("vfs-boundary", 8) ]
        (List.map rule_line r.Driver.allowed))

(* --- the repo's own library code is lint-clean --- *)

let test_lib_clean () =
  let r = Driver.scan ~only:[ "lib/" ] [ "../lib" ] in
  if r.Driver.units < 10 then
    Alcotest.failf "only %d units scanned — cmt discovery broken?"
      r.Driver.units;
  (match r.Driver.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "lib/ has %d finding(s), first: %s"
      (List.length r.Driver.findings)
      (Finding.to_string f));
  (* The two deliberate waivers (trace.ml outcome normalisation,
     lock_manager release_all) must stay visible as suppressions. *)
  if List.length r.Driver.attr_suppressed < 2 then
    Alcotest.failf "expected the known [@lint.allow] sites, found %d"
      (List.length r.Driver.attr_suppressed)

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "planted violations" `Quick test_violations;
          Alcotest.test_case "attribute suppression" `Quick test_suppressed;
          Alcotest.test_case "clean fixture" `Quick test_clean;
          Alcotest.test_case "allowlist file" `Quick test_allowlist;
        ] );
      ( "self-check",
        [ Alcotest.test_case "lib/ is lint-clean" `Quick test_lib_clean ] );
    ]
