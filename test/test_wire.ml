(* Wire-codec battery: round-trip every frame type, torn/partial reads
   at every byte boundary, CRC corruption, oversized rejection, and a
   random-bytes never-crash fuzz.  Everything is seeded: the suite is
   deterministic. *)

open Hyper_core
open Hyper_net
module Frame_codec = Hyper_storage.Frame_codec

let check = Alcotest.check

(* --- fixtures: one representative of everything --- *)

let sample_ops =
  [
    Trace.Begin;
    Trace.Create
      {
        oid = 7;
        doc = 1;
        uid = 42;
        ten = 3;
        hundred = 55;
        million = 123456;
        near = Some 6;
        payload = Trace.P_text "hello \"wire\"\nworld";
      };
    Trace.Add_children { parent = 7; children = [ 8; 9; 10 ] };
    Trace.Set_text { oid = 7; value = String.make 300 'x' };
    Trace.Lookup_unique { doc = 1; uid = 42 };
    Trace.Doc_oids 1;
    Trace.Store_results [ 1; 2; 3 ];
    Trace.Form_get 9;
    Trace.Form_set { oid = 9; width = 8; height = 8; data = String.make 72 '\xAB' };
    Trace.Verify_checks;
    Trace.Commit;
  ]

let sample_values =
  [
    Trace.V_unit;
    Trace.V_int (-17);
    Trace.V_int_opt None;
    Trace.V_int_opt (Some 99);
    Trace.V_ints [ 1; -2; 3 ];
    Trace.V_oids [];
    Trace.V_oids [ 5; 6; 7 ];
    Trace.V_links [ (1, 2, 3); (4, 5, 6) ];
    Trace.V_pairs [ (10, 0); (11, 4) ];
    Trace.V_string "";
    Trace.V_string "binary \x00\xff bytes";
    Trace.V_checks [ ("parents", true); ("refs", false) ];
    Trace.V_form (8, 8, String.make 72 '\x5c');
  ]

let sample_outcomes =
  List.map (fun v -> Trace.Done v) sample_values
  @ [ Trace.Raised "Invalid_argument"; Trace.Raised "Failure" ]

let sample_requests =
  [
    Wire.Hello { client = "test"; protocol = Wire.protocol_version };
    Wire.Ops { rid = 1; ops = sample_ops };
    Wire.Ops { rid = 2; ops = [] };
    Wire.Ping { rid = 3 };
    Wire.Snapshot { rid = 4; active = true };
    Wire.Snapshot { rid = 5; active = false };
    Wire.Bye;
  ]

let sample_responses =
  [
    Wire.Welcome { session = 12; server = "srv"; protocol = 1 };
    Wire.Results { rid = 1; outcomes = sample_outcomes };
    Wire.Results { rid = 2; outcomes = [] };
    Wire.Fault { rid = -1; code = Wire.F_bad_frame; message = "torn" };
    Wire.Fault { rid = 9; code = Wire.F_internal; message = "" };
    Wire.Fault { rid = 0; code = Wire.F_draining; message = "bye" };
    Wire.Fault { rid = 4; code = Wire.F_bad_op; message = "no parse" };
    Wire.Pong { rid = 3 };
  ]

let feed_all dec b = Wire.Decoder.feed dec b ~off:0 ~len:(Bytes.length b)

let expect_frame name dec =
  match Wire.Decoder.next dec with
  | Some (Ok f) -> f
  | Some (Error e) -> Alcotest.failf "%s: decode error %s" name (Wire.error_to_string e)
  | None -> Alcotest.failf "%s: frame not complete" name

let expect_error name dec =
  match Wire.Decoder.next dec with
  | Some (Error e) -> e
  | Some (Ok _) -> Alcotest.failf "%s: expected error, got a frame" name
  | None -> Alcotest.failf "%s: expected error, got None" name

(* --- round trips --- *)

let test_request_round_trip () =
  let dec = Wire.Decoder.create_request () in
  List.iter (fun r -> feed_all dec (Wire.encode_request r)) sample_requests;
  List.iter
    (fun r ->
      let got = expect_frame "request" dec in
      if got <> r then Alcotest.fail "request did not round-trip")
    sample_requests;
  check Alcotest.int "drained" 0 (Wire.Decoder.buffered dec)

let test_response_round_trip () =
  let dec = Wire.Decoder.create_response () in
  List.iter (fun r -> feed_all dec (Wire.encode_response r)) sample_responses;
  List.iter
    (fun r ->
      let got = expect_frame "response" dec in
      if got <> r then Alcotest.fail "response did not round-trip")
    sample_responses;
  check Alcotest.int "drained" 0 (Wire.Decoder.buffered dec)

let test_ops_survive_the_wire () =
  (* The op payload is the canonical trace grammar: parse-print must be
     exact for every op constructor the protocol can carry. *)
  let dec = Wire.Decoder.create_request () in
  feed_all dec (Wire.encode_request (Wire.Ops { rid = 5; ops = sample_ops }));
  match expect_frame "ops" dec with
  | Wire.Ops { rid = 5; ops } ->
    check Alcotest.int "op count" (List.length sample_ops) (List.length ops);
    List.iter2
      (fun a b ->
        check Alcotest.string "op text" (Trace.op_to_string a)
          (Trace.op_to_string b))
      sample_ops ops
  | _ -> Alcotest.fail "wrong frame"

let test_encode_returns_fresh_buffer () =
  (* Buffer-reuse audit: encoders must not hand out a shared scratch
     buffer — encode twice, clobber the first result, and the second
     must still carry the frame intact. *)
  let r = Wire.Ping { rid = 77 } in
  let first = Wire.encode_request r in
  let second = Wire.encode_request r in
  Bytes.fill first 0 (Bytes.length first) 'X';
  let dec = Wire.Decoder.create_request () in
  feed_all dec second;
  (match expect_frame "fresh" dec with
  | Wire.Ping { rid = 77 } -> ()
  | _ -> Alcotest.fail "second encode was corrupted by clobbering the first")

(* --- torn / partial reads --- *)

let test_torn_single_byte_feed () =
  (* Feed a multi-frame stream one byte at a time; every frame must pop
     out exactly when its last byte arrives, never before. *)
  let stream =
    Bytes.concat Bytes.empty (List.map Wire.encode_response sample_responses)
  in
  let dec = Wire.Decoder.create_response () in
  let got = ref [] in
  Bytes.iter
    (fun c ->
      Wire.Decoder.feed dec (Bytes.make 1 c) ~off:0 ~len:1;
      match Wire.Decoder.next dec with
      | Some (Ok f) -> got := f :: !got
      | Some (Error e) ->
        Alcotest.failf "torn feed error: %s" (Wire.error_to_string e)
      | None -> ())
    stream;
  check Alcotest.int "all frames recovered"
    (List.length sample_responses)
    (List.length !got);
  if List.rev !got <> sample_responses then
    Alcotest.fail "torn stream decoded differently"

let test_torn_every_split_point () =
  (* One frame cut into (prefix, suffix) at every boundary: decode must
     return None on the prefix (for every proper prefix) and the frame
     after the suffix. *)
  let frame =
    Wire.encode_request (Wire.Ops { rid = 1; ops = sample_ops })
  in
  let n = Bytes.length frame in
  for cut = 0 to n - 1 do
    let dec = Wire.Decoder.create_request () in
    Wire.Decoder.feed dec frame ~off:0 ~len:cut;
    (match Wire.Decoder.next dec with
    | None -> ()
    | Some _ -> Alcotest.failf "frame complete at %d/%d bytes" cut n);
    Wire.Decoder.feed dec frame ~off:cut ~len:(n - cut);
    match expect_frame "suffix" dec with
    | Wire.Ops { rid = 1; _ } -> ()
    | _ -> Alcotest.fail "wrong frame after split"
  done

let test_feed_buffer_reuse () =
  (* The caller's read buffer is reused between feeds — the decoder
     must have copied the bytes (the audit contract for real fds). *)
  let frame = Wire.encode_request (Wire.Ping { rid = 77 }) in
  let dec = Wire.Decoder.create_request () in
  let scratch = Bytes.create 1 in
  Bytes.iter
    (fun c ->
      Bytes.set scratch 0 c;
      Wire.Decoder.feed dec scratch ~off:0 ~len:1;
      Bytes.set scratch 0 '\xee' (* clobber after feed *))
    frame;
  match Wire.Decoder.next dec with
  | Some (Ok (Wire.Ping { rid = 77 })) -> ()
  | _ -> Alcotest.fail "decoder retained caller's buffer"

(* --- corruption --- *)

let test_crc_corruption () =
  let frame = Wire.encode_request (Wire.Ping { rid = 5 }) in
  (* flip one bit in the body *)
  let body_off = Frame_codec.header_bytes in
  Bytes.set_uint8 frame body_off (Bytes.get_uint8 frame body_off lxor 1);
  let dec = Wire.Decoder.create_request () in
  feed_all dec frame;
  (match expect_error "crc" dec with
  | Wire.Bad_crc _ -> ()
  | e -> Alcotest.failf "expected Bad_crc, got %s" (Wire.error_to_string e));
  (* poisoned: same error again, even after feeding a good frame *)
  feed_all dec (Wire.encode_request (Wire.Ping { rid = 6 }));
  match expect_error "poisoned" dec with
  | Wire.Bad_crc _ -> ()
  | e -> Alcotest.failf "poison lost: %s" (Wire.error_to_string e)

let test_bad_magic_version_kind () =
  let mangle f =
    let frame = Wire.encode_request (Wire.Ping { rid = 1 }) in
    f frame;
    let dec = Wire.Decoder.create_request () in
    feed_all dec frame;
    expect_error "mangled" dec
  in
  (match mangle (fun b -> Bytes.set b 0 'X') with
  | Wire.Bad_magic _ -> ()
  | e -> Alcotest.failf "expected Bad_magic, got %s" (Wire.error_to_string e));
  (* The protocol version lives in the magic: a protocol-1 frame ("HM",
     version 1, kind, length, body CRC) fails it. *)
  (match
     mangle (fun b ->
         Bytes.blit_string "HM\001\003" 0 b 0 4)
   with
  | Wire.Bad_magic m when m = Char.code 'H' -> ()
  | e -> Alcotest.failf "expected Bad_magic 'H', got %s" (Wire.error_to_string e));
  let kind_off = 1 in
  (match mangle (fun b -> Bytes.set_uint8 b kind_off 77) with
  | Wire.Unknown_kind 77 -> ()
  | e -> Alcotest.failf "expected Unknown_kind, got %s" (Wire.error_to_string e));
  (* a response kind on the request side is equally unknown *)
  match mangle (fun b -> Bytes.set_uint8 b kind_off 130) with
  | Wire.Unknown_kind 130 -> ()
  | e ->
    Alcotest.failf "expected Unknown_kind 130, got %s" (Wire.error_to_string e)

let test_oversized_rejection () =
  let frame = Wire.encode_request (Wire.Ops { rid = 1; ops = sample_ops }) in
  let dec = Wire.Decoder.create_request ~max_frame:16 () in
  feed_all dec frame;
  match expect_error "oversized" dec with
  | Wire.Oversized { limit = 16; _ } -> ()
  | e -> Alcotest.failf "expected Oversized, got %s" (Wire.error_to_string e)

let test_truncated_body_is_malformed () =
  (* A frame whose CRC passes but whose body lies about its lengths:
     declare a string longer than the body. *)
  let frame =
    Frame_codec.write ~magic:(Bytes.get_uint8 (Wire.encode_request Wire.Bye) 0)
      ~kind:1 (* Hello *) ~len:8
      (fun n b off -> Bytes.set_int64_le b off n)
      1000L (* string length 1000, but no bytes *)
  in
  let dec = Wire.Decoder.create_request () in
  feed_all dec frame;
  match expect_error "truncated body" dec with
  | Wire.Malformed _ -> ()
  | e -> Alcotest.failf "expected Malformed, got %s" (Wire.error_to_string e)

(* --- fuzz: never crash --- *)

let test_random_bytes_never_crash =
  QCheck.Test.make ~count:500 ~name:"decoder never raises on random bytes"
    QCheck.(pair small_int (list (string_of_size Gen.small_nat)))
    (fun (chunk_seed, chunks) ->
      let dec = Wire.Decoder.create_request () in
      ignore chunk_seed;
      List.iter
        (fun s ->
          let b = Bytes.of_string s in
          Wire.Decoder.feed dec b ~off:0 ~len:(Bytes.length b);
          (* drain whatever the decoder makes of it *)
          let rec drain n =
            if n > 0 then
              match Wire.Decoder.next dec with
              | Some (Ok _) -> drain (n - 1)
              | Some (Error _) | None -> ()
          in
          drain 100)
        chunks;
      true)

let test_random_corruption_never_crashes =
  (* Start from a valid stream, corrupt one byte anywhere: decode must
     yield frames and/or a typed error, never raise. *)
  QCheck.Test.make ~count:500 ~name:"single-byte corruption is typed"
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, byte) ->
      let stream =
        Bytes.concat Bytes.empty
          (List.map Wire.encode_request sample_requests)
      in
      let pos = pos_seed mod Bytes.length stream in
      Bytes.set_uint8 stream pos (byte land 0xff);
      let dec = Wire.Decoder.create_request () in
      Wire.Decoder.feed dec stream ~off:0 ~len:(Bytes.length stream);
      let rec drain n =
        if n > 0 then
          match Wire.Decoder.next dec with
          | Some (Ok _) -> drain (n - 1)
          | Some (Error _) | None -> ()
      in
      drain 100;
      true)

let test_outcome_codec_round_trip () =
  (* One outcome per frame; the decoder fails a body it does not consume
     exactly. *)
  List.iter
    (fun o ->
      let dec = Wire.Decoder.create_response () in
      feed_all dec (Wire.encode_response (Wire.Results { rid = 1; outcomes = [ o ] }));
      match expect_frame "outcome" dec with
      | Wire.Results { outcomes = [ o' ]; _ } when Trace.outcome_equal o o' -> ()
      | _ ->
        Alcotest.failf "outcome did not round-trip: %s"
          (Trace.outcome_to_string o))
    sample_outcomes

let () =
  Alcotest.run "test_wire"
    [
      ( "round-trip",
        [
          Alcotest.test_case "requests" `Quick test_request_round_trip;
          Alcotest.test_case "responses" `Quick test_response_round_trip;
          Alcotest.test_case "ops payload" `Quick test_ops_survive_the_wire;
          Alcotest.test_case "encode is fresh" `Quick
            test_encode_returns_fresh_buffer;
          Alcotest.test_case "outcome codec" `Quick
            test_outcome_codec_round_trip;
        ] );
      ( "torn",
        [
          Alcotest.test_case "single-byte feed" `Quick
            test_torn_single_byte_feed;
          Alcotest.test_case "every split point" `Quick
            test_torn_every_split_point;
          Alcotest.test_case "buffer reuse" `Quick test_feed_buffer_reuse;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "crc" `Quick test_crc_corruption;
          Alcotest.test_case "magic/version/kind" `Quick
            test_bad_magic_version_kind;
          Alcotest.test_case "oversized" `Quick test_oversized_rejection;
          Alcotest.test_case "lying body lengths" `Quick
            test_truncated_body_is_malformed;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest test_random_bytes_never_crash;
          QCheck_alcotest.to_alcotest test_random_corruption_never_crashes;
        ] );
    ]
