(* The one JSON printer and parser: printing then parsing gives back the
   value, the layout is the fixed one the Chrome exporter relies on, and
   malformed text is refused at the offset of its first error. *)

module Json = Hare_stats.Json
module Q = QCheck

(* Bytes biased towards the ones the printer must escape or pass
   through untouched. *)
let gen_string =
  let open Q.Gen in
  let special =
    oneofl
      [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; '\000'; '\x1f'; '\x7f'; '\xc3'; '\xff' ]
  in
  string_size ~gen:(frequency [ (3, char); (1, special) ]) (0 -- 8)

let gen_leaf =
  let open Q.Gen in
  oneof
    [
      return Json.Null;
      map (fun b -> Json.Bool b) bool;
      map
        (fun i -> Json.Int i)
        (oneof [ int; oneofl [ min_int; max_int; -1; 0 ] ]);
      map
        (fun f -> Json.Float (if Float.is_finite f then f else -0.5))
        (oneof [ float; oneofl [ -0.0; 1e300; -1e-300; 0.1; 5752350.0 ] ]);
      map (fun s -> Json.String s) gen_string;
    ]

let gen_object sub =
  Q.Gen.(
    map (fun kvs -> Json.Object kvs) (list_size (0 -- 4) (pair gen_string sub)))

let gen_value =
  Q.Gen.fix
    (fun self depth ->
      if depth = 0 then gen_leaf
      else
        let sub = self (depth - 1) in
        Q.Gen.frequency
          [
            (2, gen_leaf);
            ( 1,
              Q.Gen.map (fun l -> Json.Array l) (Q.Gen.list_size Q.Gen.(0 -- 4) sub)
            );
            (1, gen_object sub);
            (* arrays of objects take the one-element-per-line layout *)
            ( 1,
              Q.Gen.map
                (fun l -> Json.Array l)
                (Q.Gen.list_size Q.Gen.(1 -- 3) (gen_object sub)) );
          ])
    3

let prop_round_trip =
  Q.Test.make ~name:"parse (to_string v) = Ok v" ~count:1000
    (Q.make ~print:Json.to_string gen_value)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let prop_stream =
  Q.Test.make ~name:"stream_objects prints what to_string prints" ~count:200
    (Q.make (Q.Gen.list_size Q.Gen.(0 -- 4) (gen_object gen_leaf)))
    (fun objs ->
      let buf = Buffer.create 64 in
      Json.stream_objects buf "k" (fun emit -> List.iter emit objs);
      String.equal (Buffer.contents buf)
        (Json.to_string (Json.Object [ ("k", Json.Array objs) ])))

let sample =
  Json.(
    Object
      [
        ("schema", String "x/1");
        ("rows", Array [ Object [ ("n", Int (-3)); ("f", Float 2.5) ]; Object [] ]);
        ("flags", Array [ Bool true; Null; String "a\"b\\c\n" ]);
      ])

let test_layout () =
  Alcotest.(check string)
    "compact, one line per element of an array of objects"
    "{\"schema\":\"x/1\",\"rows\":[\n{\"n\":-3,\"f\":2.5},\n{}\n],\"flags\":[true,null,\"a\\\"b\\\\c\\n\"]}\n"
    (Json.to_string sample)

let test_decimals () =
  let show v = String.trim (Json.to_string v) in
  Alcotest.(check string) "9 decimals, shortest form" "0.0032237"
    (show (Json.decimals 9 0.0032237000001));
  Alcotest.(check string) "an integral float keeps its point" "1.0"
    (show (Json.decimals 3 1.0004));
  Alcotest.(check bool) "0 decimals is an Int" true
    (Json.decimals 0 5752350.4 = Json.Int 5752350)

let test_rejects_truncated () =
  let text = Json.to_string sample in
  (* Every proper prefix of the text, its final newline aside, is cut
     inside the outer object. *)
  for k = 0 to String.length text - 2 do
    match Json.parse (String.sub text 0 k) with
    | Ok _ -> Alcotest.failf "accepted a %d-byte prefix" k
    | Error (off, _) ->
        Alcotest.(check bool) "error offset within the input" true (off <= k)
  done

let test_rejects_garbage () =
  let text = Json.to_string sample in
  (match Json.parse (text ^ "x") with
  | Error (off, _) ->
      Alcotest.(check int) "trailing garbage found where it starts"
        (String.length text) off
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  let line = "{\"traceEvents\":[\n\"ph\":\"X\",\"ts\":5,\"tid\":1,,,\n]}" in
  match Json.parse line with
  | Error (off, _) -> Alcotest.(check int) "a key outside an object" 21 off
  | Ok _ -> Alcotest.fail "accepted an event line that is not JSON"

(* Escapes other writers use and this printer never does. *)
let test_foreign_escapes () =
  Alcotest.(check bool) "\\b \\f \\/ and a \\u escape above 0x7f" true
    (Json.parse "\"\\b\\f\\/\\u00e9\\u20AC\""
    = Ok (Json.String "\b\012/\xc3\xa9\xe2\x82\xac"));
  Alcotest.(check bool) "a UTF-16 surrogate is refused" true
    (Result.is_error (Json.parse "\"\\ud83d\\ude00\""))

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "json",
      List.map QCheck_alcotest.to_alcotest [ prop_round_trip; prop_stream ]
      @ [
          tc "fixed layout" `Quick test_layout;
          tc "decimals keep printed precision" `Quick test_decimals;
          tc "truncated input rejected" `Quick test_rejects_truncated;
          tc "trailing garbage rejected" `Quick test_rejects_garbage;
          tc "escapes the printer never writes" `Quick test_foreign_escapes;
        ] );
  ]
