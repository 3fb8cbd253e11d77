type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

let decimals d x =
  let s = Printf.sprintf "%.*f" d x in
  if d = 0 then Int (int_of_string s) else Float (float_of_string s)

let write_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest of %.15g, %.16g and %.17g that reads back exactly (%.17g
   always does), marked as a float. *)
let float_text x =
  if not (Float.is_finite x) then invalid_arg "Json: non-finite float";
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || Float.equal (float_of_string s) x then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let is_object = function Object _ -> true | _ -> false

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (Bool.to_string b)
  | Int i -> Buffer.add_string buf (Int.to_string i)
  | Float x -> Buffer.add_string buf (float_text x)
  | String s -> write_string buf s
  | Array l -> array buf ~lines:(List.for_all is_object l) (fun f -> List.iter f l)
  | Object kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

(* The elements [iter] passes on; [lines] puts each on its own line. *)
and array buf ~lines iter =
  Buffer.add_char buf '[';
  let n = ref 0 in
  iter (fun v ->
      if !n > 0 then Buffer.add_char buf ',';
      if lines then Buffer.add_char buf '\n';
      incr n;
      write buf v);
  Buffer.add_string buf (if lines && !n > 0 then "\n]" else "]")

let to_string v =
  let buf = Buffer.create 4096 in
  write buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let stream_objects buf key iter =
  Buffer.add_char buf '{';
  write_string buf key;
  Buffer.add_char buf ':';
  array buf ~lines:true (fun f ->
      iter (fun v ->
          if not (is_object v) then invalid_arg "Json.stream_objects";
          f v));
  Buffer.add_string buf "}\n"

exception Fail of int * string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Fail (!pos, what)) in
  let at c = !pos < n && s.[!pos] = c in
  let eat c = at c && (incr pos; true) in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () =
    if at ' ' || at '\n' || at '\t' || at '\r' then (incr pos; ws ())
  in
  (* Consumes and returns the longest run of bytes that satisfy [ok]. *)
  let span ok =
    let p0 = !pos in
    while !pos < n && ok s.[!pos] do incr pos done;
    String.sub s p0 (!pos - p0)
  in
  let digits () =
    if String.equal (span (fun c -> c >= '0' && c <= '9')) "" then
      fail "expected a digit"
  in
  let number () =
    let p0 = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    let frac = eat '.' in
    if frac then digits ();
    let exp = eat 'e' || eat 'E' in
    if exp then (ignore (eat '+' || eat '-'); digits ());
    let text = String.sub s p0 (!pos - p0) in
    match if frac || exp then None else int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)
  in
  let escape b =
    let c = if !pos < n then s.[!pos] else '?' in
    incr pos;
    if c = 'u' then begin
      let h = String.sub s !pos (Int.min 4 (n - !pos)) in
      let hex = function '0'..'9' | 'a'..'f' | 'A'..'F' -> true | _ -> false in
      let u =
        if String.length h = 4 && String.for_all hex h then
          int_of_string ("0x" ^ h)
        else -1
      in
      if not (Uchar.is_valid u) then fail "expected 4 hex digits, not a surrogate";
      pos := !pos + 4;
      Buffer.add_utf_8_uchar b (Uchar.of_int u)
    end
    else
      (* The one-letter escapes and the bytes they stand for. *)
      match String.index_opt "\"\\/bfnrt" c with
      | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
      | None -> decr pos; fail "bad escape"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      Buffer.add_string b (span (fun c -> c <> '"' && c <> '\\' && c >= ' '));
      if eat '"' then Buffer.contents b
      else if eat '\\' then (escape b; go ())
      else if !pos < n then fail "raw control byte in string"
      else fail "unterminated string"
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "expected a value";
    match s.[!pos] with
    | '{' -> incr pos; Object (items '}' member)
    | '[' -> incr pos; Array (items ']' value)
    | '"' -> String (string_lit ())
    | 't' | 'f' | 'n' -> (
        let p0 = !pos in
        match span (fun c -> c >= 'a' && c <= 'z') with
        | "true" -> Bool true
        | "false" -> Bool false
        | "null" -> Null
        | _ -> pos := p0; fail "expected true, false or null")
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  and member () =
    ws ();
    let k = string_lit () in
    ws ();
    expect ':';
    (k, value ())
  (* The elements of an array or object, up to and including [close]. *)
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    ws ();
    if eat close then []
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if eat ',' then more acc
        else if eat close then List.rev acc
        else fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      more []
  in
  match
    let v = value () in
    ws ();
    if !pos < n then fail "trailing garbage after the value";
    v
  with
  | v -> Ok v
  | exception Fail (off, what) -> Error (off, what)

let member key = function
  | Object kvs ->
      List.find_map (fun (k, v) -> if String.equal k key then Some v else None) kvs
  | _ -> None
