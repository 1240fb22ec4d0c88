type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Integral values print without a fraction ("12", not "12."), everything
   else as the shortest of %.15g / %.17g that parses back to the same
   float — 15 digits suffice for most values and stay readable, 17 is
   always exact for a binary64. *)
let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else begin
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (num_to_string f)
  | Str s ->
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_into buf k;
        Buffer.add_string buf "\":";
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the raw byte string.                  *)
(* ------------------------------------------------------------------ *)

exception Fail of string * int

(* Arrays and objects nest at most this deep. The deepest document the
   repository writes (a snowplow snapshot's aux state) nests 9 levels;
   the bound turns a hostile "[[[[..." into a prompt typed error instead
   of a parse that grows the stack and the heap with the input. *)
let max_depth = 512

type st = { s : string; mutable pos : int; mutable depth : int }

let fail st msg = raise (Fail (msg, st.pos))

let eof st = st.pos >= String.length st.s

let peek st = st.s.[st.pos]

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    (not (eof st))
    && (match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance st
  done

let expect_lit st lit v =
  let n = String.length lit in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = lit then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st (Printf.sprintf "expected %s" lit)

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = peek st in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

let parse_string st =
  (* opening quote already checked by the caller *)
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then fail st "unterminated string";
    match peek st with
    | '"' -> advance st
    | '\\' ->
      advance st;
      if eof st then fail st "unterminated escape";
      (match peek st with
      | '"' -> Buffer.add_char buf '"'; advance st
      | '\\' -> Buffer.add_char buf '\\'; advance st
      | '/' -> Buffer.add_char buf '/'; advance st
      | 'b' -> Buffer.add_char buf '\b'; advance st
      | 'f' -> Buffer.add_char buf '\012'; advance st
      | 'n' -> Buffer.add_char buf '\n'; advance st
      | 'r' -> Buffer.add_char buf '\r'; advance st
      | 't' -> Buffer.add_char buf '\t'; advance st
      | 'u' ->
        advance st;
        let cp = hex4 st in
        let cp =
          (* high surrogate: look for the paired \uXXXX low surrogate *)
          if
            cp >= 0xD800 && cp <= 0xDBFF
            && st.pos + 1 < String.length st.s
            && peek st = '\\'
            && st.s.[st.pos + 1] = 'u'
          then begin
            st.pos <- st.pos + 2;
            let lo = hex4 st in
            if lo >= 0xDC00 && lo <= 0xDFFF then
              0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
            else fail st "unpaired surrogate"
          end
          else cp
        in
        add_utf8 buf cp
      | _ -> fail st "unknown escape");
      go ()
    | c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (not (eof st)) && is_num_char (peek st) do
    advance st
  done;
  let lit = String.sub st.s start (st.pos - start) in
  match float_of_string_opt lit with
  | Some f -> Num f
  | None -> fail st (Printf.sprintf "bad number %S" lit)

let rec parse_value st =
  skip_ws st;
  if eof st then fail st "unexpected end of input";
  match peek st with
  | '{' -> nested st parse_obj
  | '[' -> nested st parse_arr
  | '"' -> Str (parse_string st)
  | 't' -> expect_lit st "true" (Bool true)
  | 'f' -> expect_lit st "false" (Bool false)
  | 'n' -> expect_lit st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st (Printf.sprintf "unexpected character %C" c)

and nested st parse =
  if st.depth >= max_depth then
    fail st (Printf.sprintf "nesting deeper than %d" max_depth);
  st.depth <- st.depth + 1;
  let v = parse st in
  st.depth <- st.depth - 1;
  v

and parse_arr st =
  advance st;
  skip_ws st;
  if (not (eof st)) && peek st = ']' then begin
    advance st;
    Arr []
  end
  else begin
    let rec items acc =
      let v = parse_value st in
      skip_ws st;
      if eof st then fail st "unterminated array";
      match peek st with
      | ',' -> advance st; items (v :: acc)
      | ']' -> advance st; Arr (List.rev (v :: acc))
      | _ -> fail st "expected ',' or ']'"
    in
    items []
  end

and parse_obj st =
  advance st;
  skip_ws st;
  if (not (eof st)) && peek st = '}' then begin
    advance st;
    Obj []
  end
  else begin
    let field () =
      skip_ws st;
      if eof st || peek st <> '"' then fail st "expected field name";
      let k = parse_string st in
      skip_ws st;
      if eof st || peek st <> ':' then fail st "expected ':'";
      advance st;
      let v = parse_value st in
      (k, v)
    in
    let rec fields acc =
      let kv = field () in
      skip_ws st;
      if eof st then fail st "unterminated object";
      match peek st with
      | ',' -> advance st; fields (kv :: acc)
      | '}' -> advance st; Obj (List.rev (kv :: acc))
      | _ -> fail st "expected ',' or '}'"
    in
    fields []
  end

let of_string s =
  let st = { s; pos = 0; depth = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if not (eof st) then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (msg, pos) ->
    Error (Printf.sprintf "json: %s at byte %d" msg pos)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let num_opt = function Num f -> Some f | _ -> None

let str_opt = function Str s -> Some s | _ -> None

let arr_opt = function Arr items -> Some items | _ -> None

module Decode = struct
  exception Error of string

  let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

  let field name j =
    match member name j with
    | Some v -> v
    | None -> error "missing field %S" name

  let num_field name j =
    match field name j with
    | Num f -> f
    | _ -> error "field %S: expected number" name

  let int_field name j =
    let f = num_field name j in
    if Float.is_integer f && Float.abs f <= 2.0 ** 53.0 then int_of_float f
    else error "field %S: expected integer, got %s" name (num_to_string f)

  let str_field name j =
    match field name j with
    | Str s -> s
    | _ -> error "field %S: expected string" name

  let bool_field name j =
    match field name j with
    | Bool b -> b
    | _ -> error "field %S: expected bool" name

  let arr_field name j =
    match field name j with
    | Arr items -> items
    | _ -> error "field %S: expected array" name

  let obj_field name j =
    match field name j with
    | Obj _ as o -> o
    | _ -> error "field %S: expected object" name

  (* Int64 values (RNG states) exceed the float-exact integer range, so
     they travel as 16-digit hex strings rather than [Num]. *)
  let int64_to_json v = Str (Printf.sprintf "%016Lx" v)

  let int64_field name j =
    let s = str_field name j in
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v when String.length s = 16 -> v
    | _ -> error "field %S: expected 16-digit hex int64, got %S" name s

  let run f = match f () with v -> Ok v | exception Error msg -> Error msg
end

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b -> Float.equal a b
  | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
    List.length a = List.length b
    && List.for_all2
         (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
         a b
  | (Null | Bool _ | Num _ | Str _ | Arr _ | Obj _), _ -> false
