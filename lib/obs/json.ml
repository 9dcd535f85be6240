type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
         xs ys
  | (Null | Bool _ | Int _ | Float _ | Str _ | List _ | Obj _), _ -> false

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

module Cfmt = Speedscale_util.Cfmt

(* The decimal digits of [n >= 0], most significant first.  Cheaper than
   [string_of_int], which goes through the C [printf]. *)
let digits_of n =
  let len = ref 1 and m = ref n in
  while !m >= 10 do
    incr len;
    m := !m / 10
  done;
  let b = Bytes.create !len and m = ref n in
  for i = !len - 1 downto 0 do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!m mod 10)));
    m := !m / 10
  done;
  b

let add_int buf i =
  if i >= 0 then Buffer.add_bytes buf (digits_of i)
  else if i = Int.min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    Buffer.add_bytes buf (digits_of (-i))
  end

(* The float rule is [%g] at the smallest precision P in 15, 16, 17 whose
   text parses back to [x]: with Ryū's shortest digits (n of them) that is
   P = max 15 n, except for the two classes [add_float] hands to
   [add_float_fallback].  [%g] uses the exponent form when the decimal
   exponent X of the first digit is below -4 or at least P, strips trailing
   zeros, and prints at least two exponent digits. *)
let add_g buf s exp =
  let n = Bytes.length s in
  let x = exp + n - 1 in
  if x < -4 || x >= Int.max 15 n then begin
    Buffer.add_char buf (Bytes.get s 0);
    if n > 1 then begin
      Buffer.add_char buf '.';
      Buffer.add_subbytes buf s 1 (n - 1)
    end;
    Buffer.add_string buf (if x < 0 then "e-" else "e+");
    if abs x < 10 then Buffer.add_char buf '0';
    add_int buf (abs x)
  end
  else if x < 0 then begin
    Buffer.add_string buf "0.";
    for _ = 2 to -x do
      Buffer.add_char buf '0'
    done;
    Buffer.add_bytes buf s
  end
  else if n <= x + 1 then begin
    Buffer.add_bytes buf s;
    for _ = n to x do
      Buffer.add_char buf '0'
    done;
    (* bare digits would decode as Int: keep it a float on the wire *)
    Buffer.add_string buf ".0"
  end
  else begin
    Buffer.add_subbytes buf s 0 (x + 1);
    Buffer.add_char buf '.';
    Buffer.add_subbytes buf s (x + 1) (n - x - 1)
  end

(* The rule itself, one [printf] per precision plus a parse to check it. *)
let add_float_fallback buf x =
  let exact s = Float.equal (float_of_string s) x in
  let s = Cfmt.float "%.15g" x in
  let s =
    if exact s then s
    else
      let s = Cfmt.float "%.16g" x in
      if exact s then s else Cfmt.float "%.17g" x
  in
  Buffer.add_string buf s;
  if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
    Buffer.add_string buf ".0"

let add_float buf x =
  if Float.is_nan x then Buffer.add_string buf "NaN"
  else if Float.equal x Float.infinity then Buffer.add_string buf "Infinity"
  else if Float.equal x Float.neg_infinity then
    Buffer.add_string buf "-Infinity"
  else if Float.is_integer x && Float.abs x < 1e16 then begin
    (* the [%.1f] of an integral float below 1e16 *)
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_int buf (abs (Float.to_int x));
    Buffer.add_string buf ".0"
  end
  else
    let digits, exp = Ryu.shortest x in
    let rec strip d e =
      if d mod 10 = 0 then strip (d / 10) (e + 1) else (d, e)
    in
    let digits, exp = strip digits exp in
    let s = digits_of digits in
    let n = Bytes.length s in
    (* Two classes where the nearest P-digit decimal and the shortest one
       differ.  A subnormal's rounding interval is wide enough to hold
       several 15-digit decimals, and [%.15g] picks the nearest, not the
       shortest.  A power of two has a lower half-interval half as wide as
       the upper, so the nearest 16-digit decimal can fall outside it, and
       the rule goes on to 17 digits where Ryū stops at 16. *)
    let subnormal = Float.abs x < Float.min_float in
    let power_of_two =
      (not subnormal)
      && Int64.equal
           (Int64.logand (Int64.bits_of_float x) 0xF_FFFF_FFFF_FFFFL)
           0L
    in
    if (subnormal && n <= 15) || (power_of_two && n = 16) then
      add_float_fallback buf x
    else begin
      if Float.sign_bit x then Buffer.add_char buf '-';
      add_g buf s exp
    end

let float_to_string x =
  let buf = Buffer.create 24 in
  add_float buf x;
  Buffer.contents buf

let hex_digit = "0123456789abcdef"

let needs_escape s =
  String.exists (fun c -> c = '"' || c = '\\' || Char.code c < 0x20) s

let escape_string buf s =
  Buffer.add_char buf '"';
  if not (needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digit.[Char.code c lsr 4];
          Buffer.add_char buf hex_digit.[Char.code c land 15]
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* Indentation for the first nesting levels, built once. *)
let indents = Array.init 16 (fun depth -> String.make (2 * depth) ' ')

let pad buf depth =
  if depth < Array.length indents then Buffer.add_string buf indents.(depth)
  else Buffer.add_string buf (String.make (2 * depth) ' ')

let to_buffer buf v =
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float f -> add_float buf f
    | Str s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad buf (depth + 1);
          go (depth + 1) item)
        items;
      Buffer.add_char buf '\n';
      pad buf depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad buf (depth + 1);
          escape_string buf k;
          Buffer.add_string buf ": ";
          go (depth + 1) item)
        fields;
      Buffer.add_char buf '\n';
      pad buf depth;
      Buffer.add_char buf '}'
  in
  go 0 v

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when Char.equal got c -> advance ()
    | Some got -> fail (Fmt.str "expected %C, found %C" c got)
    | None -> fail (Fmt.str "expected %C, found end of input" c)
  in
  let literal word value =
    let k = String.length word in
    if !pos + k <= n && String.equal (String.sub s !pos k) word then begin
      pos := !pos + k;
      value
    end
    else fail (Fmt.str "invalid token (expected %s)" word)
  in
  let utf8_of_code buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail (Fmt.str "invalid \\u escape %S" hex)
            | Some code when code >= 0xD800 && code <= 0xDFFF ->
              fail "surrogate \\u escapes are not supported"
            | Some code ->
              pos := !pos + 4;
              utf8_of_code buf code)
          | c -> fail (Fmt.str "invalid escape \\%c" c)));
        loop ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if Option.equal Char.equal (peek ()) (Some '-') then advance ();
    let is_float = ref false in
    let rec loop () =
      match peek () with
      | Some ('0' .. '9') ->
        advance ();
        loop ()
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
        is_float := true;
        advance ();
        loop ()
      | _ -> ()
    in
    loop ();
    if !pos = start then fail "expected a number";
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Fmt.str "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Fmt.str "invalid number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if Option.equal Char.equal (peek ()) (Some '}') then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | _ -> expect '}'
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if Option.equal Char.equal (peek ()) (Some ']') then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | _ -> expect ']'
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some 'N' -> literal "NaN" (Float Float.nan)
    | Some 'I' -> literal "Infinity" (Float Float.infinity)
    | Some '-' when !pos + 1 < n && Char.equal s.[!pos + 1] 'I' ->
      advance ();
      literal "Infinity" (Float Float.neg_infinity)
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Fmt.str "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after the JSON value";
  v

let of_string s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error (msg, pos) ->
    Error (Fmt.str "at offset %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int = function
  | Int i -> Ok i
  | v -> Error (Fmt.str "expected an int, found %s" (type_name v))

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | v -> Error (Fmt.str "expected a number, found %s" (type_name v))

let to_str = function
  | Str s -> Ok s
  | v -> Error (Fmt.str "expected a string, found %s" (type_name v))

let to_bool = function
  | Bool b -> Ok b
  | v -> Error (Fmt.str "expected a bool, found %s" (type_name v))

let to_list = function
  | List items -> Ok items
  | v -> Error (Fmt.str "expected an array, found %s" (type_name v))
