type directive = {
  line : int;  (* line the directive appears on *)
  governs : int;  (* line whose findings it suppresses; 0 = none *)
  rule : string;
  mutable used : bool;
}

type t = { directives : directive list; malformed : Finding.t list }

(* Built by concatenation so the scanner does not read this very line as a
   directive when linting its own sources. *)
let marker = "slint: " ^ "allow"

let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.equal (String.sub s i k) sub then Some i
    else go (i + 1)
  in
  go 0

let is_blank s = String.equal (String.trim s) ""

let is_rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* The directive text after the marker: a rule name, then a mandatory
   free-form reason ("— why this is safe"). *)
let parse_directive rest =
  let rest = String.trim rest in
  let n = String.length rest in
  let stop = ref 0 in
  while !stop < n && is_rule_char rest.[!stop] do
    incr stop
  done;
  if !stop = 0 then None
  else
    let rule = String.sub rest 0 !stop in
    let tail = String.sub rest !stop (n - !stop) in
    let reason =
      String.to_seq tail
      |> Seq.filter (fun c ->
             (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
             || (c >= '0' && c <= '9'))
      |> Seq.length
    in
    Some (rule, reason >= 3)

let directive_only line idx =
  (* the directive's opening comment is the first non-blank thing on the
     line, so the directive governs the following code line instead *)
  let before = String.sub line 0 idx in
  match find_sub before "(*" with
  | None -> false
  | Some c -> is_blank (String.sub before 0 c)

let parse ~known ~file text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let directive_lines = Hashtbl.create 8 in
  let raw = ref [] in
  Array.iteri
    (fun i line ->
      match find_sub line marker with
      | None -> ()
      | Some idx ->
        Hashtbl.replace directive_lines (i + 1) ();
        let rest = String.sub line (idx + String.length marker)
            (String.length line - idx - String.length marker)
        in
        raw := (i + 1, directive_only line idx, parse_directive rest) :: !raw)
    lines;
  let directives = ref [] and malformed = ref [] in
  let bad lineno message =
    malformed :=
      Finding.v ~line:lineno ~file ~rule:"suppress-syntax"
        ~severity:Finding.Error message
      :: !malformed
  in
  List.iter
    (fun (lineno, own_line, parsed) ->
      match parsed with
      | None | Some (_, false) ->
        bad lineno
          (Fmt.str "malformed suppression; expected (* %s <rule> -- <reason> *)"
             marker)
      | Some (rule, true) when not (List.mem rule known) ->
        bad lineno
          (Fmt.str "suppression names unknown rule %s (known: %s)" rule
             (String.concat ", " known))
      | Some (rule, true) ->
        let governs =
          if not own_line then lineno
          else begin
            (* first following line that is not blank and not itself a
               directive-only comment line *)
            let rec scan j =
              if j > n then 0
              else if
                Hashtbl.mem directive_lines j || is_blank lines.(j - 1)
              then scan (j + 1)
              else j
            in
            scan (lineno + 1)
          end
        in
        directives := { line = lineno; governs; rule; used = false } :: !directives)
    (List.rev !raw);
  { directives = List.rev !directives; malformed = List.rev !malformed }

let malformed t = t.malformed

let suppressed t (f : Finding.t) =
  let matching d =
    String.equal d.rule f.rule && (d.governs = f.line || f.line = 0)
  in
  match List.find_opt matching t.directives with
  | None -> false
  | Some d ->
    d.used <- true;
    true

let unused t ~ran ~file =
  List.filter_map
    (fun d ->
      if d.used || not (ran d.rule) then None
      else
        Some
          (Finding.v ~line:d.line ~file ~rule:"unused-suppression"
             ~severity:Finding.Error
             (Fmt.str "suppression for rule %s matches no finding" d.rule)))
    t.directives
