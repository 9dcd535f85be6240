type ctx = { rel : string }

type t = {
  name : string;
  doc : string;
  example : string;  (* minimal firing snippet, shown by slint --explain *)
  severity : Finding.severity;
  applies : string -> bool;
  check_structure : (ctx -> Parsetree.structure -> Finding.t list) option;
  check_source : (ctx -> has_mli:bool -> Finding.t list) option;
  check_project : (Absint.t -> Finding.t list) option;
}

let everywhere _ = true

let under dir rel =
  let prefix = dir ^ "/" in
  let n = String.length prefix in
  String.length rel >= n && String.equal (String.sub rel 0 n) prefix

let lib_only = under "lib"

let make ?(applies = everywhere) ?check_structure ?check_source ?check_project
    ?(example = "") ~doc ~severity name =
  {
    name;
    doc;
    example;
    severity;
    applies;
    check_structure;
    check_source;
    check_project;
  }

let find ~name rules = List.find_opt (fun r -> String.equal r.name name) rules

let finding rule ~message loc =
  Finding.of_location ~rule:rule.name ~severity:rule.severity ~message loc
