let parse_structure ~rel text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf rel;
  match Parse.implementation lexbuf with
  | str -> Ok str
  | exception Syntaxerr.Error _ ->
    Error
      (Finding.v ~line:lexbuf.lex_curr_p.pos_lnum ~file:rel ~rule:"parse-error"
         ~severity:Finding.Error "syntax error; file does not parse")
  | exception Lexer.Error (_, loc) ->
    Error
      (Finding.of_location ~rule:"parse-error" ~severity:Finding.Error
         ~message:"lexical error; file does not scan" loc)

type source = { rel : string; text : string; mli : string option }

(* Value names a [.mli] declares; [None] when the interface does not
   parse (treat as everything-visible rather than silently hiding). *)
let exported_of_mli ~rel text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf rel;
  match Parse.interface lexbuf with
  | sg ->
    Some
      (List.filter_map
         (fun (si : Parsetree.signature_item) ->
           match si.psig_desc with
           | Parsetree.Psig_value vd -> Some vd.pval_name.txt
           | _ -> None)
         sg)
  | exception Syntaxerr.Error _ -> None
  | exception Lexer.Error _ -> None

let check_sources ~rules (sources : source list) =
  let parse_errors = ref [] in
  let parsed =
    List.map
      (fun s ->
        let needs_tree =
          List.exists
            (fun (r : Rule.t) ->
              r.applies s.rel
              && (r.check_structure <> None || r.check_project <> None))
            rules
        in
        let str =
          if not needs_tree then None
          else
            match parse_structure ~rel:s.rel s.text with
            | Ok str -> Some str
            | Error f ->
              parse_errors := f :: !parse_errors;
              None
        in
        (s, str))
      sources
  in
  (* The whole-program view covers every file that parsed, whatever
     rules are selected. *)
  let project_inputs =
    List.filter_map
      (fun (s, str) ->
        Option.map
          (fun str ->
            {
              Project.rel = s.rel;
              str;
              exported =
                Option.bind s.mli (fun text ->
                    exported_of_mli ~rel:(s.rel ^ "i") text);
            })
          str)
      parsed
  in
  let project_findings =
    if
      project_inputs = []
      || not (List.exists (fun (r : Rule.t) -> r.check_project <> None) rules)
    then []
    else
      let a = Absint.analyze (Project.build project_inputs) in
      List.concat_map
        (fun (r : Rule.t) ->
          match r.check_project with
          | Some check ->
            List.filter (fun (f : Finding.t) -> r.applies f.file) (check a)
          | None -> [])
        rules
  in
  let per_file =
    List.concat_map
      (fun ((s : source), str) ->
        let ctx : Rule.ctx = { rel = s.rel } in
        let applicable =
          List.filter (fun (r : Rule.t) -> r.applies s.rel) rules
        in
        (match str with
        | None -> []
        | Some str ->
          List.concat_map
            (fun (r : Rule.t) ->
              match r.check_structure with
              | Some check -> check ctx str
              | None -> [])
            applicable)
        @ List.concat_map
            (fun (r : Rule.t) ->
              match r.check_source with
              | Some check -> check ctx ~has_mli:(s.mli <> None)
              | None -> [])
            applicable)
      parsed
  in
  let all =
    List.sort_uniq Finding.compare
      (project_findings @ per_file @ !parse_errors)
  in
  let by_file = Hashtbl.create 16 in
  List.iter
    (fun (f : Finding.t) ->
      Hashtbl.replace by_file f.file
        (f :: (Option.value ~default:[] (Hashtbl.find_opt by_file f.file))))
    all;
  let ran rule = Rule.find ~name:rule rules <> None in
  List.concat_map
    (fun ((s : source), _) ->
      let fs =
        List.rev (Option.value ~default:[] (Hashtbl.find_opt by_file s.rel))
      in
      let sup = Suppress.parse ~known:Registry.names ~file:s.rel s.text in
      let kept = List.filter (fun f -> not (Suppress.suppressed sup f)) fs in
      kept @ Suppress.malformed sup @ Suppress.unused sup ~ran ~file:s.rel)
    parsed
  |> List.sort Finding.compare

let check_source ?(has_mli = true) ~rules ~rel text =
  check_sources ~rules
    [ { rel; text; mli = (if has_mli then Some "" else None) } ]

let skip_dir name =
  String.length name = 0 || name.[0] = '.' || name.[0] = '_'
  || String.equal name "node_modules"

let list_sources ~root =
  let files = ref [] in
  let rec walk rel_dir =
    let abs = if rel_dir = "" then root else Filename.concat root rel_dir in
    match Sys.readdir abs with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          let rel = if rel_dir = "" then name else rel_dir ^ "/" ^ name in
          if Sys.is_directory (Filename.concat root rel) then begin
            if not (skip_dir name) then walk rel
          end
          else if
            Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
          then files := rel :: !files)
        entries
  in
  walk "";
  List.rev !files

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan ?(rules = []) ~root () =
  let all = list_sources ~root in
  let have = Hashtbl.create 64 in
  List.iter (fun rel -> Hashtbl.replace have rel ()) all;
  all
  |> List.filter (fun rel -> Filename.check_suffix rel ".ml")
  |> List.map (fun rel ->
         let text = read_file (Filename.concat root rel) in
         let mli =
           if Hashtbl.mem have (rel ^ "i") then
             Some (read_file (Filename.concat root (rel ^ "i")))
           else None
         in
         { rel; text; mli })
  |> check_sources ~rules
