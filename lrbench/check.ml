module Json = Cex_service.Json

let conflict_report (cr : Cex.Driver.conflict_report) =
  let c = cr.Cex.Driver.conflict in
  let where = Printf.sprintf "state %d terminal %d" c.Automaton.Conflict.state c.Automaton.Conflict.terminal in
  List.concat
    [ (if cr.Cex.Driver.counterexample = None then [ where ^ ": no counterexample" ] else []);
      (if cr.Cex.Driver.outcome = Cex.Driver.Search_crashed then [ where ^ ": search crashed" ]
       else []);
      (match cr.Cex.Driver.validation with
      | Cex.Driver.Validation_failed codes ->
        [ where ^ ": oracle rejected (" ^ String.concat ", " codes ^ ")" ]
      | Cex.Driver.Validated | Cex.Driver.Not_validated -> []) ]

let member path json =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path

let response json =
  match member [ "ok" ] json with
  | Some (Json.Bool true) -> (
    match member [ "result"; "conflicts" ] json with
    | Some (Json.List conflicts) ->
      List.concat_map
        (fun c ->
          let where =
            match member [ "state" ] c with
            | Some (Json.Int s) -> Printf.sprintf "state %d" s
            | _ -> "conflict"
          in
          (match member [ "counterexample" ] c with
          | Some Json.Null | None -> [ where ^ ": no counterexample" ]
          | Some _ -> [])
          @
          match member [ "outcome" ] c with
          | Some (Json.String "search_crashed") -> [ where ^ ": search crashed" ]
          | _ -> [])
        conflicts
    | _ -> [ "response has no result conflicts" ])
  | _ ->
    let code =
      match member [ "error"; "code" ] json with
      | Some (Json.String c) -> c
      | _ -> "?"
    in
    [ "error response: " ^ code ]

(* The response's result minus its cache flag, serialized: what an exact
   repeat must reproduce byte for byte. *)
let result_without_cache_flag json =
  match member [ "result" ] json with
  | Some (Json.Obj fields) ->
    Json.to_string ~minify:true
      (Json.Obj (List.filter (fun (k, _) -> k <> "from_cache") fields))
  | _ -> ""

let repeat ~first ~repeat =
  List.concat
    [ (match member [ "served" ] repeat with
      | Some (Json.String "report_cache") -> []
      | Some (Json.String s) -> [ "repeat served from " ^ s ]
      | _ -> [ "repeat has no served field" ]);
      (if String.equal (result_without_cache_flag first) (result_without_cache_flag repeat)
       then []
       else [ "repeat result differs from the first send" ]) ]
