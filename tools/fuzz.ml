(* Differential fuzzing entry point (CI: fixed seed range, nonzero exit on
   any failure). Deterministic: seeds fully determine generation, and all
   search budgets are configuration counts, so output is stable across
   machines apart from nothing at all — timings are never printed. *)

let usage = "fuzz [--seeds N] [--seed K] [--first K]"

let () =
  let seeds = ref 200 in
  let first = ref 1 in
  let single = ref None in
  let args =
    [ ("--seeds", Arg.Set_int seeds, "N  number of consecutive seeds (default 200)");
      ("--first", Arg.Set_int first, "K  first seed (default 1)");
      ("--seed", Arg.Int (fun k -> single := Some k), "K  run exactly one seed") ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let seed_list =
    match !single with
    | Some k -> [ k ]
    | None -> List.init !seeds (fun i -> !first + i)
  in
  let summary = Cex_validate.Fuzz.run seed_list in
  Format.printf "%a@." Cex_validate.Fuzz.pp_summary summary;
  List.iter
    (fun f -> Format.printf "%a@." Cex_validate.Fuzz.pp_failure f)
    (List.rev summary.Cex_validate.Fuzz.failures);
  if summary.Cex_validate.Fuzz.failures <> [] then exit 1
