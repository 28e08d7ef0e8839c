(* Regenerate the engine-equivalence golden transcript:

     dune exec tools/equivalence.exe > test/equivalence.golden

   An optional argument sets the per-conflict configuration budget. At the
   benchmark's budget only the digest is committed:

     dune exec tools/equivalence.exe -- 50000 | sha256sum
       (compare with test/equivalence_50k.sha256)

   The committed file was captured from the seed (pre-overhaul) engine; only
   regenerate it for a change that is *meant* to alter search outcomes, and
   say so in the commit message. *)

let () =
  let max_configs =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1)
    else Evaluation.Equivalence.default_max_configs
  in
  print_string (Evaluation.Equivalence.summary ~max_configs ())
