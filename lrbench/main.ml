(* The lrcex benchmark runner.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--nproc N] [--commit C]

   Runs a number of whole passes of workload W (see Workload) scaled from
   S, checks every output, prints provenance, every metric by name with its
   unit, and as the last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones and
   the tracing overhead. Exits 1 when a check failed. *)

open Lrbench
module Json = Cex_service.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload corpus_search|corpus_validate|serve_edit --seed N \
     --seconds S --trace 0|1 [--nproc N] [--commit C]";
  exit 2

(* Domains the scheduler runs on, as [lrcex batch --jobs 2]. *)
let jobs = 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let known = [ "workload"; "seed"; "seconds"; "trace"; "nproc"; "commit" ] in
  Hashtbl.iter (fun k _ -> if not (List.mem k known) then usage ()) tbl;
  let get k = Hashtbl.find_opt tbl k in
  let int k ~default =
    match get k with
    | None -> ( match default with Some d -> d | None -> usage ())
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let kind =
    match Option.bind (get "workload") (fun w -> List.assoc_opt w Workload.kinds) with
    | Some k -> k
    | None -> usage ()
  in
  ( kind,
    Option.get (get "workload"),
    int "seed" ~default:None,
    int "seconds" ~default:None,
    int "trace" ~default:(Some 0) <> 0,
    int "nproc" ~default:(Some (Domain.recommended_domain_count ())),
    Option.value ~default:"unknown" (get "commit") )

(* Passes per 30 seconds of --seconds: about 32, 27 and 40 s of work on a
   2-core machine, set-up and repeat rounds included. serve_edit takes four
   because a pass's peak RSS depends on which edits its seed drew (1.26 GB
   for one seed, 1.68 GB for another), and the median of four steadies it.
   The pass count follows from the arguments alone, never from how fast
   the machine happens to be, so a run's work is fixed. *)
let passes_per_30s = function
  | Workload.Corpus_search -> 2
  | Workload.Corpus_validate -> 1
  | Workload.Serve_edit -> 4

(* Set-up is timed at least this often in a run, and its median
   reported. The corpus set-up takes about 10 ms, short enough for the
   machine's drift to move single samples by a third, so set-up-only
   processes run before every pass, spreading the samples over the run.
   serve_edit's 1.4 s edit generation is timed once per pass. *)
let min_setups = function
  | Workload.Corpus_search | Workload.Corpus_validate -> 12
  | Workload.Serve_edit -> 4

let median = Workload.median

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* Run [f] in a forked child and return its marshalled result. Called only
   between passes, when the domain pool has joined its workers. *)
let isolated (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (result : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let result =
      try (Marshal.from_channel ic : ('a, string) result)
      with End_of_file | Failure _ -> Error "pass process ended without a result"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    result

let pass_seed seed k = Hashtbl.hash (seed, k)

let layer (p : Workload.pass) k = Option.value ~default:0.0 (List.assoc_opt k p.Workload.layers)

(* Work counters that must repeat exactly whenever the inputs do. *)
let work_counters (p : Workload.pass) =
  ( layer p "product_search.configs_explored",
    layer p "path_search.pops",
    p.Workload.decided,
    p.Workload.conflicts )

let () =
  let kind, workload, seed, seconds, trace, nproc, commit = args () in
  Cex_session.Pool.tune_gc ();
  let passes = max 1 (seconds * passes_per_30s kind / 30) in
  (* Untraced run: [passes] passes on distinct inputs. Traced run: pairs of
     a traced and an untraced pass on the same inputs, for the overhead; the
     order alternates, traced first, so a slower first pass overstates the
     overhead rather than hiding it. *)
  let schedule =
    if not trace then List.init passes (fun k -> (pass_seed seed k, false))
    else
      List.concat
        (List.init (max 1 (passes / 2)) (fun k ->
             let s = pass_seed seed k in
             if k mod 2 = 0 then [ (s, true); (s, false) ] else [ (s, false); (s, true) ]))
  in
  let setups = ref [] in
  let prepare s = Workload.timed (fun () -> Workload.prepare kind ~seed:s ~jobs) in
  let setup_only s =
    match isolated (fun () -> snd (prepare s)) with
    | Ok setup -> setups := setup :: !setups
    | Error msg ->
      prerr_endline ("lrbench: set-up failed: " ^ msg);
      exit 1
  in
  let n_passes = List.length schedule in
  let extra_setups = ((min_setups kind + n_passes - 1) / n_passes) - 1 in
  (* Each pass runs in a process of its own, as one lrcex invocation would:
     no heap, cache or GC state carries over between passes, and the peak
     RSS is that pass's alone. Every set-up sample is likewise the first
     thing a fresh process does. *)
  let results =
    List.map
      (fun (s, traced) ->
        for _ = 1 to extra_setups do
          setup_only s
        done;
        match
          isolated (fun () ->
              let prepared, setup = prepare s in
              (setup, Workload.run ~traced prepared))
        with
        | Ok (setup, pass) ->
          setups := setup :: !setups;
          (s, traced, pass)
        | Error msg ->
          prerr_endline ("lrbench: pass failed: " ^ msg);
          exit 1)
      schedule
  in
  let peak_rss = median (List.map (fun (_, _, p) -> p.Workload.peak_rss_mb) results) in
  let all = List.map (fun (_, _, p) -> p) results in
  let untraced = List.filter_map (fun (_, t, p) -> if t then None else Some p) results in
  let traced = List.filter_map (fun (_, t, p) -> if t then Some p else None) results in
  (* Determinism: passes on the same inputs must do exactly the same work;
     corpus passes differ only in grammar order, which changes no counter. *)
  let same_work =
    match kind with
    | Workload.Corpus_search | Workload.Corpus_validate ->
      List.for_all (fun p -> work_counters p = work_counters (List.hd all)) all
    | Workload.Serve_edit ->
      List.for_all
        (fun (s, _, p) ->
          List.for_all
            (fun (s', _, p') -> s <> s' || work_counters p = work_counters p')
            results)
        results
  in
  let failures = List.concat_map (fun p -> p.Workload.failures) all in
  let attempted = List.fold_left (fun n p -> n + p.Workload.attempted) 0 all in
  let failed = List.length failures in
  let correct = failed = 0 && same_work in
  List.iteri (fun i msg -> if i < 20 then prerr_endline ("check failed: " ^ msg)) failures;
  if not same_work then prerr_endline "check failed: work counters differ between passes on the same inputs";
  let sum f ps = List.fold_left (fun a p -> a +. f p) 0.0 ps in
  let conflicts = sum (fun p -> float_of_int p.Workload.conflicts) all in
  let decided = sum (fun p -> float_of_int p.Workload.decided) all in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let miss = List.concat_map (fun p -> p.Workload.miss_ms) untraced in
  let hit = List.concat_map (fun p -> p.Workload.hit_ms) untraced in
  let parallel_observable = jobs <= nproc in
  let metrics =
    if not trace then
      [ ("wall_s", median (List.map (fun p -> p.Workload.wall) untraced), "s");
        ("setup_s", median !setups, "s");
        ("peak_rss_mb", peak_rss, "MB");
        ("decided_ratio", ratio decided conflicts, "ratio");
        ("ok_ratio", 1.0 -. ratio (float_of_int failed) (float_of_int attempted), "ratio");
        ("miss_p50_ms", percentile 0.50 miss, "ms");
        ("miss_p95_ms", percentile 0.95 miss, "ms");
        ("hit_p50_ms", percentile 0.50 hit, "ms");
        ("hit_p95_ms", percentile 0.95 hit, "ms") ]
    else
      let n = float_of_int (List.length traced) in
      let total k = sum (fun p -> layer p k) traced in
      let mean k = total k /. n in
      let ms k = 1000.0 *. mean k in
      let maximum k = List.fold_left (fun a p -> Float.max a (layer p k)) 0.0 traced in
      let oracle_seconds = if total "oracle.seconds" > 0.0 then "oracle.seconds" else "validate.seconds" in
      let busy = total "pool.busy" and span = total "pool.span" in
      let reused = total "delta.reused_conflicts" and searched = total "delta.searched_conflicts" in
      let report_hits = total "cache.report_hits" in
      let pool =
        if not parallel_observable then []
        else
          [ ("pool.busy_ms", ms "pool.busy", "ms");
            ("pool.idle_ms", 1000.0 *. Float.max 0.0 (span -. busy) /. n, "ms");
            ("pool.utilization", ratio busy span, "ratio");
            ("pool.tail_ms", 1000.0 *. maximum "pool.tail", "ms") ]
      in
      [ ("product_search.ms", ms "product_search.seconds", "ms");
        ("product_search.configs", mean "product_search.configs_explored", "count");
        ("product_search.pushes", mean "product_search.queue_pushes", "count");
        ("product_search.alloc_words", mean "product_search.alloc_words", "words");
        ( "product_search.words_per_config",
          ratio (total "product_search.alloc_words") (total "product_search.configs_explored"),
          "words" );
        ( "product_search.unifying_ratio",
          ratio (total "product_search.unifying") (total "product_search.spans"),
          "ratio" );
        ("path_search.ms", ms "path_search.seconds", "ms");
        ("path_search.pops", mean "path_search.pops", "count");
        ("path_search.relaxations", mean "path_search.relaxations", "count");
        ("path_search.alloc_words", mean "path_search.alloc_words", "words");
        ("nonunifying.ms", ms "nonunifying.seconds", "ms");
        ("nonunifying.calls", mean "nonunifying.spans", "count");
        ("oracle.ms", ms oracle_seconds, "ms");
        ("oracle.checks", mean "validate.spans", "count");
        ( "oracle.ms_per_check",
          1000.0 *. ratio (total oracle_seconds) (total "validate.spans"),
          "ms" );
        ("session.build_ms", ms "table_build.seconds" +. ms "classify.seconds", "ms");
        ("session.lr0_states", mean "table_build.states", "count");
        ("session.builds", mean "table_build.spans", "count") ]
      @ pool
      @ [ ("scheduler.conflict_tasks", mean "scheduler.conflict_tasks", "count");
          ("scheduler.max_queue_depth", maximum "scheduler.max_queue_depth", "count");
          ("cache.session_hits", mean "cache.session_hits", "count");
          ("cache.session_misses", mean "cache.session_misses", "count");
          ("cache.report_hits", mean "cache.report_hits", "count");
          ("cache.report_misses", mean "cache.report_misses", "count");
          ( "cache.report_hit_ratio",
            ratio report_hits (report_hits +. total "cache.report_misses"),
            "ratio" );
          ("delta.ms", ms "delta.seconds", "ms");
          ("delta.reused_conflicts", mean "delta.reused_conflicts", "count");
          ("delta.searched_conflicts", mean "delta.searched_conflicts", "count");
          ("delta.reuse_ratio", ratio reused (reused +. searched), "ratio");
          ("served.cold", mean "served.cold", "count");
          ("served.delta", mean "served.delta", "count");
          ("served.session_cache", mean "served.session_cache", "count");
          ("served.report_cache", mean "served.report_cache", "count");
          ("emit.ms", ms "emit.seconds", "ms");
          ("emit.bytes", mean "emit.bytes", "bytes");
          ("grammar.parse_ms", ms "parse.seconds", "ms");
          ("gc.minor_words", mean "gc.minor_words", "words");
          ("gc.major_collections", mean "gc.major_collections", "count");
          ( "trace.overhead_ratio",
            ratio
              (median (List.map (fun p -> p.Workload.wall) traced))
              (median (List.map (fun p -> p.Workload.wall) untraced)),
            "ratio" );
          ("samples.miss", float_of_int (List.length miss) /. float_of_int (List.length untraced), "count");
          ("samples.hit", float_of_int (List.length hit) /. float_of_int (List.length untraced), "count") ]
  in
  let provenance =
    Json.Obj
      [ ( "provenance",
          Json.Obj
            [ ("workload", Json.String workload);
              ("seed", Json.Int seed);
              ("seconds", Json.Int seconds);
              ("trace", Json.Bool trace);
              ("passes", Json.Int (List.length results));
              ("nproc", Json.Int nproc);
              ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
              ("jobs", Json.Int jobs);
              ("effective_jobs", Json.Int (Cex_session.Pool.clamp_jobs jobs));
              ("ocaml", Json.String Sys.ocaml_version);
              ("commit", Json.String commit);
              ( "unobservable",
                Json.List
                  (if parallel_observable then []
                   else
                     List.map
                       (fun m -> Json.String m)
                       [ "pool.busy_ms"; "pool.idle_ms"; "pool.utilization"; "pool.tail_ms" ]) );
              ("miss_samples", Json.Int (List.length miss));
              ("hit_samples", Json.Int (List.length hit)) ] ) ]
  in
  print_endline (Json.to_string ~minify:true provenance);
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %.6g %s\n" name v unit) metrics;
  (* Json.to_string rounds floats to 6 digits; the result line carries
     every digit as measured. *)
  let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (number v) unit)
          metrics));
  exit (if correct then 0 else 1)
