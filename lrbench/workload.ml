module Json = Cex_service.Json
module Scheduler = Cex_service.Scheduler
module Json_report = Cex_service.Json_report
module Server = Cex_serve.Server

type kind = Corpus_search | Corpus_validate | Serve_edit

let kinds =
  [ ("corpus_search", Corpus_search);
    ("corpus_validate", Corpus_validate);
    ("serve_edit", Serve_edit) ]

let budget max_configs =
  { Cex.Driver.default_options with
    Cex.Driver.per_conflict_timeout = infinity;
    cumulative_timeout = infinity;
    max_configs }

(* 50 000 configurations per conflict makes the corpus batch take 10-13 s
   on two cores, nearly all of it in Java.2's 720 product searches. *)
let corpus_options = budget 50_000

(* The server answers one user at a time, so each conflict gets a tenth of
   the batch budget. Beyond ~20 000 configurations the product search on
   some edited grammars grows superlinearly in time and memory (stackovf06
   plus [y : t B] took 4.6 s and over 3 GB at 50 000). *)
let serve_options = budget 5_000

(* Repeat rounds over the corpus after the batch. *)
let hit_rounds = 200

type prepared =
  | Corpus of {
      validate : bool;
      scheduler : Scheduler.t;
      grammars : (string * Cfg.Grammar.t) list;
      parse_seconds : float;
    }
  | Serve of { server : Server.t; requests : Gen.request list }

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The process's peak resident set so far (VmHWM), in MB. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.0))
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let prepare ?entries kind ~seed ~jobs =
  match kind with
  | Corpus_search | Corpus_validate ->
    let entries =
      match entries with
      | Some es -> Gen.shuffle (Gen.rng seed) es
      | None -> Gen.corpus ~seed
    in
    let grammars, parse_seconds =
      timed (fun () -> List.map (fun e -> (e.Corpus.name, Corpus.grammar e)) entries)
    in
    Corpus
      { validate = kind = Corpus_validate;
        scheduler = Scheduler.create ~options:corpus_options ~jobs ();
        grammars;
        parse_seconds }
  | Serve_edit ->
    Serve
      { server = Server.create ~options:serve_options ~jobs ();
        requests = Gen.serve_stream ?entries ~seed () }

type pass = {
  wall : float;
  miss_ms : float list;
  hit_ms : float list;
  attempted : int;
  failures : string list;
  conflicts : int;
  decided : int;
  peak_rss_mb : float;
  layers : (string * float) list;
}

(* Per-layer sums of one pass. *)
module Tally = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
  let add t k v = Hashtbl.replace t k (get t k +. v)
  let max t k v = Hashtbl.replace t k (Float.max (get t k) v)

  let to_list t =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
end

(* The program's trace stages under the benchmark's layer names. *)
let layer_of_stage = function
  | "product.search" -> Some "product_search"
  | "product.nonunifying" -> Some "nonunifying"
  | ("path_search" | "table_build" | "classify" | "delta" | "validate") as s ->
    Some s
  | _ -> None

let add_stage tally stage ~seconds ~spans counters =
  match layer_of_stage stage with
  | None -> ()
  | Some layer ->
    Tally.add tally (layer ^ ".seconds") seconds;
    Tally.add tally (layer ^ ".spans") (float_of_int spans);
    List.iter (fun (name, n) -> Tally.add tally (layer ^ "." ^ name) n) counters

let add_trace_metrics tally (m : Cex_session.Trace.metrics) =
  List.iter
    (fun (stage, (metric : Cex_session.Trace.metric)) ->
      add_stage tally stage ~seconds:metric.Cex_session.Trace.seconds
        ~spans:metric.Cex_session.Trace.spans
        (List.map (fun (k, n) -> (k, float_of_int n)) metric.Cex_session.Trace.counters))
    m

let number = function
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> 0.0

let add_json_metrics tally json =
  List.iter
    (fun stage ->
      match Json.member stage json with
      | Some m ->
        let counters =
          match Json.member "counters" m with
          | Some c -> List.map (fun k -> (k, number (Json.member k c))) (Json.keys c)
          | None -> []
        in
        add_stage tally stage
          ~seconds:(number (Json.member "seconds" m))
          ~spans:(int_of_float (number (Json.member "spans" m)))
          counters
      | None -> ())
    (Json.keys json)

let add_cache_counters tally (sched : Scheduler.t) =
  let s = Scheduler.session_cache_counters sched in
  let r = Scheduler.report_cache_counters sched in
  Tally.add tally "cache.session_hits" (float_of_int s.Cex_service.Cache.hits);
  Tally.add tally "cache.session_misses" (float_of_int s.Cex_service.Cache.misses);
  Tally.add tally "cache.report_hits" (float_of_int r.Cex_service.Cache.hits);
  Tally.add tally "cache.report_misses" (float_of_int r.Cex_service.Cache.misses)

let gc_bracket ~traced tally f =
  if not traced then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let x = f () in
    let g1 = Gc.quick_stat () in
    Tally.add tally "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    Tally.add tally "gc.major_collections"
      (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    x
  end

let time_into ~traced tally key f =
  if not traced then f ()
  else begin
    let x, seconds = timed f in
    Tally.add tally key seconds;
    x
  end

let decided_outcome = function
  | Cex.Driver.Found_unifying | Cex.Driver.No_unifying_exists -> true
  | Cex.Driver.Search_timeout | Cex.Driver.Skipped_search | Cex.Driver.Search_crashed ->
    false

(* ------------------------------------------------------------------ *)
(* corpus_search / corpus_validate: [lrcex batch --corpus --json] and
   [lrcex validate --corpus --json] in one window, then [hit_rounds] repeat
   rounds. *)

let corpus_pass ~traced ~validate ~scheduler ~grammars ~parse_seconds =
  let tally = Tally.create () in
  if traced then Tally.add tally "parse.seconds" parse_seconds;
  let jobs = float_of_int (Scheduler.jobs scheduler) in
  (* One window for the whole corpus, so the seeded order changes only the
     dequeue order, never which grammars share a pool run. *)
  let window = List.length grammars in
  let t0 = now () in
  let cached, results, summary, t_batch =
    gc_bracket ~traced tally (fun () ->
        let cached, summary = Scheduler.analyze_batch ~window scheduler grammars in
        let t_batch = now () in
        let results =
          if not validate then cached
          else
            List.map
              (fun (r : Scheduler.batch_result) ->
                time_into ~traced tally "oracle.seconds" (fun () ->
                    let oracle = Cex_validate.Oracle.create r.Scheduler.report.Cex.Driver.table in
                    { r with
                      Scheduler.report =
                        Cex_validate.Oracle.validate_report oracle r.Scheduler.report }))
              cached
        in
        let out =
          time_into ~traced tally "emit.seconds" (fun () ->
              Json.to_string (Json_report.batch_to_json ~stats:summary results))
        in
        if traced then Tally.add tally "emit.bytes" (float_of_int (String.length out));
        (cached, results, summary, t_batch))
  in
  let wall = now () -. t0 in
  let failures = ref [] and conflicts = ref 0 and decided = ref 0 in
  let miss_ms = ref [] in
  List.iter
    (fun (r : Scheduler.batch_result) ->
      let report = r.Scheduler.report in
      add_trace_metrics tally report.Cex.Driver.metrics;
      List.iter
        (fun (cr : Cex.Driver.conflict_report) ->
          incr conflicts;
          miss_ms := (cr.Cex.Driver.elapsed *. 1000.0) :: !miss_ms;
          if decided_outcome cr.Cex.Driver.outcome then incr decided;
          if cr.Cex.Driver.outcome = Cex.Driver.Found_unifying then
            Tally.add tally "product_search.unifying" 1.0;
          Tally.add tally "pool.busy" cr.Cex.Driver.elapsed;
          Tally.max tally "pool.tail" cr.Cex.Driver.elapsed;
          match Check.conflict_report cr with
          | [] -> ()
          | msgs -> failures := (r.Scheduler.name ^ ": " ^ String.concat "; " msgs) :: !failures)
        report.Cex.Driver.conflict_reports)
    results;
  Tally.add tally "pool.span" ((t_batch -. t0) *. jobs);
  Tally.add tally "scheduler.conflict_tasks" (float_of_int summary.Cex_service.Stats.conflict_tasks);
  Tally.max tally "scheduler.max_queue_depth"
    (float_of_int summary.Cex_service.Stats.max_queue_depth);
  Tally.add tally "served.cold" (float_of_int (List.length results));
  (* Repeat rounds: every grammar again, one request at a time, through the
     same scheduler. Each must come back from the report cache as the very
     report the batch cached, so its JSON is byte-identical. A grammar's hit
     sample is its fastest repeat: single repeats take 0.05-0.5 ms, and on a
     shared machine their speed drifts in spells of seconds (a grammar's
     median over the rounds differed by up to 1.6x between runs of the same
     code, its fastest repeat by about 10%). A GC slice landing in one
     repeat is skipped the same way. *)
  (* Read before the rounds, whose garbage grows the heap further. *)
  let peak_rss_mb = peak_rss_mb () in
  let rounds = List.map (fun _ -> ref []) grammars in
  (* Start the rounds from a finished major collection, so they time the
     read path and not the collection work the batch and oracle left behind
     (with it pending, single-pass hit figures split into two modes). *)
  Gc.full_major ();
  for _ = 1 to hit_rounds do
    List.iter2
      (fun ((name, g), (c : Scheduler.batch_result)) samples ->
        let t0 = now () in
        let r, _ = Scheduler.analyze scheduler ~name g in
        ignore
          (Json.to_string ~minify:true
             (Json_report.report_to_json ~name ~digest:r.Scheduler.digest
                ~from_cache:r.Scheduler.from_cache r.Scheduler.report));
        samples := ((now () -. t0) *. 1000.0) :: !samples;
        Tally.add tally "served.report_cache" 1.0;
        if not (r.Scheduler.from_cache && r.Scheduler.report == c.Scheduler.report) then
          failures := (name ^ ": repeat not served from the report cache") :: !failures)
      (List.combine grammars cached) rounds
  done;
  let hit_ms = List.map (fun samples -> List.fold_left Float.min infinity !samples) rounds in
  add_cache_counters tally scheduler;
  { wall;
    miss_ms = !miss_ms;
    hit_ms;
    attempted = !conflicts + (hit_rounds * List.length grammars);
    failures = List.rev !failures;
    conflicts = !conflicts;
    decided = !decided;
    peak_rss_mb;
    layers = Tally.to_list tally }

(* ------------------------------------------------------------------ *)
(* serve_edit: one closed-loop client, zero think time. *)

let string_at path json =
  match Check.member path json with Some (Json.String s) -> s | _ -> ""

let serve_pass ~traced ~server ~requests =
  let tally = Tally.create () in
  let wall = ref 0.0 and busy_wall = ref 0.0 in
  let miss_ms = ref [] and hit_ms = ref [] in
  let failures = ref [] and conflicts = ref 0 and decided = ref 0 in
  let firsts = Hashtbl.create 64 in
  gc_bracket ~traced tally (fun () ->
      List.iter
        (fun (r : Gen.request) ->
          if traced then
            time_into ~traced tally "parse.seconds" (fun () ->
                ignore (Cfg.Spec_parser.grammar_of_string r.Gen.spec));
          let t0 = now () in
          let resp = Server.handle_line server r.Gen.line in
          let line = time_into ~traced tally "emit.seconds" (fun () -> Cex_serve.Protocol.to_line resp) in
          let seconds = now () -. t0 in
          wall := !wall +. seconds;
          if traced then Tally.add tally "emit.bytes" (float_of_int (String.length line));
          let served = string_at [ "served" ] resp in
          Tally.add tally ("served." ^ served) 1.0;
          let errors =
            Check.response resp
            @
            match r.Gen.kind with
            | `Repeat id -> Check.repeat ~first:(Hashtbl.find firsts id) ~repeat:resp
            | `Cold | `Edit -> []
          in
          if errors <> [] then
            failures := (string_at [ "id" ] resp ^ ": " ^ String.concat "; " errors) :: !failures;
          match r.Gen.kind with
          | `Repeat _ -> hit_ms := (seconds *. 1000.0) :: !hit_ms
          | `Cold | `Edit ->
            Hashtbl.replace firsts r.Gen.id resp;
            miss_ms := (seconds *. 1000.0) :: !miss_ms;
            busy_wall := !busy_wall +. seconds;
            (match Check.member [ "result"; "metrics" ] resp with
            | Some m -> add_json_metrics tally m
            | None -> ());
            (match Check.member [ "result"; "conflicts" ] resp with
            | Some (Json.List cs) ->
              List.iter
                (fun c ->
                  incr conflicts;
                  let outcome = string_at [ "outcome" ] c in
                  if outcome = "found_unifying" || outcome = "no_unifying_exists" then
                    incr decided;
                  (* Reused counterexamples carry an oracle verdict; only
                     the ones without one were found by a search here. *)
                  if outcome = "found_unifying" && Check.member [ "validation" ] c = Some Json.Null then
                    Tally.add tally "product_search.unifying" 1.0;
                  let elapsed = number (Check.member [ "elapsed" ] c) in
                  Tally.add tally "pool.busy" elapsed;
                  Tally.max tally "pool.tail" elapsed)
                cs
            | _ -> ()))
        requests);
  let stats = Server.stats_json server in
  Tally.add tally "pool.span"
    (!busy_wall *. float_of_int (Scheduler.jobs (Server.scheduler server)));
  Tally.add tally "scheduler.conflict_tasks" (number (Check.member [ "conflict_tasks" ] stats));
  Tally.max tally "scheduler.max_queue_depth" (number (Check.member [ "max_queue_depth" ] stats));
  add_cache_counters tally (Server.scheduler server);
  { wall = !wall;
    miss_ms = !miss_ms;
    hit_ms = !hit_ms;
    attempted = List.length requests;
    failures = List.rev !failures;
    conflicts = !conflicts;
    decided = !decided;
    peak_rss_mb = peak_rss_mb ();
    layers = Tally.to_list tally }

let run ~traced = function
  | Corpus { validate; scheduler; grammars; parse_seconds } ->
    corpus_pass ~traced ~validate ~scheduler ~grammars ~parse_seconds
  | Serve { server; requests } -> serve_pass ~traced ~server ~requests
