(* The searches' priority queue, Cex.Bucket_queue: least priority first,
   insertion order within a priority. The equivalence golden pins that
   order for real searches; these tests pin it for arbitrary adds and
   pops. *)

let of_list pairs =
  let q = Cex.Bucket_queue.create () in
  List.iter (fun (p, v) -> Cex.Bucket_queue.add q p v) pairs;
  q

let drain q =
  let rec go acc =
    match Cex.Bucket_queue.pop q with
    | None -> List.rev acc
    | Some pv -> go (pv :: acc)
  in
  go []

let test_ordering () =
  let q = of_list [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ] in
  Alcotest.(check (list string))
    "sorted by priority"
    [ "a"; "b"; "c"; "d"; "e" ]
    (List.map snd (drain q))

let test_fifo_ties () =
  let q = of_list [ (7, "first"); (7, "second"); (7, "third") ] in
  Alcotest.(check (list string))
    "equal priorities pop in insertion order"
    [ "first"; "second"; "third" ]
    (List.map snd (drain q))

let test_size () =
  let q = of_list [ (2, 'a'); (1, 'b') ] in
  Alcotest.(check int) "size" 2 (Cex.Bucket_queue.size q);
  Alcotest.(check bool) "not empty" false (Cex.Bucket_queue.is_empty q);
  Cex.Bucket_queue.clear q;
  Alcotest.(check bool) "empty after clear" true (Cex.Bucket_queue.is_empty q)

let prop_drain_sorted =
  QCheck.Test.make ~name:"pqueue drains in nondecreasing priority order"
    ~count:300
    QCheck.(small_list small_int)
    (fun priorities ->
      let drained =
        List.map fst (drain (of_list (List.map (fun p -> (p, p)) priorities)))
      in
      drained = List.sort Int.compare priorities)

(* An operation [Some p] adds (p, serial number); [None] pops and demands
   the pair a model gives: the pending pairs stably sorted by priority. *)
let prop_pop_order =
  QCheck.Test.make
    ~name:"bucket queue pops in the same order as a stable-sort model"
    ~count:300
    QCheck.(small_list (option (int_bound 40)))
    (fun ops ->
      let bq = Cex.Bucket_queue.create () in
      let model = ref [] in
      let serial = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some p ->
            incr serial;
            Cex.Bucket_queue.add bq p !serial;
            model := !model @ [ (p, !serial) ];
            true
          | None -> (
            let sorted =
              List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !model
            in
            match (Cex.Bucket_queue.pop bq, sorted) with
            | None, [] -> true
            | Some got, want :: rest ->
              model := rest;
              got = want
            | _ -> false))
        ops
      && Cex.Bucket_queue.size bq = List.length !model)

let suite =
  ( "pqueue",
    [ Alcotest.test_case "ordering" `Quick test_ordering;
      Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
      Alcotest.test_case "size" `Quick test_size;
      QCheck_alcotest.to_alcotest prop_drain_sorted;
      QCheck_alcotest.to_alcotest prop_pop_order ] )
