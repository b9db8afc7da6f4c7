(* Ccs_par tests: the sequential-equivalence contract of the combinators
   (qcheck, across pool sizes 1-8), ordered delivery, exception ordering,
   nesting, the per-index Prng streams, and thread-safety of the metrics
   registry under a parallel batch. *)

module Par = Ccs_par
module Prng = Ccs_util.Prng

let with_pool ?force jobs f =
  let pool = Par.Pool.create ?force ~jobs () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

(* ---------- combinators vs the sequential loop ---------- *)

let arb_input =
  QCheck.(pair (int_range 1 8) (array_of_size Gen.(int_range 0 40) small_int))

let prop_map_matches_sequential =
  QCheck.Test.make ~name:"parallel_map = Array.map (pool sizes 1-8)" ~count:60
    arb_input (fun (jobs, arr) ->
      let f x = (x * 37) land 1023 in
      with_pool jobs (fun pool -> Par.parallel_map ~pool f arr = Array.map f arr))

let prop_mapi_matches_sequential =
  QCheck.Test.make ~name:"parallel_mapi = Array.mapi (pool sizes 1-8)" ~count:60
    arb_input (fun (jobs, arr) ->
      let f i x = (i * 31) + x in
      with_pool jobs (fun pool -> Par.parallel_mapi ~pool f arr = Array.mapi f arr))

(* Runs [parallel_emit] and returns the [(i, r)] pairs in the order [emit]
   saw them. [emit] calls never overlap, so a plain ref suffices. *)
let emitted ?(on_emit = ignore) pool f arr =
  let seen = ref [] in
  Par.parallel_emit ~pool
    ~emit:(fun i r ->
      on_emit i;
      seen := (i, r) :: !seen)
    f arr;
  List.rev !seen

let prop_emit_in_order =
  QCheck.Test.make ~name:"parallel_emit delivers Array.mapi in order (pool sizes 1-8)"
    ~count:60 arb_input (fun (jobs, arr) ->
      let f i x = (i * 31) + x in
      with_pool jobs (fun pool ->
          emitted pool f arr = Array.to_list (Array.mapi (fun i x -> (i, f i x)) arr)))

let test_emit_skewed () =
  (* Index 0 ends at once and indices 1..7 end in reverse order, the
     highest first: [emit 0] must run before the batch ends, and every
     later [emit] in index order once index 1 is done. *)
  let n = 8 in
  with_pool ~force:true 4 (fun pool ->
      let ended = Atomic.make 0 and inside = Atomic.make 0 and overlaps = Atomic.make 0 in
      let ended_at_emit0 = ref n in
      let on_emit i =
        if Atomic.fetch_and_add inside 1 <> 0 then Atomic.incr overlaps;
        if i = 0 then ended_at_emit0 := Atomic.get ended;
        Ccs_util.Mono.sleep_ns 200_000;
        Atomic.decr inside
      in
      let f i () =
        if i > 0 then Ccs_util.Mono.sleep_ns (Ccs_util.Mono.ns_of_ms (10 * (n - i)));
        Atomic.incr ended;
        i
      in
      let seen = emitted ~on_emit pool f (Array.make n ()) in
      Alcotest.(check (list int)) "index order" (List.init n Fun.id) (List.map snd seen);
      Alcotest.(check int) "no overlapping emit" 0 (Atomic.get overlaps);
      Alcotest.(check bool) "emit 0 before the last task ends" true (!ended_at_emit0 < n));
  (* Tasks that end in index order faster than [emit] runs: a domain that
     ends one during another domain's [emit] must leave the delivery to it. *)
  with_pool ~force:true 4 (fun pool ->
      let inside = Atomic.make 0 and overlaps = Atomic.make 0 in
      let on_emit _ =
        if Atomic.fetch_and_add inside 1 <> 0 then Atomic.incr overlaps;
        Ccs_util.Mono.sleep_ns 1_000_000;
        Atomic.decr inside
      in
      let f i () =
        Ccs_util.Mono.sleep_ns 250_000;
        i
      in
      let seen = emitted ~on_emit pool f (Array.make 32 ()) in
      Alcotest.(check (list int)) "index order, slow emit" (List.init 32 Fun.id)
        (List.map snd seen);
      Alcotest.(check int) "no overlapping emit, slow emit" 0 (Atomic.get overlaps))

let test_emit_exception_prefix () =
  (* Indices 3 and 5 raise, and 5 ends first. Exactly 0..2 are delivered,
     then 3's exception escapes; likewise when [emit 4] is the first to
     raise, 0..4 have been offered and 4's exception escapes. *)
  let arr = Array.init 12 Fun.id in
  let f i x =
    if i = 3 then Ccs_util.Mono.sleep_ns (Ccs_util.Mono.ns_of_ms 5);
    if i = 3 || i = 5 then failwith (string_of_int i) else x
  in
  let run pool f emit =
    let seen = ref [] in
    match
      Par.parallel_emit ~pool
        ~emit:(fun i r ->
          seen := i :: !seen;
          emit i r)
        f arr
    with
    | () -> Alcotest.fail "expected an exception"
    | exception Failure msg -> (List.rev !seen, msg)
  in
  List.iter
    (fun jobs ->
      with_pool ~force:true jobs (fun pool ->
          let name = Printf.sprintf "jobs=%d" jobs in
          Alcotest.(check (pair (list int) string))
            ("task raises, " ^ name) ([ 0; 1; 2 ], "3")
            (run pool f (fun _ _ -> ()));
          Alcotest.(check (pair (list int) string))
            ("emit raises, " ^ name) ([ 0; 1; 2; 3; 4 ], "e4")
            (run pool (fun _ x -> x) (fun i _ -> if i >= 4 then failwith ("e" ^ string_of_int i)))))
    [ 1; 2; 4; 8 ]

let test_map_exception_order () =
  (* Several elements raise; the escaping exception must be the one the
     sequential loop hits first (index 3), at every pool size. *)
  let arr = Array.init 32 (fun i -> i) in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          match
            Par.parallel_map ~pool
              (fun i -> if i >= 3 && i mod 5 = 3 then failwith (string_of_int i) else i)
              arr
          with
          | _ -> Alcotest.fail "expected an exception"
          | exception Failure msg ->
              Alcotest.(check string)
                (Printf.sprintf "lowest-index exception at jobs=%d" jobs)
                "3" msg))
    [ 1; 2; 4; 8 ]

let test_nested_batches () =
  (* A task that itself fans out must not deadlock even when the outer batch
     occupies every worker. *)
  with_pool 4 (fun pool ->
      let r =
        Par.parallel_map ~pool
          (fun i ->
            Array.fold_left ( + ) 0
              (Par.parallel_map ~pool (fun j -> (i * 10) + j) (Array.init 8 (fun j -> j))))
          (Array.init 8 (fun i -> i))
      in
      let expected =
        Array.init 8 (fun i ->
            Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 10) + j)))
      in
      Alcotest.(check (array int)) "nested fan-out" expected r)

(* ---------- per-index Prng streams ---------- *)

let test_prng_stream_deterministic () =
  let draw t = List.init 5 (fun _ -> Prng.int_in t 0 1_000_000) in
  let a = draw (Prng.stream ~seed:42 ~index:3) in
  let b = draw (Prng.stream ~seed:42 ~index:3) in
  Alcotest.(check (list int)) "same (seed, index) -> same stream" a b;
  let c = draw (Prng.stream ~seed:42 ~index:4) in
  Alcotest.(check bool) "different index -> different stream" false (a = c);
  let base = draw (Prng.create 42) in
  let zero = draw (Prng.stream ~seed:42 ~index:0) in
  Alcotest.(check (list int)) "index 0 = create seed" base zero

let test_prng_streams_jobs_invariant () =
  (* Drawing from per-index streams inside a parallel batch gives the same
     numbers at any pool size — the whole point of [stream]. *)
  let draw_all pool =
    Par.parallel_mapi ~pool
      (fun i () -> Prng.int_in (Prng.stream ~seed:7 ~index:i) 0 1_000_000)
      (Array.make 16 ())
  in
  let seq = with_pool 1 draw_all in
  List.iter
    (fun jobs ->
      let par = with_pool jobs draw_all in
      Alcotest.(check (array int))
        (Printf.sprintf "streams at jobs=%d" jobs)
        seq par)
    [ 2; 4; 8 ]

(* ---------- metrics under contention ---------- *)

let test_metrics_parallel_incr () =
  let c = Ccs_obs.Metrics.counter "test_par.contended" in
  let h = Ccs_obs.Metrics.histogram "test_par.contended_h" in
  with_pool 8 (fun pool ->
      ignore
        (Par.parallel_map ~pool
           (fun _ ->
             for _ = 1 to 1_000 do
               Ccs_obs.Metrics.incr c;
               Ccs_obs.Metrics.observe h 1.0
             done)
           (Array.make 16 ())));
  Alcotest.(check int) "no lost counter increments" 16_000 (Ccs_obs.Metrics.counter_value c);
  Alcotest.(check int) "no lost observations" 16_000 (Ccs_obs.Metrics.histogram_count h)

let () =
  QCheck_base_runner.set_seed 20260806;
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "par"
    [ ( "combinators",
        [ q prop_map_matches_sequential;
          q prop_mapi_matches_sequential;
          Alcotest.test_case "exception order" `Quick test_map_exception_order;
          Alcotest.test_case "nested batches" `Quick test_nested_batches;
          q prop_emit_in_order;
          Alcotest.test_case "emit order under skew" `Quick test_emit_skewed;
          Alcotest.test_case "emit prefix before an exception" `Quick
            test_emit_exception_prefix ] );
      ( "prng",
        [ Alcotest.test_case "stream determinism" `Quick test_prng_stream_deterministic;
          Alcotest.test_case "streams jobs-invariant" `Quick test_prng_streams_jobs_invariant ] );
      ( "obs",
        [ Alcotest.test_case "metrics under contention" `Quick test_metrics_parallel_incr ] ) ]
