(* Ccs_par tests: the sequential-equivalence contract of the combinators
   (qcheck, across pool sizes 1-8), exception ordering, nesting, the
   per-index Prng streams, and thread-safety of the metrics registry under
   a parallel batch. *)

module Par = Ccs_par
module Prng = Ccs_util.Prng

let with_pool jobs f =
  let pool = Par.Pool.create ~jobs () in
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
          Alcotest.test_case "nested batches" `Quick test_nested_batches ] );
      ( "prng",
        [ Alcotest.test_case "stream determinism" `Quick test_prng_stream_deterministic;
          Alcotest.test_case "streams jobs-invariant" `Quick test_prng_streams_jobs_invariant ] );
      ( "obs",
        [ Alcotest.test_case "metrics under contention" `Quick test_metrics_parallel_incr ] ) ]
