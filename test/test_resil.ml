(* Resilience tests: the cancellation contract end to end.

   - Mono clock sanity and Deadline token semantics (expiry, children,
     ambient install/restore).
   - Every solver family raises Cancelled promptly under an expired token.
   - The At-ordinal fault sweep: interrupt the degradation ladder at every
     k-th cancellation checkpoint (Cancel and Raise actions) and demand a
     valid outcome each time — validator-clean incumbent, sound lower
     bound vs the exact optimum, balanced recorder phases (the sweep runs
     under the recorder, so the phase depth is really tracked), and a
     [fault] event naming the ordinal that fired.
   - Determinism after chaos: a clean run after an interrupted one still
     produces the baseline answer (no corrupted global state).
   - A Delay fault sleeps at its checkpoint and returns to it.
   - The checkpoint counter is exact and deterministic for a fixed
     workload (the bench regression gate depends on this).
   - A deadline set on the submitting domain reaches pool workers. *)

module Q = Rat
module Deadline = Ccs_resil.Deadline
module Faults = Ccs_resil.Faults
module Outcome = Ccs_resil.Outcome
module Driver = Ccs_anytime.Driver
module Mono = Ccs_util.Mono
module Par = Ccs_par

let param = Ccs.Ptas.Common.param 2

let inst =
  Ccs.Instance.make ~machines:3 ~slots:2
    [ (7, 0); (5, 1); (6, 2); (4, 3); (9, 0); (3, 1); (8, 2); (2, 3) ]

(* ---------- clock and tokens ---------- *)

let test_mono () =
  let a = Mono.now_ns () in
  let b = Mono.now_ns () in
  Alcotest.(check bool) "monotone" true (b >= a);
  Alcotest.(check bool) "positive" true (a > 0);
  Alcotest.(check bool) "now_s consistent" true (abs_float (Mono.now_s () -. (float_of_int (Mono.now_ns ()) /. 1e9)) < 1.0)

let test_tokens () =
  Alcotest.(check bool) "never not cancelled" false (Deadline.cancelled Deadline.never);
  Alcotest.(check bool) "never has no limit" true (Deadline.limit_ns Deadline.never = None);
  let expired = Deadline.of_budget_ms 0 in
  Alcotest.(check bool) "0ms budget expires" true (Deadline.expired expired);
  let tok = Deadline.of_budget_ms 60_000 in
  Alcotest.(check bool) "fresh not cancelled" false (Deadline.cancelled tok);
  let kid = Deadline.child tok in
  Alcotest.(check (option int)) "child keeps the parent's limit" (Deadline.limit_ns tok)
    (Deadline.limit_ns kid);
  Alcotest.(check bool) "fresh child not cancelled" false (Deadline.cancelled kid)

let test_ambient_restore () =
  let tok = Deadline.of_budget_ms 60_000 in
  let outer = Deadline.ambient () in
  (try
     Deadline.with_token tok (fun () ->
         Alcotest.(check bool) "installed" true (Deadline.ambient () == tok);
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (Deadline.ambient () == outer)

(* ---------- expired token stops every solver family ---------- *)

let cancelled f =
  match f () with
  | _ -> false
  | exception Deadline.Cancelled _ -> true

let test_expired_stops_solvers () =
  let under f () = Deadline.with_token (Deadline.of_budget_ms 0) f in
  Alcotest.(check bool) "bnb" true
    (cancelled (under (fun () -> Ccs_exact.Bnb.solve inst)));
  Alcotest.(check bool) "splittable exact (lp/ilp)" true
    (cancelled (under (fun () -> Ccs_exact.Splittable_opt.solve inst)));
  Alcotest.(check bool) "preemptive exact" true
    (cancelled (under (fun () -> Ccs_exact.Preemptive_opt.opt inst)));
  Alcotest.(check bool) "splittable ptas" true
    (cancelled (under (fun () -> Ccs.Ptas.Splittable_ptas.solve param inst)));
  Alcotest.(check bool) "preemptive ptas" true
    (cancelled (under (fun () -> Ccs.Ptas.Preemptive_ptas.solve param inst)));
  Alcotest.(check bool) "nonpreemptive ptas" true
    (cancelled (under (fun () -> Ccs.Ptas.Nonpreemptive_ptas.solve param inst)));
  Alcotest.(check bool) "splittable approx" true
    (cancelled (under (fun () -> Ccs.Approx.Splittable.solve inst)));
  Alcotest.(check bool) "nonpreemptive approx" true
    (cancelled (under (fun () -> Ccs.Approx.Nonpreemptive.solve inst)))

(* The ladder's PTAS rung under an expired token: the search is cancelled
   before its first guess, so the ladder degrades, and the incumbent comes
   from a later rung. *)
let test_ptas_anytime_interrupted () =
  match
    Driver.solve_splittable ~deadline:(Deadline.of_budget_ms 0) ~start:Driver.Ptas ~param inst
  with
  | Outcome.Complete _ -> Alcotest.fail "complete under an expired token"
  | Outcome.Degraded d -> (
      match d.Outcome.incumbent with
      | None -> Alcotest.fail "degraded without incumbent"
      | Some s -> Alcotest.(check bool) "not from the ptas rung" true (s.Driver.rung <> Driver.Ptas))

(* ---------- the At-ordinal sweep ---------- *)

(* Exact optima as ground truth for lower-bound soundness. *)
let opt_nonpre =
  lazy (match Ccs_exact.Bnb.solve inst with Some (o, _) -> Q.of_int o | None -> assert false)

let opt_split =
  lazy (match Ccs_exact.Splittable_opt.solve inst with Some o -> o | None -> assert false)

let opt_pre =
  lazy (match Ccs_exact.Preemptive_opt.opt inst with Some o -> o | None -> assert false)

(* Validate one driver outcome: incumbent passes the regime validator with
   the recorded makespan, the lower bound is sound (<= the regime's true
   optimum), and a degraded outcome always carries an incumbent. *)
let check_outcome what validate opt = function
  | Outcome.Complete (s : _ Driver.solved) -> (
      match validate s.Driver.schedule with
      | Ok mk -> Alcotest.(check string) (what ^ ": complete makespan") (Q.to_string mk) (Q.to_string s.Driver.makespan)
      | Error e -> Alcotest.fail (what ^ ": complete schedule invalid: " ^ e))
  | Outcome.Degraded d -> (
      match d.Outcome.incumbent with
      | None -> Alcotest.fail (what ^ ": degraded without incumbent")
      | Some s -> (
          (match validate s.Driver.schedule with
          | Ok mk ->
              Alcotest.(check string) (what ^ ": incumbent makespan") (Q.to_string mk)
                (Q.to_string s.Driver.makespan);
              Alcotest.(check bool) (what ^ ": lb <= incumbent") true Q.(d.Outcome.lower_bound <= mk);
              Alcotest.(check bool) (what ^ ": optimum not above incumbent") true Q.(opt <= mk)
          | Error e -> Alcotest.fail (what ^ ": incumbent invalid: " ^ e));
          Alcotest.(check bool) (what ^ ": lb sound vs exact optimum") true
            Q.(d.Outcome.lower_bound <= opt)))

let solve_checked what regime =
  match regime with
  | `Split ->
      check_outcome what (Ccs.Schedule.validate_splittable inst) (Lazy.force opt_split)
        (Driver.solve_splittable ~param inst)
  | `Pre ->
      check_outcome what (Ccs.Schedule.validate_preemptive inst) (Lazy.force opt_pre)
        (Driver.solve_preemptive ~param inst)
  | `Nonpre ->
      check_outcome what
        (fun a -> Result.map Q.of_int (Ccs.Schedule.validate_nonpreemptive inst a))
        (Lazy.force opt_nonpre)
        (Driver.solve_nonpreemptive ~param inst)

(* Count the ladder's injection points with a plan that never fires, then
   interrupt at a spread of ordinals covering the whole run — including
   ordinal 0 (before anything happened) and the very last checkpoint. *)
let sweep_points total =
  let pts = ref [] in
  let add k = if k >= 0 && k < total && not (List.mem k !pts) then pts := k :: !pts in
  add 0;
  add (total - 1);
  for i = 1 to 38 do
    add (i * total / 39)
  done;
  List.sort compare !pts

let ordinal_sweep action regime () =
  (* the ground truth is computed before the count, so every swept
     ordinal falls inside the ladder's own run *)
  ignore (Lazy.force (match regime with `Split -> opt_split | `Pre -> opt_pre | `Nonpre -> opt_nonpre));
  Ccs_obs.Recorder.start ();
  Fun.protect ~finally:Ccs_obs.Recorder.stop @@ fun () ->
  Faults.arm (Faults.At { ordinal = max_int; action = Faults.Cancel });
  Fun.protect ~finally:Faults.disarm (fun () -> solve_checked "baseline" regime);
  let total = Faults.ordinal () in
  Alcotest.(check bool) "ladder has checkpoints" true (total > 0);
  List.iter
    (fun k ->
      Faults.arm (Faults.At { ordinal = k; action });
      Fun.protect ~finally:Faults.disarm (fun () ->
          solve_checked (Printf.sprintf "fault@%d" k) regime);
      Alcotest.(check int) (Printf.sprintf "phases balanced after fault@%d" k) 0
        (Ccs_obs.Recorder.open_depth ());
      Alcotest.(check bool) (Printf.sprintf "fault@%d recorded" k) true
        (List.exists
           (fun e ->
             e.Ccs_obs.Recorder.kind = "fault"
             && List.assoc_opt "ordinal" e.fields = Some (Ccs_obs.Jsonx.Int k))
           (Ccs_obs.Recorder.events ())))
    (sweep_points total)

(* A Delay fault sleeps at its checkpoint and then returns to the site:
   no exception, one injected fault counted and recorded. *)
let test_delay_at_checkpoint () =
  let site = Deadline.site "test.delay" in
  let injected = Ccs_obs.Metrics.counter "resil.faults_injected" in
  let before = Ccs_obs.Metrics.counter_value injected in
  Ccs_obs.Recorder.start ();
  Fun.protect ~finally:Ccs_obs.Recorder.stop @@ fun () ->
  Faults.arm (Faults.At { ordinal = 1; action = Faults.Delay 0.01 });
  let t0 = Mono.now_ns () in
  Fun.protect ~finally:Faults.disarm (fun () ->
      for _ = 0 to 2 do
        Deadline.check site
      done);
  let slept_ns = Mono.now_ns () - t0 in
  Alcotest.(check bool) "slept at least 10 ms" true (slept_ns >= 10_000_000);
  Alcotest.(check int) "one fault injected" (before + 1)
    (Ccs_obs.Metrics.counter_value injected);
  Alcotest.(check bool) "delay recorded" true
    (List.exists
       (fun e ->
         e.Ccs_obs.Recorder.kind = "fault"
         && List.assoc_opt "what" e.fields = Some (Ccs_obs.Jsonx.Str "delay")
         && List.assoc_opt "ordinal" e.fields = Some (Ccs_obs.Jsonx.Int 1))
       (Ccs_obs.Recorder.events ()))

(* ---------- determinism after chaos ---------- *)

let makespan_of = function
  | Outcome.Complete s -> s.Driver.makespan
  | Outcome.Degraded _ -> Alcotest.fail "expected a complete outcome"

let test_clean_after_chaos () =
  let baseline = makespan_of (Driver.solve_nonpreemptive ~param inst) in
  Faults.arm (Faults.At { ordinal = 25; action = Faults.Raise });
  Fun.protect ~finally:Faults.disarm (fun () ->
      ignore (Driver.solve_nonpreemptive ~param inst));
  let again = makespan_of (Driver.solve_nonpreemptive ~param inst) in
  Alcotest.(check string) "same makespan after an interrupted run" (Q.to_string baseline)
    (Q.to_string again)

(* ---------- exact checkpoint counting ---------- *)

let test_check_counter_deterministic () =
  let measure () =
    let before = Deadline.checks_total () in
    ignore (Ccs.Approx.Nonpreemptive.solve inst);
    Deadline.checks_total () - before
  in
  let a = measure () and b = measure () in
  Alcotest.(check bool) "checkpoints executed" true (a > 0);
  Alcotest.(check int) "deterministic count" a b;
  (* flush pushes exactly the outstanding delta into the metrics counter *)
  Deadline.reset_stats ();
  ignore (measure ());
  let m = Ccs_obs.Metrics.counter "resil.cancel_checks" in
  let mv0 = Ccs_obs.Metrics.counter_value m in
  Deadline.flush_stats ();
  Alcotest.(check int) "flush delta" (Deadline.checks_total ())
    (Ccs_obs.Metrics.counter_value m - mv0)

(* A deadline on the submitting domain reaches pool tasks on workers. *)
let test_deadline_reaches_workers () =
  let pool = Par.Pool.create ~force:true ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let hits = Atomic.make 0 in
  match
    Deadline.with_token (Deadline.of_budget_ms 0) (fun () ->
        Par.parallel_map ~pool
          (fun i ->
            Atomic.incr hits;
            i)
          (Array.init 64 Fun.id))
  with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Deadline.Cancelled _ ->
      (* the task-boundary checkpoint fired before any task body ran *)
      Alcotest.(check int) "no task body ran" 0 (Atomic.get hits)

let () =
  Alcotest.run "resil"
    [ ( "clock+tokens",
        [ Alcotest.test_case "mono clock" `Quick test_mono;
          Alcotest.test_case "token semantics" `Quick test_tokens;
          Alcotest.test_case "ambient restore" `Quick test_ambient_restore ] );
      ( "cancellation",
        [ Alcotest.test_case "expired token stops every solver" `Quick test_expired_stops_solvers;
          Alcotest.test_case "anytime ptas partial result" `Quick test_ptas_anytime_interrupted ] );
      ( "fault sweep",
        [ Alcotest.test_case "cancel@every-k splittable" `Slow (ordinal_sweep Faults.Cancel `Split);
          Alcotest.test_case "cancel@every-k preemptive" `Slow (ordinal_sweep Faults.Cancel `Pre);
          Alcotest.test_case "cancel@every-k nonpreemptive" `Slow (ordinal_sweep Faults.Cancel `Nonpre);
          Alcotest.test_case "raise@every-k nonpreemptive" `Slow (ordinal_sweep Faults.Raise `Nonpre);
          Alcotest.test_case "clean run after chaos" `Quick test_clean_after_chaos;
          Alcotest.test_case "delay at a checkpoint" `Quick test_delay_at_checkpoint ] );
      ( "stats",
        [ Alcotest.test_case "checkpoint counter" `Quick test_check_counter_deterministic ] );
      ( "pool",
        [ Alcotest.test_case "deadline reaches workers" `Quick test_deadline_reaches_workers ] )
    ]
