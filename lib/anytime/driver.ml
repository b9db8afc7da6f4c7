(* The degradation ladder. Rung order is strongest-first; every rung runs
   under a fresh child of the caller's deadline token so that a rung
   tripped by the deadline (or by an injected fault) leaves the next rung
   with an un-tripped token carrying the exact remaining budget. The
   ladder's own state is a single incumbent / lower-bound pair; rungs only
   ever improve it, so an interruption at any point leaves a consistent
   value behind. *)

module Q = Rat
module Deadline = Ccs_resil.Deadline
module Outcome = Ccs_resil.Outcome
module Faults = Ccs_resil.Faults
module Metrics = Ccs_obs.Metrics
module Instance = Ccs.Instance
module Schedule = Ccs.Schedule
module Bounds = Ccs.Bounds
module Common = Ccs.Ptas.Common

type rung = Exact | Ptas | Approx | Fallback

let rung_name = function
  | Exact -> "exact"
  | Ptas -> "ptas"
  | Approx -> "approx"
  | Fallback -> "fallback"

type 'a solved = { schedule : 'a; makespan : Q.t; rung : rung }
type 'a outcome = 'a solved Outcome.t

let m_degraded = Metrics.counter "resil.degradations"
let h_overshoot = Metrics.histogram "resil.deadline_overshoot_ms"

let h_rung =
  Metrics.log_histogram
    ~help:"Wall time spent in one degradation-ladder rung" "anytime.rung_s"

(* ---------------- ladder state ---------------- *)

type 'a state = {
  mutable inc : 'a solved option;
  mutable lb : Q.t;
  mutable interrupted : bool;
  mutable phase : rung;
  ord : int;  (* this driver invocation's solve ordinal, for the recorder *)
}

let driver_solves = Atomic.make 0

let init lb =
  { inc = None; lb; interrupted = false; phase = Fallback;
    ord = Atomic.fetch_and_add driver_solves 1 }

(* Strongest rung wins ties: an equal-makespan incumbent from a later rung
   never displaces the earlier (stronger) one — which is also what keeps
   the recorder's driver gap trace non-increasing. *)
let accept st rung schedule makespan =
  match st.inc with
  | Some s when Q.(s.makespan <= makespan) -> ()
  | _ ->
      st.inc <- Some { schedule; makespan; rung };
      Ccs_obs.Recorder.incumbent ~src:"driver" ~solve:st.ord (Q.to_float makespan)

let raise_lb st v =
  if Q.(v > st.lb) then begin
    st.lb <- v;
    Ccs_obs.Recorder.lower_bound ~src:"driver" ~solve:st.ord (Q.to_float v)
  end

(* A rung body either finishes, is interrupted (deadline kill or injected
   fault — the ladder degrades), or reports the accuracy out of practical
   reach (PTAS configuration blow-up / ILP node budget — the ladder moves
   on without counting it as a degradation). *)
let guard st f =
  match f () with
  | v -> Some v
  | exception Deadline.Cancelled _ ->
      st.interrupted <- true;
      None
  | exception Faults.Injected _ ->
      st.interrupted <- true;
      None
  | exception Common.Too_many -> None
  | exception Common.Budget_exceeded -> None

(* Exact and PTAS rungs inherit the remaining budget exactly (fresh child,
   same expiry instant). The approximation rung gets a small grace window
   past the deadline — it is the cheapest rung with a certified guarantee,
   and the grace is what bounds the quality of a degraded answer; the
   greedy fallback carries no checkpoints at all, so [never] is honest. *)
let rung_token base ~grace_ms = function
  | Fallback -> Deadline.never
  | Approx -> (
      match Deadline.limit_ns base with
      | None -> if base == Deadline.never then base else Deadline.child base
      | Some l ->
          Deadline.of_limit_ns (max l (Ccs_util.Mono.now_ns () + Ccs_util.Mono.ns_of_ms grace_ms)))
  | Exact | Ptas -> if base == Deadline.never then base else Deadline.child base

let ladder = function
  | Exact -> [ Exact; Ptas; Approx; Fallback ]
  | Ptas -> [ Ptas; Approx; Fallback ]
  | Approx -> [ Approx; Fallback ]
  | Fallback -> [ Fallback ]

let climb st ~base ~grace_ms ~start step =
  (match Deadline.limit_ns base with
  | Some l when Ccs_obs.Recorder.active () -> Ccs_obs.Recorder.set_deadline_ns l
  | _ -> ());
  let rec go = function
    | [] -> ()
    | r :: rest ->
        st.phase <- r;
        let t0 = Ccs_util.Mono.now_ns () in
        let ok =
          Ccs_obs.Recorder.phase ("rung." ^ rung_name r) (fun () ->
              step r (rung_token base ~grace_ms r))
        in
        Metrics.observe_log h_rung (Ccs_util.Mono.elapsed_s ~since:t0);
        if not ok then go rest
  in
  go (ladder start)

let finish st ~base =
  (match Deadline.limit_ns base with
  | Some limit ->
      let over = Ccs_util.Mono.now_ns () - limit in
      Metrics.observe h_overshoot (float_of_int (max 0 over) /. 1e6)
  | None -> ());
  Deadline.flush_stats ();
  if st.interrupted then begin
    Metrics.incr m_degraded;
    Outcome.Degraded
      {
        incumbent = st.inc;
        lower_bound = st.lb;
        ratio_bound =
          (match st.inc with
          | Some s when Q.sign st.lb > 0 -> Some Q.(s.makespan / st.lb)
          | _ -> None);
        phase_reached = rung_name st.phase;
      }
  end
  else
    match st.inc with
    | Some s -> Outcome.Complete s
    | None -> assert false (* the fallback rung always produces *)

let check_schedulable who inst =
  if not (Instance.schedulable inst) then
    invalid_arg (Printf.sprintf "Ccs_anytime.Driver.%s: unschedulable instance (C > c*m)" who)

(* ---------------- greedy fallbacks ---------------- *)

(* Job [j] on machine [j] when machines abound; otherwise class [u] whole
   on machine [u mod m] — at most [ceil (C/m) <= c] classes per machine
   because the instance is schedulable (C <= c*m). O(n), no checkpoints. *)

let fallback_splittable inst =
  let n = Instance.n inst and m = Instance.m inst in
  if m >= n then
    {
      Schedule.blocks = [];
      explicit_machines =
        List.init n (fun j ->
            (j, [ (Instance.job_cls inst j, Q.of_int (Instance.job_p inst j)) ]));
    }
  else begin
    let loads = Instance.class_load inst in
    let per_machine = Array.make m [] in
    Array.iteri
      (fun u pu -> if pu > 0 then per_machine.(u mod m) <- (u, Q.of_int pu) :: per_machine.(u mod m))
      loads;
    let explicit = ref [] in
    for i = m - 1 downto 0 do
      if per_machine.(i) <> [] then explicit := (i, List.rev per_machine.(i)) :: !explicit
    done;
    { Schedule.blocks = []; explicit_machines = !explicit }
  end

let fallback_preemptive inst =
  let n = Instance.n inst and m = Instance.m inst in
  if m >= n then
    Array.init n (fun j ->
        [ { Schedule.pjob = j; start = Q.zero; len = Q.of_int (Instance.job_p inst j) } ])
  else begin
    let sched = Array.make m [] in
    let tops = Array.make m Q.zero in
    let offsets, ids = Instance.class_jobs_csr inst in
    for u = 0 to Instance.num_classes inst - 1 do
      let i = u mod m in
      for k = offsets.(u) to offsets.(u + 1) - 1 do
        let j = ids.(k) in
        let len = Q.of_int (Instance.job_p inst j) in
        sched.(i) <- { Schedule.pjob = j; start = tops.(i); len } :: sched.(i);
        tops.(i) <- Q.add tops.(i) len
      done
    done;
    Array.map List.rev sched
  end

let fallback_nonpreemptive inst =
  let n = Instance.n inst and m = Instance.m inst in
  if m >= n then Array.init n (fun j -> j)
  else Array.init n (fun j -> Instance.job_cls inst j mod m)

(* ---------------- the three ladders ---------------- *)

let solve_splittable ?deadline ?(start = Exact) ?(param = Common.param 3) ?(node_limit = 200_000)
    ?(grace_ms = 25) inst =
  check_schedulable "solve_splittable" inst;
  let st = init (Bounds.lb_splittable inst) in
  let base = match deadline with Some d -> d | None -> Deadline.ambient () in
  let step r tok =
    match r with
    | Exact -> (
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () ->
                  Ccs_exact.Splittable_opt.solve_schedule ~max_nodes:node_limit inst))
        with
        | Some (Some (opt, sched)) ->
            accept st Exact sched opt;
            raise_lb st opt;
            true
        | Some None | None -> false)
    | Ptas -> (
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () -> Ccs.Ptas.Splittable_ptas.solve_anytime param inst))
        with
        | Some a ->
            Option.iter (raise_lb st) a.Common.refuted;
            (match a.Common.result with
            | Some (sched, _) -> accept st Ptas sched (Schedule.splittable_makespan sched)
            | None -> ());
            if not a.Common.complete then st.interrupted <- true;
            a.Common.complete
        | None -> false)
    | Approx -> (
        match
          guard st (fun () -> Deadline.with_token tok (fun () -> Ccs.Approx.Splittable.solve inst))
        with
        | Some (sched, stats) ->
            raise_lb st stats.Ccs.Approx.Splittable.t_guess;
            accept st Approx sched (Schedule.splittable_makespan sched);
            true
        | None -> false)
    | Fallback ->
        let sched = fallback_splittable inst in
        accept st Fallback sched (Schedule.splittable_makespan sched);
        true
  in
  climb st ~base ~grace_ms ~start step;
  finish st ~base

let solve_preemptive ?deadline ?(start = Exact) ?(param = Common.param 3) ?(node_limit = 200_000)
    ?(grace_ms = 25) inst =
  check_schedulable "solve_preemptive" inst;
  let st = init (Bounds.lb_preemptive inst) in
  let base = match deadline with Some d -> d | None -> Deadline.ambient () in
  let step r tok =
    match r with
    | Exact -> (
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () ->
                  Ccs_exact.Preemptive_opt.solve ~max_nodes:node_limit inst))
        with
        | Some (Some (opt, sched)) ->
            accept st Exact sched opt;
            raise_lb st opt;
            true
        | Some None | None -> false)
    | Ptas -> (
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () -> Ccs.Ptas.Preemptive_ptas.solve_anytime param inst))
        with
        | Some a ->
            Option.iter (raise_lb st) a.Common.refuted;
            (match a.Common.result with
            | Some (sched, _) -> accept st Ptas sched (Schedule.preemptive_makespan sched)
            | None -> ());
            if not a.Common.complete then st.interrupted <- true;
            a.Common.complete
        | None -> false)
    | Approx -> (
        match
          guard st (fun () -> Deadline.with_token tok (fun () -> Ccs.Approx.Preemptive.solve inst))
        with
        | Some (sched, stats) ->
            raise_lb st stats.Ccs.Approx.Preemptive.t_guess;
            accept st Approx sched (Schedule.preemptive_makespan sched);
            true
        | None -> false)
    | Fallback ->
        let sched = fallback_preemptive inst in
        accept st Fallback sched (Schedule.preemptive_makespan sched);
        true
  in
  climb st ~base ~grace_ms ~start step;
  finish st ~base

let solve_nonpreemptive ?deadline ?(start = Exact) ?(param = Common.param 3)
    ?(node_limit = 200_000) ?(portfolio = false) ?(grace_ms = 25) inst =
  check_schedulable "solve_nonpreemptive" inst;
  (* The optimum is integral, so the fractional load bound rounds up. *)
  let st = init (Q.of_bigint (Q.ceil (Bounds.lb_preemptive inst))) in
  let base = match deadline with Some d -> d | None -> Deadline.ambient () in
  let mk asg = Q.of_int (Schedule.nonpreemptive_makespan inst asg) in
  let step r tok =
    match r with
    | Exact when portfolio -> (
        (* The race returns the lowest-index member's proof (deterministic
           at any pool size); an unproved outcome still carries the
           warm-start incumbent plus the root bound. *)
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () ->
                  Ccs_exact.Portfolio.solve ~node_limit inst))
        with
        | Some (Some o) ->
            accept st Exact o.Ccs_exact.Portfolio.assignment
              (Q.of_int o.Ccs_exact.Portfolio.makespan);
            raise_lb st (Q.of_int o.Ccs_exact.Portfolio.lower_bound);
            o.Ccs_exact.Portfolio.proved
        | Some None | None -> false)
    | Exact -> (
        (* [solve_result] never raises on cancellation: the search
           warm-starts from the 7/3 approximation, so even an interrupted
           exact rung contributes a real incumbent — and always a proven
           root lower bound. *)
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () ->
                  Ccs_exact.Bnb.solve_result ~node_limit inst))
        with
        | Some (Some r) -> (
            accept st Exact r.Ccs_exact.Bnb.assignment (Q.of_int r.Ccs_exact.Bnb.makespan);
            raise_lb st (Q.of_int r.Ccs_exact.Bnb.lower_bound);
            match r.Ccs_exact.Bnb.status with
            | Ccs_exact.Bnb.Complete -> true
            | Ccs_exact.Bnb.Node_limit -> false
            | Ccs_exact.Bnb.Interrupted _ ->
                st.interrupted <- true;
                false)
        | Some None | None -> false)
    | Ptas -> (
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () ->
                  Ccs.Ptas.Nonpreemptive_ptas.solve_anytime param inst))
        with
        | Some a ->
            Option.iter (raise_lb st) a.Common.refuted;
            (match a.Common.result with
            | Some (asg, _) -> accept st Ptas asg (mk asg)
            | None -> ());
            if not a.Common.complete then st.interrupted <- true;
            a.Common.complete
        | None -> false)
    | Approx -> (
        match
          guard st (fun () ->
              Deadline.with_token tok (fun () -> Ccs.Approx.Nonpreemptive.solve inst))
        with
        | Some (asg, stats) ->
            raise_lb st (Q.of_int stats.Ccs.Approx.Nonpreemptive.t_guess);
            accept st Approx asg (mk asg);
            true
        | None -> false)
    | Fallback ->
        let asg = fallback_nonpreemptive inst in
        accept st Fallback asg (mk asg);
        true
  in
  climb st ~base ~grace_ms ~start step;
  finish st ~base
