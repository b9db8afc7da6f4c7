module Q = Rat
module Prng = Ccs_util.Prng
module Mono = Ccs_util.Mono
module Deadline = Ccs_resil.Deadline
module Faults = Ccs_resil.Faults
module Outcome = Ccs_resil.Outcome
module Driver = Ccs_anytime.Driver
module Schedule = Ccs.Schedule

type config = {
  seed : int;
  count : int;
  param : Ccs.Ptas.Common.param;
  max_n : int;
  deadline_ms : int option;
  faults : bool;
  cancel_ppm : int;
  raise_ppm : int;
  delay_ppm : int;
  node_limit : int;
  family : Ccs.Generator.family option;
  portfolio : bool;
}

let default_config =
  {
    seed = 1;
    count = 100;
    param = Ccs.Ptas.Common.param 2;
    max_n = 20;
    deadline_ms = None;
    faults = false;
    cancel_ppm = 1000;
    raise_ppm = 500;
    delay_ppm = 500;
    node_limit = 50_000;
    family = None;
    portfolio = false;
  }

type failure = { index : int; regime : string; reason : string }

type report = {
  runs : int;
  complete : int;
  degraded : int;
  phases : (string * int) list;
  max_overshoot_ms : float;
  failures : failure list;
}

(* One outcome checked down to the validator: the incumbent must be a
   schedule the regime validator accepts, its recorded makespan must be the
   validator's, the certified lower bound must not exceed it, and the
   ratio must be their exact quotient. Returns the reasons that fail. *)
let check_outcome validate outcome =
  let check_solved what (s : _ Driver.solved) =
    match validate s.Driver.schedule with
    | Error e -> [ Printf.sprintf "%s schedule invalid: %s" what e ]
    | Ok mk ->
        if Q.equal mk s.Driver.makespan then []
        else
          [ Printf.sprintf "%s makespan mismatch: recorded %s, validator %s" what
              (Q.to_string s.Driver.makespan) (Q.to_string mk) ]
  in
  match outcome with
  | Outcome.Complete s -> check_solved "complete" s
  | Outcome.Degraded d -> (
      match d.Outcome.incumbent with
      | None -> [ "degraded without incumbent (the fallback rung cannot fail)" ]
      | Some s ->
          check_solved ("degraded@" ^ d.Outcome.phase_reached) s
          @ (if Q.(d.Outcome.lower_bound <= s.Driver.makespan) then []
             else
               [ Printf.sprintf "lower bound %s above incumbent makespan %s"
                   (Q.to_string d.Outcome.lower_bound) (Q.to_string s.Driver.makespan) ])
          @
          (match d.Outcome.ratio_bound with
          | None when Q.sign d.Outcome.lower_bound > 0 -> [ "missing ratio_bound" ]
          | None -> []
          | Some r ->
              if Q.equal r Q.(s.Driver.makespan / d.Outcome.lower_bound) then []
              else [ "ratio_bound is not makespan / lower_bound" ]))

let regimes = [ "splittable"; "preemptive"; "nonpreemptive" ]

let run config =
  let runs = ref 0 and complete = ref 0 and degraded = ref 0 in
  let phases : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let max_over = ref 0.0 in
  let failures = ref [] in
  let fail index regime reason = failures := { index; regime; reason } :: !failures in
  for index = 0 to config.count - 1 do
    let inst =
      Runner.gen_instance ?family:config.family
        (Prng.stream ~seed:config.seed ~index)
        ~max_n:config.max_n
    in
    List.iteri
      (fun k regime ->
        incr runs;
        (* One fault stream per (instance, regime) so a failure replays
           from its printed coordinates alone. *)
        if config.faults then
          Faults.arm
            (Faults.Rate
               {
                 seed = (config.seed * 1_000_003) + (3 * index) + k;
                 cancel_ppm = config.cancel_ppm;
                 raise_ppm = config.raise_ppm;
                 delay_ppm = config.delay_ppm;
                 delay_s = 0.0002;
               });
        let deadline = Option.map Deadline.of_budget_ms config.deadline_ms in
        let limit = Option.bind deadline Deadline.limit_ns in
        let tally = function
          | Outcome.Complete _ -> incr complete
          | Outcome.Degraded d ->
              incr degraded;
              let c =
                match Hashtbl.find_opt phases d.Outcome.phase_reached with
                | Some c -> c
                | None ->
                    let c = ref 0 in
                    Hashtbl.add phases d.Outcome.phase_reached c;
                    c
              in
              incr c
        in
        (* Nothing may escape the ladder — a [Degraded] value is the only
           acceptable way for a deadline or fault to surface. *)
        let solve_checked validate solve =
          match solve () with
          | o ->
              tally (Outcome.map (fun _ -> ()) o);
              check_outcome validate o
          | exception e ->
              [ Printf.sprintf "exception escaped the ladder: %s" (Printexc.to_string e) ]
        in
        let param = config.param and node_limit = config.node_limit in
        let result =
          Fun.protect ~finally:Faults.disarm (fun () ->
              match regime with
              | "splittable" ->
                  solve_checked
                    (Schedule.validate_splittable inst)
                    (fun () -> Driver.solve_splittable ?deadline ~param ~node_limit inst)
              | "preemptive" ->
                  solve_checked
                    (Schedule.validate_preemptive inst)
                    (fun () -> Driver.solve_preemptive ?deadline ~param ~node_limit inst)
              | _ ->
                  solve_checked
                    (fun a -> Result.map Q.of_int (Schedule.validate_nonpreemptive inst a))
                    (fun () ->
                      Driver.solve_nonpreemptive ?deadline ~param ~node_limit
                        ~portfolio:config.portfolio inst))
        in
        (match limit with
        | Some l ->
            let over = float_of_int (max 0 (Mono.now_ns () - l)) /. 1e6 in
            if over > !max_over then max_over := over
        | None -> ());
        List.iter (fail index regime) result;
        if Ccs_obs.Recorder.open_depth () <> 0 then
          fail index regime
            (Printf.sprintf "recorder phases unbalanced: %d open"
               (Ccs_obs.Recorder.open_depth ())))
      regimes
  done;
  {
    runs = !runs;
    complete = !complete;
    degraded = !degraded;
    phases =
      Hashtbl.fold (fun k v acc -> (k, !v) :: acc) phases [] |> List.sort compare;
    max_overshoot_ms = !max_over;
    failures = List.rev !failures;
  }

let render_failure config f =
  Printf.sprintf "chaos failure: seed %d index %d regime %s: %s\n" config.seed f.index f.regime
    f.reason
