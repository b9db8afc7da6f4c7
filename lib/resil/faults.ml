type action = Cancel | Raise | Delay of float

exception Injected of string

type plan =
  | At of { ordinal : int; action : action }
  | Rate of {
      seed : int;
      cancel_ppm : int;
      raise_ppm : int;
      delay_ppm : int;
      delay_s : float;
    }

let m_injected = Ccs_obs.Metrics.counter "resil.faults_injected"

(* [state] is read on every checkpoint of every armed run, so the unarmed
   fast path must be one atomic load. The ordinal is global (not
   per-domain): an [At] plan means "the k-th checkpoint the process
   executes", whichever domain gets there. *)
let state : plan option Atomic.t = Atomic.make None
let ord = Atomic.make 0

let arm plan =
  Atomic.set ord 0;
  Atomic.set state (Some plan)

let disarm () = Atomic.set state None
let armed () = Atomic.get state <> None
let ordinal () = Atomic.get ord

let hit site k what =
  Ccs_obs.Metrics.incr m_injected;
  if Ccs_obs.Recorder.active () then
    Ccs_obs.Recorder.emit "fault"
      Ccs_obs.Jsonx.[ ("site", Str site); ("ordinal", Int k); ("what", Str what) ]

let apply site k = function
  | Cancel ->
      hit site k "cancel";
      `Cancel
  | Raise ->
      hit site k "raise";
      raise (Injected (Printf.sprintf "fault injected at %s (checkpoint %d)" site k))
  | Delay s ->
      hit site k "delay";
      Ccs_util.Mono.sleep_ns (int_of_float (s *. 1e9));
      `Nothing

let decide site =
  match Atomic.get state with
  | None -> `Nothing
  | Some plan -> (
      let k = Atomic.fetch_and_add ord 1 in
      match plan with
      | At { ordinal; action } -> if k = ordinal then apply site k action else `Nothing
      | Rate { seed; cancel_ppm; raise_ppm; delay_ppm; delay_s } ->
          (* one fresh stream per checkpoint: a pure function of (seed, k),
             so the decision sequence is independent of everything else *)
          let u = Ccs_util.Prng.int (Ccs_util.Prng.stream ~seed ~index:k) 1_000_000 in
          if u < cancel_ppm then apply site k Cancel
          else if u < cancel_ppm + raise_ppm then apply site k Raise
          else if u < cancel_ppm + raise_ppm + delay_ppm then apply site k (Delay delay_s)
          else `Nothing)
