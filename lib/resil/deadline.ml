module Mono = Ccs_util.Mono

type t = {
  dlimit_ns : int;  (* max_int = no deadline *)
  (* cached "this token is cancelled" so that after the first slow-path
     detection every subsequent check raises without reading the clock *)
  tripped : bool Atomic.t;
}

type reason = Expired | Fault

exception Cancelled of { site : string; reason : reason }

let make dlimit_ns = { dlimit_ns; tripped = Atomic.make false }

let never = make max_int
let of_budget_ms ms = make (Mono.now_ns () + Mono.ns_of_ms ms)
let of_limit_ns limit = make limit
let limit_ns t = if t.dlimit_ns = max_int then None else Some t.dlimit_ns

let expired t = t.dlimit_ns <> max_int && Mono.now_ns () >= t.dlimit_ns
let child t = make t.dlimit_ns
let cancelled t = Atomic.get t.tripped || expired t

(* ---------------- ambient token ---------------- *)

let ambient_key : t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref never)
let ambient () = !(Domain.DLS.get ambient_key)

let with_token tok f =
  let cell = Domain.DLS.get ambient_key in
  let saved = !cell in
  cell := tok;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* ---------------- checkpoints ---------------- *)

type site = { sname : string; hot : bool }

let site ?(hot = false) sname = { sname; hot }

let m_checks = Ccs_obs.Metrics.counter "resil.cancel_checks"

(* The count is exact (one atomic fetch-add per check, still allocation
   free) rather than amortized: the bench gate compares it across commits,
   and an amortized count would depend on the flush phase at snapshot
   time. [pushed] tracks how much of it has been forwarded to the metrics
   registry, which takes a mutex and is therefore only touched in
   [flush_stats]. *)
let checks = Atomic.make 0
let pushed = Atomic.make 0

(* Per-domain tick for amortizing clock reads at hot sites. *)
let tick_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let checks_total () = Atomic.get checks

let flush_stats () =
  let tot = Atomic.get checks in
  let prev = Atomic.exchange pushed tot in
  if tot > prev then Ccs_obs.Metrics.add m_checks (tot - prev)

let reset_stats () =
  Atomic.set checks 0;
  Atomic.set pushed 0

let trip tok reason site =
  if tok != never then Atomic.set tok.tripped true;
  raise (Cancelled { site = site.sname; reason })

let check site =
  Atomic.incr checks;
  (* Flight-recorder sampling piggybacks on checkpoints the solvers
     already visit (amortized inside [sample]). It only reads the counter
     — the exact [resil.cancel_checks] count the bench gate pins is not
     affected by recording. *)
  if Ccs_obs.Recorder.active () then
    Ccs_obs.Recorder.sample ~site:site.sname ~checks:(Atomic.get checks);
  let tok = ambient () in
  (if Faults.armed () then
     match Faults.decide site.sname with
     | `Nothing -> ()
     | `Cancel -> trip tok Fault site);
  if tok != never then begin
    if Atomic.get tok.tripped then raise (Cancelled { site = site.sname; reason = Expired });
    let read_clock =
      (not site.hot)
      ||
      let tick = Domain.DLS.get tick_key in
      incr tick;
      !tick land 63 = 0
    in
    if read_clock && expired tok then trip tok Expired site
  end
