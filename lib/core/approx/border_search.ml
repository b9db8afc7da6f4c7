module Q = Rat

type result = { t_star : Q.t; probes : int }

let m_probes = Ccs_obs.Metrics.counter "border_search.probes"
let m_searches = Ccs_obs.Metrics.counter "border_search.searches"

let m_solves = Ccs_obs.Metrics.counter "approx.solves"
    ~help:"2-approximation solves (splittable, preemptive and non-preemptive)"

let solve_phase f =
  Ccs_obs.Metrics.incr m_solves;
  Ccs_obs.Recorder.phase "approx" f

(* Each feasibility probe scans all classes (O(C log)), so the clock is
   read every time. *)
let chk_probe = Ccs_resil.Deadline.site "approx.probe"

let count_classes ~loads ~cap t =
  let count = ref 0 in
  (try
     Array.iter
       (fun pu ->
         let pu_q = Q.of_int pu in
         let contribution =
           if Q.(pu_q > t) then Bigint.to_int_exn (Q.ceil (Q.div pu_q t)) else 1
         in
         count := !count + contribution;
         if !count > cap then raise Exit)
       loads
   with Exit -> count := cap + 1);
  !count

(* c * m without overflow: saturate at max_int. *)
let slot_cap ~machines ~slots =
  if machines > max_int / slots then max_int else machines * slots

let search ~loads ~machines ~slots ~lb =
  if Q.sign lb <= 0 then invalid_arg "Border_search.search: lb must be positive";
  Ccs_obs.Recorder.phase "border_search"
    ~fields:Ccs_obs.Jsonx.[ ("classes", Int (Array.length loads)); ("machines", Int machines) ]
  @@ fun () ->
  let cap = slot_cap ~machines ~slots in
  let probes = ref 0 in
  let feasible t =
    Ccs_resil.Deadline.check chk_probe;
    incr probes;
    count_classes ~loads ~cap t <= cap
  in
  let finish r =
    Ccs_obs.Metrics.incr m_searches;
    Ccs_obs.Metrics.add m_probes r.probes;
    Ccs_obs.Log.debug (fun log ->
        log
          ~fields:
            [ Ccs_obs.Log.str "t_star" (Q.to_string r.t_star);
              Ccs_obs.Log.int "probes" r.probes ]
          "border_search.done");
    r
  in
  if feasible lb then finish { t_star = lb; probes = !probes }
  else begin
    let best = ref None in
    Array.iter
      (fun pu ->
        let pu_q = Q.of_int pu in
        if Q.(pu_q >= lb) then begin
          (* Borders of this class: P_u / k for k in [1, k_max], k_max
             chosen so the border stays >= lb (and k <= m automatically,
             see Lemma 2: P_u / lb <= m). *)
          let k_max = Bigint.to_int_exn (Q.floor (Q.div pu_q lb)) in
          let k_max = min k_max machines in
          if k_max >= 1 && feasible pu_q then begin
            (* Largest k with feasible (P_u / k): prefix property in k. *)
            let lo = ref 1 and hi = ref k_max in
            while !lo < !hi do
              let mid = (!lo + !hi + 1) / 2 in
              if feasible (Q.div pu_q (Q.of_int mid)) then lo := mid
              else hi := mid - 1
            done;
            let border = Q.div pu_q (Q.of_int !lo) in
            match !best with
            | Some b when Q.(b <= border) -> ()
            | _ -> best := Some border
          end
        end)
      loads;
    match !best with
    | Some t -> finish { t_star = t; probes = !probes }
    | None ->
        invalid_arg
          "Border_search.search: no feasible guess (C > c*m, instance unschedulable)"
  end

let search_naive ~loads ~machines ~slots ~lb =
  let cap = slot_cap ~machines ~slots in
  let probes = ref 0 in
  let feasible t =
    incr probes;
    count_classes ~loads ~cap t <= cap
  in
  let best = ref None in
  if feasible lb then best := Some lb;
  Array.iter
    (fun pu ->
      let pu_q = Q.of_int pu in
      for k = 1 to machines do
        let border = Q.div pu_q (Q.of_int k) in
        if Q.(border >= lb) && feasible border then
          match !best with
          | Some b when Q.(b <= border) -> ()
          | _ -> best := Some border
      done)
    loads;
  match !best with
  | Some t -> { t_star = t; probes = !probes }
  | None -> invalid_arg "Border_search.search_naive: unschedulable"
