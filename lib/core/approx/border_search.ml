module Q = Rat

type result = { t_star : Q.t; probes : int }

let m_probes = Ccs_obs.Metrics.counter "border_search.probes"
let m_searches = Ccs_obs.Metrics.counter "border_search.searches"

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
  let feasible probes t =
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
  let lb_probes = ref 0 in
  if feasible lb_probes lb then finish { t_star = lb; probes = !lb_probes }
  else begin
    (* Each class's candidate border is a pure function of the shared load
       vector, so the classes fan out on the pool (when there are enough of
       them for the batch to pay for itself — each task is only a handful
       of O(C) probes); probes are counted per task and summed by index,
       and the final minimum is order-independent — the result is the
       sequential one bit for bit. *)
    let map =
      if Array.length loads >= 64 then fun f a -> Ccs_par.parallel_map f a
      else Array.map
    in
    let per_class =
      map
        (fun pu ->
          let probes = ref 0 in
          let border =
            let pu_q = Q.of_int pu in
            if Q.(pu_q >= lb) then begin
              (* Borders of this class: P_u / k for k in [1, k_max], k_max
                 chosen so the border stays >= lb (and k <= m automatically,
                 see Lemma 2: P_u / lb <= m). *)
              let k_max = Bigint.to_int_exn (Q.floor (Q.div pu_q lb)) in
              let k_max = min k_max machines in
              if k_max >= 1 && feasible probes pu_q then begin
                (* Largest k with feasible (P_u / k): prefix property in k. *)
                let lo = ref 1 and hi = ref k_max in
                while !lo < !hi do
                  let mid = (!lo + !hi + 1) / 2 in
                  if feasible probes (Q.div pu_q (Q.of_int mid)) then lo := mid
                  else hi := mid - 1
                done;
                Some (Q.div pu_q (Q.of_int !lo))
              end
              else None
            end
            else None
          in
          (border, !probes))
        loads
    in
    let best = ref None and probes = ref !lb_probes in
    Array.iter
      (fun (border, p) ->
        probes := !probes + p;
        match border with
        | None -> ()
        | Some border -> (
            match !best with
            | Some b when Q.(b <= border) -> ()
            | _ -> best := Some border))
      per_class;
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
