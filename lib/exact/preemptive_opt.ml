module Q = Rat
module I = Ccs.Instance

(* One checkpoint per Birkhoff matching slice; the MILP phase is covered
   by the lp.pivot / ilp.node checkpoints inside [Ilp.solve]. *)
let chk_realize = Ccs_resil.Deadline.site "exact.realize"

(* ---- phase 1: the MILP for the optimal amount matrix ---- *)

let build inst =
  let n = I.n inst in
  let m = min (I.m inst) n in
  (* w.l.o.g. n machines suffice preemptively: makespan >= pmax and with
     m >= n one job per machine achieves it, so extra machines never help *)
  let nc = I.num_classes inst in
  let a j i = (j * m) + i in
  let y u i = (n * m) + (u * m) + i in
  let tvar = (n * m) + (nc * m) in
  let nvars = tvar + 1 in
  let rows = ref [] in
  for j = 0 to n - 1 do
    rows :=
      Lp.constr (List.init m (fun i -> (a j i, Q.one))) Lp.Eq
        (Q.of_int (I.job_p inst j))
      :: !rows
  done;
  for i = 0 to m - 1 do
    rows :=
      Lp.constr ((tvar, Q.minus_one) :: List.init n (fun j -> (a j i, Q.one))) Lp.Le Q.zero
      :: !rows;
    rows :=
      Lp.constr (List.init nc (fun u -> (y u i, Q.one))) Lp.Le (Q.of_int (I.c inst))
      :: !rows
  done;
  for j = 0 to n - 1 do
    let p = I.job_p inst j in
    let u = I.job_cls inst j in
    for i = 0 to m - 1 do
      rows := Lp.constr [ (a j i, Q.one); (y u i, Q.of_int (-p)) ] Lp.Le Q.zero :: !rows
    done
  done;
  let upper = Array.make nvars None in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      upper.(a j i) <- Some (Q.of_int (I.job_p inst j))
    done
  done;
  for u = 0 to nc - 1 do
    for i = 0 to m - 1 do
      upper.(y u i) <- Some Q.one
    done
  done;
  upper.(tvar) <- Some (Q.of_int (I.total_load inst));
  let lower = Array.make nvars (Some Q.zero) in
  lower.(tvar) <- Some (Q.of_int (I.pmax inst));
  let objective = Array.make nvars Q.zero in
  objective.(tvar) <- Q.one;
  let lp = Lp.problem ~lower ~upper ~nvars ~objective (List.rev !rows) in
  let integer = Array.make nvars false in
  for u = 0 to nc - 1 do
    for i = 0 to m - 1 do
      integer.(y u i) <- true
    done
  done;
  ({ Ilp.lp; integer }, m, a, tvar)

(* ---- phase 2: Birkhoff decomposition of the amount matrix ----

   Pad the n x m amount matrix to a square (n+m) x (m+n) matrix whose every
   row and column sums to T: row j gets a job-slack entry, column i gets a
   machine-slack entry, and the dummy/dummy block is filled by a northwest-
   corner transportation fill. Positive entries of such a matrix always
   contain a perfect matching (Birkhoff-von Neumann); scheduling every
   matched real pair for the minimum matched amount and repeating consumes
   the matrix in finitely many slices. *)
let realize inst m amounts t =
  let n = I.n inst in
  let size = n + m in
  let b = Array.make_matrix size size Q.zero in
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      b.(j).(i) <- amounts.(j).(i)
    done
  done;
  (* slacks *)
  let row_sum r = Array.fold_left Q.add Q.zero b.(r) in
  for j = 0 to n - 1 do
    b.(j).(m + j) <- Q.sub t (row_sum j)
  done;
  for i = 0 to m - 1 do
    let col = ref Q.zero in
    for j = 0 to n - 1 do
      col := Q.add !col b.(j).(i)
    done;
    b.(n + i).(i) <- Q.sub t !col
  done;
  (* transportation fill of the dummy/dummy block: row n+i still needs
     C_i = t - b.(n+i).(i); column m+j still needs R_j = t - b.(j).(m+j) *)
  let need_row = Array.init m (fun i -> Q.sub t b.(n + i).(i)) in
  let need_col = Array.init n (fun j -> Q.sub t b.(j).(m + j)) in
  let i = ref 0 and j = ref 0 in
  while !i < m && !j < n do
    let d = Q.min need_row.(!i) need_col.(!j) in
    if Q.sign d > 0 then begin
      b.(n + !i).(m + !j) <- Q.add b.(n + !i).(m + !j) d;
      need_row.(!i) <- Q.sub need_row.(!i) d;
      need_col.(!j) <- Q.sub need_col.(!j) d
    end;
    if Q.sign need_row.(!i) = 0 then incr i else incr j
  done;
  (* slice off perfect matchings *)
  let sched = Array.make (I.m inst) [] in
  let clock = ref Q.zero in
  let remaining = ref t in
  let guard = ref (size * size * 4) in
  while Q.sign !remaining > 0 do
    Ccs_resil.Deadline.check chk_realize;
    decr guard;
    if !guard < 0 then failwith "Preemptive_opt.realize: decomposition did not converge";
    let g = Flow.create (2 * size + 2) in
    let source = 2 * size and sink = (2 * size) + 1 in
    for r = 0 to size - 1 do
      ignore (Flow.add_edge g ~src:source ~dst:r ~cap:1);
      ignore (Flow.add_edge g ~src:(size + r) ~dst:sink ~cap:1)
    done;
    let edges = ref [] in
    for r = 0 to size - 1 do
      for c = 0 to size - 1 do
        if Q.sign b.(r).(c) > 0 then
          edges := (r, c, Flow.add_edge g ~src:r ~dst:(size + c) ~cap:1) :: !edges
      done
    done;
    let v = Flow.max_flow g ~source ~sink in
    if v <> size then failwith "Preemptive_opt.realize: no perfect matching (bug)";
    let matched = List.filter (fun (_, _, e) -> Flow.flow_on g e = 1) !edges in
    let d =
      List.fold_left (fun acc (r, c, _) -> Q.min acc b.(r).(c)) !remaining matched
    in
    assert (Q.sign d > 0);
    List.iter
      (fun (r, c, _) ->
        b.(r).(c) <- Q.sub b.(r).(c) d;
        if r < n && c < m then
          sched.(c) <- { Ccs.Schedule.pjob = r; start = !clock; len = d } :: sched.(c))
      matched;
    clock := Q.add !clock d;
    remaining := Q.sub !remaining d
  done;
  Array.map List.rev sched

let solve ?(max_nodes = 400_000) inst =
  if not (I.schedulable inst) then None
  else if I.n inst * min (I.m inst) (I.n inst) > 120 then None
  else begin
    Ccs_obs.Recorder.phase "exact"
    @@ fun () ->
    let problem, m, a, _ = build inst in
    match Ilp.solve ~max_nodes problem with
    | Ilp.Optimal { objective; solution } ->
        let amounts = Array.init (I.n inst) (fun j -> Array.init m (fun i -> solution.(a j i))) in
        let sched = realize inst m amounts objective in
        (match Ccs.Schedule.validate_preemptive inst sched with
        | Ok mk ->
            if not (Q.equal mk objective) then
              failwith "Preemptive_opt: realized makespan differs from the MILP optimum";
            Some (objective, sched)
        | Error e -> failwith ("Preemptive_opt: invalid realization: " ^ e))
    | _ -> None
  end

let opt ?max_nodes inst = Option.map fst (solve ?max_nodes inst)
