module Q = Rat

type stats = { t_guess : Q.t; probes : int; full_slices : int }

(* The whole algorithm only ever looks at the per-class loads. *)
let solve inst =
  if not (Instance.schedulable inst) then
    invalid_arg "Approx.Splittable.solve: C > c*m, no schedule exists";
  Border_search.solve_phase @@ fun () ->
  let loads = Instance.class_load inst and m = Instance.m inst in
  let { Border_search.t_star = t; probes } =
    Border_search.search ~loads ~machines:m ~slots:(Instance.c inst)
      ~lb:(Bounds.lb_splittable inst)
  in
  (* Slice large classes: f_u full slices of size exactly T plus a remainder
     in (0, T]. Every full slice occupies a machine alone (F < m because
     F*T < sum P_u <= m*lb <= m*T), so classes become consecutive blocks.
     Each class leaves one tail item of size at most T. With T = tn/q, an
     item's key is its size in units of 1/q, at most tn: items sort as
     ints. *)
  let tn = Bigint.to_int_exn (Q.num t) and q = Bigint.to_int_exn (Q.den t) in
  let nc = Array.length loads in
  let size = Array.make nc Q.zero and key = Array.make nc 0 in
  let blocks = ref [] in
  let cursor = ref 0 in
  for u = 0 to nc - 1 do
    let pu = loads.(u) in
    (* P_u > tn/q iff P_u > floor (tn/q): P_u is an integer *)
    if pu > tn / q then begin
      let pu_q = Q.of_int pu in
      let f = Bigint.to_int_exn (Q.ceil (Q.div pu_q t)) - 1 in
      let remainder = Q.sub pu_q (Q.mul (Q.of_int f) t) in
      if f > 0 then begin
        blocks :=
          { Schedule.cls = u; m_start = !cursor; m_count = f; per_machine = t }
          :: !blocks;
        cursor := !cursor + f
      end;
      size.(u) <- remainder;
      key.(u) <-
        Bigint.to_int_exn (Q.num remainder) * (q / Bigint.to_int_exn (Q.den remainder))
    end
    else begin
      size.(u) <- Q.of_int pu;
      key.(u) <- pu * q
    end
  done;
  let full = !cursor in
  (* Round robin continues with the items in non-ascending order, ties by
     descending class, starting at machine F and wrapping around all m
     machines: the item of rank r lands on machine (F + r) mod m. *)
  let order = Round_robin.sort_desc key (Array.init nc (fun i -> nc - 1 - i)) in
  (* Machine x holds the ranks r0, r0 + m, ... below nc, r0 = (x - F) mod
     m. Only min(nc, m) machines receive an item: F onwards, then the
     wrap-around run from 0. m may be astronomically large, so nothing here
     is sized by it. *)
  let explicit_machines = ref [] in
  let add machine r0 =
    let items = ref [] in
    let r = ref (r0 + ((nc - 1 - r0) / m * m)) in
    while !r >= r0 do
      let u = order.(!r) in
      items := (u, size.(u)) :: !items;
      r := !r - m
    done;
    explicit_machines := (machine, !items) :: !explicit_machines
  in
  let receiving = min nc m in
  let wrapped = receiving - (m - full) in
  for machine = (if wrapped > 0 then m else full + receiving) - 1 downto full do
    add machine (machine - full)
  done;
  for machine = wrapped - 1 downto 0 do
    add machine (machine + m - full)
  done;
  ( { Schedule.blocks = List.rev !blocks; explicit_machines = !explicit_machines },
    { t_guess = t; probes; full_slices = full } )

(* the name bench/e2e calls; see splittable.mli *)
let solve_flat = solve
