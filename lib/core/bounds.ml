module Q = Rat

let lb_splittable inst =
  Q.make (Bigint.of_int (Instance.total_load inst)) (Bigint.of_int (Instance.m inst))

let lb_preemptive inst = Q.max (Q.of_int (Instance.pmax inst)) (lb_splittable inst)

(* ceil (total / m) as (total - 1) / m + 1: total >= 1, and total + m - 1
   can pass max_int *)
let lb_integral inst =
  max (Instance.pmax inst) (((Instance.total_load inst - 1) / Instance.m inst) + 1)

let ub_splittable inst =
  let max_load = Array.fold_left max 0 (Instance.class_load inst) in
  Q.mul (Q.of_int (Instance.c inst)) (Q.of_int max_load)

let ub_integral inst =
  (* n * pmax overflows native ints for the huge processing times random
     instances can carry; compute over Bigint-backed rationals instead. *)
  Q.mul (Q.of_int (Instance.n inst)) (Q.of_int (Instance.pmax inst))
