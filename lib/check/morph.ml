(* Metamorphic transforms: semantics-preserving (or semantics-bounding)
   rewrites of an instance whose effect on the optimum — and, for the
   equivariant solvers, on the computed makespan — is known in advance.
   Scaling all processing times by k scales every schedule by k; permuting
   class ids and job order relabels schedules; adding a machine can only
   help. *)

module Q = Rat
module I = Ccs.Instance
module Prng = Ccs_util.Prng

type transform = Scale of int | Permute of int | Add_machine

let name = function
  | Scale k -> Printf.sprintf "scale x%d" k
  | Permute _ -> "permute classes/jobs"
  | Add_machine -> "add a machine"

let jobs_of inst = List.init (I.n inst) (fun i -> (I.job_p inst i, I.job_cls inst i))

let remake ?machines ?slots inst jobs =
  let machines = Option.value ~default:(I.m inst) machines in
  let slots = Option.value ~default:(I.c inst) slots in
  I.make ~machines ~slots jobs

let apply transform inst =
  match transform with
  | Scale k ->
      if k <= 0 then invalid_arg "Morph.apply: scale factor must be positive";
      remake inst (List.map (fun (p, cls) -> (p * k, cls)) (jobs_of inst))
  | Permute seed ->
      let rng = Prng.create seed in
      let perm = Array.init (I.num_classes inst) Fun.id in
      Prng.shuffle rng perm;
      let jobs =
        Array.of_list (List.map (fun (p, cls) -> (p, perm.(cls))) (jobs_of inst))
      in
      Prng.shuffle rng jobs;
      remake inst (Array.to_list jobs)
  | Add_machine -> remake ~machines:(I.m inst + 1) inst (jobs_of inst)

(* The transforms probed for one instance: one scale factor and one
   permutation drawn from [mseed], plus the extra machine. Scaling is
   skipped when the processing times are so large that the product could
   overflow native ints. *)
let probes ~mseed inst =
  let rng = Prng.create mseed in
  let k = [| 2; 3; 5 |].(Prng.int rng 3) in
  let pseed = Prng.next_int rng in
  let scale = if I.pmax inst <= max_int / (8 * k) then [ Scale k ] else [] in
  scale @ [ Permute pseed; Add_machine ]
