module Prng = Ccs_util.Prng

type family = Uniform | Zipf | Heavy_classes | Large_jobs | Lp_stress | Bnb_stress

type spec = {
  n : int;
  classes : int;
  machines : int;
  slots : int;
  p_lo : int;
  p_hi : int;
  family : family;
}

let default =
  { n = 40; classes = 8; machines = 5; slots = 3; p_lo = 1; p_hi = 100; family = Uniform }

let generate ~seed spec =
  if spec.n <= 0 || spec.classes <= 0 then invalid_arg "Generator.generate";
  let rng = Prng.create seed in
  let pick_class =
    match spec.family with
    | Uniform | Large_jobs -> fun () -> Prng.int rng spec.classes
    | Lp_stress | Bnb_stress ->
        (* Round-robin: every class receives the same job-size multiset (up
           to one job), so classes are interchangeable and the induced
           configuration LPs carry duplicated columns. *)
        let next = ref (-1) in
        fun () ->
          incr next;
          !next mod spec.classes
    | Zipf ->
        let weights =
          Array.init spec.classes (fun i -> 1.0 /. float_of_int (i + 1))
        in
        fun () -> Prng.weighted rng weights
    | Heavy_classes ->
        (* 80% of jobs land in the first max(1, classes/4) classes. *)
        let heavy = max 1 (spec.classes / 4) in
        if heavy >= spec.classes then fun () -> Prng.int rng spec.classes
        else
          fun () ->
            if Prng.float rng < 0.8 then Prng.int rng heavy
            else heavy + Prng.int rng (spec.classes - heavy)
  in
  let pick_p =
    match spec.family with
    | Uniform | Zipf | Heavy_classes -> fun () -> Prng.int_in rng spec.p_lo spec.p_hi
    | Lp_stress ->
        (* Only two or three distinct sizes in the whole instance: massive
           ties make every simplex vertex degenerate (many minimum-ratio
           rows) and the config-LP columns near-singular. *)
        let palette =
          [| max spec.p_lo (spec.p_hi / 2); max spec.p_lo (spec.p_hi / 3); spec.p_hi |]
        in
        let k = 2 + Prng.int rng 2 in
        fun () -> palette.(Prng.int rng k)
    | Bnb_stress ->
        (* Near-perfect-partition pressure for the exact search: every job
           sits in a narrow band around p_hi/2, so machine loads tie within
           a hair of each other everywhere in the tree — the area bound is
           weak, incumbents improve by 1, and the DFS goes deep. Combined
           with the round-robin classes above, slot constraints bite too. *)
        let lo = max spec.p_lo (spec.p_hi * 7 / 16) in
        let hi = max lo (spec.p_hi * 9 / 16) in
        fun () -> Prng.int_in rng lo hi
    | Large_jobs ->
        (* Jobs clustered just above p_hi/2 and just above p_hi/3: the
           regimes distinguished by the non-preemptive C_u^2 computation. *)
        fun () ->
          let r = Prng.float rng in
          if r < 0.4 then Prng.int_in rng ((spec.p_hi / 2) + 1) spec.p_hi
          else if r < 0.8 then Prng.int_in rng ((spec.p_hi / 3) + 1) (spec.p_hi / 2)
          else Prng.int_in rng (max 1 spec.p_lo) (max 1 (spec.p_hi / 3))
  in
  (* Class first, then size — the same stream order the historical
     [List.init n (fun _ -> (pick_p (), pick_class ()))] consumed (tuples
     evaluate right to left), so seeds reproduce the same instances. *)
  let p = Array.make spec.n 0 and cls = Array.make spec.n 0 in
  for i = 0 to spec.n - 1 do
    cls.(i) <- pick_class ();
    p.(i) <- pick_p ()
  done;
  Instance.of_arrays ~machines:spec.machines ~slots:spec.slots ~p ~cls

(* the name bench/e2e calls; see generator.mli *)
let generate_flat = generate

let figure1_example () =
  (* Ten classes with strictly decreasing loads, four machines, two slots:
     round robin wraps exactly as in Figure 1. *)
  let sizes = [ 20; 18; 16; 14; 12; 10; 8; 6; 4; 2 ] in
  let jobs = List.concat (List.mapi (fun u s -> [ (s, u) ]) sizes) in
  Instance.make ~machines:4 ~slots:3 jobs
