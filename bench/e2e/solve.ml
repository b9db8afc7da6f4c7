(* One ccs_solve configuration: the flags a workload passes to the CLI, and
   the same solve made in-process through the library calls the CLI makes
   (used by the traced run). *)

module Q = Rat

type variant = Split | Pre | Np
type algo = Approx | Ptas of float  (** epsilon *) | Exact of int  (** node limit *)
type format = Text | Flat
type config = { variant : variant; algo : algo; format : format }

type schedule =
  | Split_s of Ccs.Schedule.splittable
  | Pre_s of Ccs.Schedule.preemptive
  | Np_s of Ccs.Schedule.nonpreemptive

let variant_name = function Split -> "split" | Pre -> "pre" | Np -> "np"

(* The PTAS accuracy d = 1/delta the CLI derives from --epsilon. *)
let ptas_d eps = max 1 (int_of_float (ceil (1.0 /. eps)))

let cli_args c =
  [ "--variant"; variant_name c.variant; "--jobs"; "1";
    "--format"; (match c.format with Text -> "text" | Flat -> "flat") ]
  @
  match c.algo with
  | Approx -> [ "--algo"; "approx" ]
  | Ptas eps -> [ "--algo"; "ptas"; "--epsilon"; Printf.sprintf "%.17g" eps ]
  | Exact limit -> [ "--algo"; "exact"; "--node-limit"; string_of_int limit ]

(* Compact form for the traced child's command line: VARIANT:ALGO:FORMAT. *)
let to_string c =
  String.concat ":"
    [ variant_name c.variant;
      (match c.algo with
      | Approx -> "approx"
      | Ptas eps -> Printf.sprintf "ptas=%.17g" eps
      | Exact limit -> Printf.sprintf "exact=%d" limit);
      (match c.format with Text -> "text" | Flat -> "flat") ]

let of_string s =
  let variant = function
    | "split" -> Split
    | "pre" -> Pre
    | "np" -> Np
    | v -> invalid_arg ("unknown variant " ^ v)
  in
  let algo a =
    match String.split_on_char '=' a with
    | [ "approx" ] -> Approx
    | [ "ptas"; eps ] -> Ptas (float_of_string eps)
    | [ "exact"; limit ] -> Exact (int_of_string limit)
    | _ -> invalid_arg ("unknown algorithm " ^ a)
  in
  match String.split_on_char ':' s with
  | [ v; a; f ] ->
      { variant = variant v; algo = algo a;
        format = (match f with "flat" -> Flat | _ -> Text) }
  | _ -> invalid_arg ("bad configuration " ^ s)

(* The solver call ccs_solve makes for [c]; the flat-form 2-approximations
   run only under --format flat, as in the CLI. *)
let solve c fl inst =
  let param eps = Ccs.Ptas.Common.param (ptas_d eps) in
  match (c.variant, c.algo, c.format) with
  | Split, Approx, Flat -> Split_s (fst (Ccs.Approx.Splittable.solve_flat fl))
  | Split, Approx, Text -> Split_s (fst (Ccs.Approx.Splittable.solve inst))
  | Split, Ptas eps, _ -> Split_s (fst (Ccs.Ptas.Splittable_ptas.solve (param eps) inst))
  | Pre, Approx, Flat -> Pre_s (fst (Ccs.Approx.Preemptive.solve_flat fl))
  | Pre, Approx, Text -> Pre_s (fst (Ccs.Approx.Preemptive.solve inst))
  | Pre, Ptas eps, _ -> Pre_s (fst (Ccs.Ptas.Preemptive_ptas.solve (param eps) inst))
  | Np, Approx, Flat -> Np_s (fst (Ccs.Approx.Nonpreemptive.solve_flat fl))
  | Np, Approx, Text -> Np_s (fst (Ccs.Approx.Nonpreemptive.solve inst))
  | Np, Ptas eps, _ -> Np_s (fst (Ccs.Ptas.Nonpreemptive_ptas.solve (param eps) inst))
  | Np, Exact node_limit, _ -> (
      match Ccs_exact.Bnb.solve_result ~node_limit inst with
      | Some r -> Np_s r.Ccs_exact.Bnb.assignment
      | None -> invalid_arg "instance is not schedulable")
  | (Split | Pre), Exact _, _ -> invalid_arg "exact search is measured for np only"

let validate inst = function
  | Split_s s -> Ccs.Schedule.validate_splittable inst s
  | Pre_s s -> Ccs.Schedule.validate_preemptive inst s
  | Np_s a -> Result.map Q.of_int (Ccs.Schedule.validate_nonpreemptive inst a)

(* The lower bound quality is measured against: the average load for
   splittable, max(pmax, average load) otherwise. *)
let lower_bound variant inst =
  match variant with
  | Split -> Ccs.Bounds.lb_splittable inst
  | Pre | Np -> Ccs.Bounds.lb_preemptive inst

(* The approximation factor the CLI's summary line claims. *)
let approx_ratio = function Split | Pre -> Q.of_int 2 | Np -> Q.of_ints 7 3

(* Makespan guarantee of a PTAS schedule accepted at guess [t]. *)
let ptas_guarantee variant d t =
  let param = Ccs.Ptas.Common.param d in
  match variant with
  | Split -> Q.(t * (one + (of_int 5 * Ccs.Ptas.Common.delta param)))
  | Pre -> Ccs.Ptas.Preemptive_ptas.guarantee param t
  | Np -> Ccs.Ptas.Nonpreemptive_ptas.guarantee param t
