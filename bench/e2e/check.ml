(* Reads ccs_solve's standard output back into schedules and checks each
   answer independently of the solver that produced it: the schedule must
   pass the validators of Ccs.Schedule, its validated makespan must equal
   the printed one, and the printed certificate must hold. *)

module Q = Rat
open Solve

type claim =
  | Approx_guess of Q.t  (** guess T: makespan <= 2T, or 7/3 T for np *)
  | Ptas_guess of int * Q.t  (** d = 1/delta and the accepted guess T *)
  | Optimum
  | Out_of_budget of Q.t  (** proven lower bound of a search that ran out of nodes *)

type answer = {
  header : int * int * int * int;  (** n, m, c, C as printed *)
  makespan : Q.t;
  claim : claim;
  schedule : schedule;
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let scan line fmt k =
  try Scanf.sscanf line fmt k
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> bad "unexpected line %S" line

let int_of s = match int_of_string_opt s with Some i -> i | None -> bad "bad integer %S" s

let rat_of s = try Q.of_string s with _ -> bad "bad number %S" s

(* "jN" -> N *)
let job_of tok =
  if String.length tok < 2 || tok.[0] <> 'j' then bad "bad job %S" tok
  else int_of (String.sub tok 1 (String.length tok - 1))

let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)

let summary line =
  let approx mk t = (rat_of mk, Approx_guess (rat_of t)) in
  let ptas mk d t = (rat_of mk, Ptas_guess (d, rat_of t)) in
  let try_ fmt k = try Some (Scanf.sscanf line fmt k) with _ -> None in
  let forms =
    [ (fun () -> try_ "splittable 2-approx: makespan %s (guess T=%[^,], <= 2T)%!" approx);
      (fun () -> try_ "preemptive 2-approx: makespan %s (guess T=%[^,], <= 2T)%!" approx);
      (fun () ->
        try_ "non-preemptive 7/3-approx: makespan %s (guess T=%[^,], <= 7/3 T)%!" approx);
      (fun () -> try_ "%_s PTAS (delta=1/%d): makespan %s (accepted T=%[^)])%!"
                   (fun d mk t -> ptas mk d t));
      (fun () -> try_ "non-preemptive exact optimum: %s%!" (fun mk -> (rat_of mk, Optimum)));
      (fun () ->
        try_ "exact search out of budget: incumbent %s@, proven lower bound %s%!"
          (fun mk lb -> (rat_of mk, Out_of_budget (rat_of lb)))) ]
  in
  match List.find_map (fun f -> f ()) forms with
  | Some r -> r
  | None -> bad "unexpected summary line %S" line

(* machines a..b: class u, L each  |  machine i: class u: L, class v: L *)
let splittable lines =
  let blocks = ref [] and explicit = ref [] in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"machines " line then
        scan line "machines %d..%d: class %d, %s each%!" (fun a b cls l ->
            blocks :=
              { Ccs.Schedule.cls; m_start = a; m_count = b - a + 1; per_machine = rat_of l }
              :: !blocks)
      else
        scan line "machine %d: %[^\n]" (fun mi rest ->
            let load part =
              scan (String.trim part) "class %d: %s%!" (fun u l -> (u, rat_of l))
            in
            explicit := (mi, List.map load (String.split_on_char ',' rest)) :: !explicit))
    lines;
  { Ccs.Schedule.blocks = List.rev !blocks; explicit_machines = List.rev !explicit }

(* machine i: jJ@[s,e) ... *)
let preemptive ~m lines =
  let sched = Array.make m [] in
  List.iter
    (fun line ->
      scan line "machine %d:%[^\n]" (fun mi rest ->
          if mi < 0 || mi >= m then bad "machine %d out of range" mi;
          let piece tok =
            match String.index_opt tok '@' with
            | Some at
              when at + 2 < String.length tok
                   && tok.[at + 1] = '['
                   && tok.[String.length tok - 1] = ')' -> (
                let span = String.sub tok (at + 2) (String.length tok - at - 3) in
                match String.split_on_char ',' span with
                | [ s; e ] ->
                    let start = rat_of s in
                    { Ccs.Schedule.pjob = job_of (String.sub tok 0 at); start;
                      len = Q.sub (rat_of e) start }
                | _ -> bad "bad piece %S" tok)
            | _ -> bad "bad piece %S" tok
          in
          sched.(mi) <- List.map piece (words rest)))
    lines;
  sched

(* machine i (load L): jA jB ... *)
let nonpreemptive ~n lines =
  let assignment = Array.make n (-1) in
  List.iter
    (fun line ->
      scan line "machine %d (load %d):%[^\n]" (fun mi _ rest ->
          List.iter
            (fun tok ->
              let j = job_of tok in
              if j < 0 || j >= n then bad "job %d out of range" j;
              assignment.(j) <- mi)
            (words rest)))
    lines;
  assignment

(* One instance's block of output: the header, the summary line, then the
   schedule. *)
let parse variant lines =
  try
    match List.filter (( <> ) "") lines with
    | header :: summary_line :: body ->
        let n, m, c, cc =
          scan header "instance: n=%d m=%d c=%d C=%d%!" (fun n m c cc -> (n, m, c, cc))
        in
        let makespan, claim = summary summary_line in
        let schedule =
          match variant with
          | Split -> Split_s (splittable body)
          | Pre -> Pre_s (preemptive ~m body)
          | Np -> Np_s (nonpreemptive ~n body)
        in
        Ok { header = (n, m, c, cc); makespan; claim; schedule }
    | _ -> Error "missing header or summary line"
  with Bad msg -> Error msg

(* Split an output file into per-instance blocks: a batch separates them
   with "=== FILE ===" lines, a single instance has none. *)
let blocks text =
  let lines = String.split_on_char '\n' text in
  if not (List.exists (String.starts_with ~prefix:"=== ") lines) then [ lines ]
  else
    List.fold_left
      (fun acc line ->
        if String.starts_with ~prefix:"=== " line then [] :: acc
        else match acc with cur :: rest -> (line :: cur) :: rest | [] -> acc)
      [] lines
    |> List.rev_map List.rev

let complete a = match a.claim with Out_of_budget _ -> false | _ -> true

(* Makespan over the configuration's own lower bound (see
   {!Solve.lower_bound}). *)
let quality variant inst a = Q.to_float (Q.div a.makespan (lower_bound variant inst))

let check cfg inst a =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let expected =
    (Ccs.Instance.n inst, Ccs.Instance.m inst, Ccs.Instance.c inst,
     Ccs.Instance.num_classes inst)
  in
  let* () = if a.header = expected then Ok () else fail "header does not match the instance" in
  let* mk = Result.map_error (( ^ ) "invalid schedule: ") (validate inst a.schedule) in
  let* () =
    if Q.equal mk a.makespan then Ok ()
    else fail "printed makespan %s, validated %s" (Q.to_string a.makespan) (Q.to_string mk)
  in
  let* () =
    if Q.(mk >= lower_bound cfg.variant inst) then Ok ()
    else fail "makespan %s below the lower bound" (Q.to_string mk)
  in
  match (cfg.algo, a.claim) with
  | Approx, Approx_guess t ->
      if Q.(mk <= approx_ratio cfg.variant * t) then Ok ()
      else fail "makespan %s exceeds the approximation bound at T=%s" (Q.to_string mk)
             (Q.to_string t)
  | Ptas eps, Ptas_guess (d, t) ->
      if d <> ptas_d eps then fail "PTAS ran with delta=1/%d, not 1/%d" d (ptas_d eps)
      else if Q.(mk <= ptas_guarantee cfg.variant d t) then Ok ()
      else fail "makespan %s exceeds the PTAS guarantee at T=%s" (Q.to_string mk)
             (Q.to_string t)
  | Exact _, Optimum -> Ok ()
  | Exact _, Out_of_budget lb ->
      if Q.(lb <= mk) then Ok ()
      else fail "proven lower bound %s exceeds the incumbent %s" (Q.to_string lb)
             (Q.to_string mk)
  | _ -> fail "answer does not match the requested algorithm"
