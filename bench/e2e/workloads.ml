(* The four workloads. Sizes are fixed here. The seed picks the draws of
   the two approx workloads and relabels the fixed corpus of the other two,
   so the same seed always writes the same input files. *)

open Solve

type input = {
  file : string;
  inst : Ccs.Instance.t;  (** what the file holds, for checking answers *)
  bytes : int;  (** file size *)
}

type t = {
  name : string;
  configs : config list;
  build : seed:int -> dir:string -> input list list;
      (** writes the input files under [dir]; one ccs_solve invocation
          solves one batch *)
}

let write dir i text =
  let file = Filename.concat dir (Printf.sprintf "i%03d.ccs" i) in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
  (file, String.length text)

let save dir i inst =
  let file, bytes = write dir i (Ccs.Io.to_string inst) in
  { file; inst; bytes }

(* Independent generator seeds for the instances of one workload. *)
let seeds ~seed ~index = Ccs_util.Prng.stream ~seed ~index

let draw rng = Ccs_util.Prng.int rng 0x3fff_ffff

let approx3 format = List.map (fun variant -> { variant; algo = Approx; format }) [ Split; Pre; Np ]

(* n = 10^6 jobs, m = 10^5, C ~ 1.5 * 10^5, c = 3: the scale the
   near-linear 2-approximations exist for. *)
let xl_approx =
  let spec =
    { Ccs.Generator.n = 1_000_000; classes = 150_000; machines = 100_000; slots = 3;
      p_lo = 1; p_hi = 1000; family = Uniform }
  in
  { name = "xl-approx";
    configs = approx3 Flat;
    build =
      (fun ~seed ~dir ->
        let fl = Ccs.Generator.generate_flat ~seed:(draw (seeds ~seed ~index:0)) spec in
        let file, bytes = write dir 0 (Ccs.Io.to_string_flat fl) in
        [ [ { file; inst = Ccs.Instance.of_flat fl; bytes } ] ]) }

(* 40 cache-sized instances, n = 2k .. 50k, in four families with skewed
   class sizes, one invocation per variant over all of them on the record
   (--format text) path. *)
let batch_sizes =
  List.init 40 (fun i -> 2000 + int_of_float (48_000.0 *. ((float_of_int i /. 39.0) ** 6.0)))

let batch_approx =
  let families = Ccs.Generator.[| Uniform; Zipf; Heavy_classes; Large_jobs |] in
  { name = "batch-approx";
    configs = approx3 Text;
    build =
      (fun ~seed ~dir ->
        let rng = seeds ~seed ~index:1 in
        [ List.mapi
            (fun i n ->
              save dir i
                (Ccs.Generator.generate ~seed:(draw rng)
                   { n; classes = n / 5; machines = n / 10; slots = 3; p_lo = 1;
                     p_hi = 1000; family = families.(i mod 4) }))
            batch_sizes ]) }

(* The small-instance workloads solve a fixed corpus. How long a PTAS or
   the exact search takes on a random small instance varies up to 50x
   between draws of the same shape, so percentiles over a fresh draw per
   seed would mostly measure which draws a run got. The corpus is drawn
   once from [corpus_seed]; the run's seed then relabels every instance
   (job order and class ids), so each seed writes different input files of
   the same difficulty. *)
let corpus_seed = 2020

let relabel rng inst =
  let jobs = Array.init (Ccs.Instance.n inst) (Ccs.Instance.job inst) in
  Ccs_util.Prng.shuffle rng jobs;
  let names = Array.init (Ccs.Instance.num_classes inst) Fun.id in
  Ccs_util.Prng.shuffle rng names;
  Ccs.Instance.make ~machines:(Ccs.Instance.m inst) ~slots:(Ccs.Instance.c inst)
    (Array.to_list (Array.map (fun j -> (j.Ccs.Instance.p, names.(j.Ccs.Instance.cls))) jobs))

let corpus ~index ~seed ~dir specs =
  let draws = seeds ~seed:corpus_seed ~index and rng = seeds ~seed ~index in
  List.mapi
    (fun i spec ->
      let spec = spec draws in
      let inst = Ccs.Generator.generate ~seed:(draw draws) spec in
      [ save dir i (relabel rng inst) ])
    specs

(* PTAS instances with sizes drawn from continuous ranges: a grid of sizes
   leaves gaps in the rank order of the walls. *)
let ptas_small =
  let ptas variant eps = { variant; algo = Ptas eps; format = Text } in
  let spec rng =
    let n = Ccs_util.Prng.int_in rng 16 40 in
    let machines = Ccs_util.Prng.int_in rng 2 4 in
    let classes = min (3 * machines) (Ccs_util.Prng.int_in rng 4 8) in
    { Ccs.Generator.n; classes; machines; slots = 3; p_lo = 1; p_hi = 100; family = Uniform }
  in
  { name = "ptas-small";
    configs = [ ptas Split 0.5; ptas Pre 0.5; ptas Np 0.34 ];
    build = (fun ~seed ~dir -> corpus ~index:2 ~seed ~dir (List.init 34 (fun _ -> spec))) }

(* Near-perfect-partition instances for the exact search; the n = 26 ones
   exceed the node budget. *)
let exact_bnb =
  let spec n _ =
    { Ccs.Generator.n; classes = 4; machines = 4; slots = 2; p_lo = 1; p_hi = 100;
      family = Bnb_stress }
  in
  { name = "exact-bnb";
    configs = [ { variant = Np; algo = Exact 1_000_000; format = Text } ];
    build =
      (fun ~seed ~dir ->
        corpus ~index:3 ~seed ~dir
          (List.concat_map
             (fun (n, k) -> List.init k (fun _ -> spec n))
             [ (16, 8); (18, 8); (20, 8); (22, 4); (24, 4); (26, 2) ])) }

let all = [ xl_approx; batch_approx; ptas_small; exact_bnb ]

let find name = List.find_opt (fun w -> w.name = name) all
