(* Streaming parser, instance construction, binary format, and the
   2-approximation cores against their list-based references: the
   tokenizer must be invariant under chunking (every token boundary
   exercised), with the same results AND error messages, and each
   production core must be bit-identical to [Approx_ref]. *)

module I = Ccs.Instance
module S = Ccs.Schedule
module Io = Ccs.Io
module G = Ccs.Generator
module Q = Rat

let inst_equal a b =
  I.n a = I.n b && I.m a = I.m b && I.c a = I.c b
  && I.num_classes a = I.num_classes b
  &&
  let ok = ref true in
  for i = 0 to I.n a - 1 do
    if I.job_p a i <> I.job_p b i || I.job_cls a i <> I.job_cls b i then ok := false
  done;
  !ok

(* results agree exactly: same Ok instance or same Error string *)
let parse_agree r1 r2 =
  match (r1, r2) with
  | Ok a, Ok b -> inst_equal a b
  | Error e1, Error e2 -> String.equal e1 e2
  | _ -> false

let canonical = "ccs 1\nmachines 31\nslots 2\njob 128 10\njob 7 3\njob 3000 10\n"

let test_chunk_boundaries () =
  let want =
    match Io.of_string canonical with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun chunk ->
      match Io.of_string ~chunk canonical with
      | Ok f ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d equals default" chunk)
            true (inst_equal want f)
      | Error e -> Alcotest.fail (Printf.sprintf "chunk %d: %s" chunk e))
    [ 1; 2; 3; 5; 7; 13; 64 ]

let test_crlf_tab_runs () =
  (* runs of every separator the old parser treated as blank: space, tab,
     CR (also mid-line), form feed — plus comments *)
  let s = "ccs \t\t 1\r\nmachines\t\t31\r\r\nslots \012 2\n# c\r\njob\t128 \t 10\r\n" in
  (match Io.of_string ~chunk:3 s with
  | Ok f ->
      Alcotest.(check int) "n" 1 (I.n f);
      Alcotest.(check int) "m" 31 (I.m f);
      Alcotest.(check int) "p" 128 (I.job_p f 0)
  | Error e -> Alcotest.fail e);
  (* a blank-only line is skipped without consuming a job *)
  match Io.of_string "ccs 1\nmachines 2\nslots 1\n \t \njob 4 0\n" with
  | Ok f -> Alcotest.(check int) "blank line skipped" 1 (I.n f)
  | Error e -> Alcotest.fail e

let test_truncated_final_record () =
  (* missing the class field on the last line, no trailing newline: the
     finish flush must still dispatch (and reject) the partial record —
     two tokens fall through to the header dispatch, like the old parser *)
  (match Io.of_string "ccs 1\nmachines 2\nslots 2\njob 3" with
  | Error e -> Alcotest.(check string) "truncated job" "line 4: unrecognized line" e
  | Ok _ -> Alcotest.fail "truncated job line accepted");
  (match Io.of_string "ccs 1\nmachines 2\nslots 2\njob 3 x" with
  | Error e -> Alcotest.(check string) "bad class token" "line 4: bad job line" e
  | Ok _ -> Alcotest.fail "non-numeric class accepted");
  (* a complete final record without a trailing newline is fine *)
  (match Io.of_string "ccs 1\nmachines 2\nslots 2\njob 3 1" with
  | Ok f -> Alcotest.(check int) "no trailing newline" 1 (I.n f)
  | Error e -> Alcotest.fail e);
  (* header only: the end checks fire in declaration order *)
  match Io.of_string "ccs 1\nmachines 2\nslots 2\n" with
  | Error e -> Alcotest.(check string) "no jobs" "no jobs" e
  | Ok _ -> Alcotest.fail "empty job list accepted"

let test_huge_processing_times () =
  let p12 = 1_000_000_000_000 in
  let s = Printf.sprintf "ccs 1\nmachines 2\nslots 2\njob %d 0\njob %d 1\n" p12 (p12 - 1) in
  match Io.of_string ~chunk:7 s with
  | Ok f ->
      Alcotest.(check int) "p exact at 10^12" p12 (I.job_p f 0);
      Alcotest.(check int) "total load exact" (p12 + (p12 - 1)) (I.total_load f);
      Alcotest.(check int) "pmax" p12 (I.pmax f)
  | Error e -> Alcotest.fail e

(* Numeric token shapes in both job fields: the in-place digit path and
   its [int_of_string_opt] fallback must agree with that function on every
   shape, whole or cut by a chunk boundary. *)
let numeric_tokens =
  [ "007"; "+5"; "-0"; "-3"; "0x1f"; "0o17"; "0b101"; "1_000"; "12a";
    "123456789012345678"; "4611686018427387903"; "4611686018427387904";
    (* 19 nines: summed in native ints it would wrap to a positive value *)
    String.make 19 '9'; String.make 24 '0' ^ "1" ]

let test_numeric_token_shapes () =
  let header = "ccs 1\nmachines 3\nslots 2\n" in
  let check_parse label text expect =
    List.iter
      (fun chunk ->
        let label = Printf.sprintf "%s, chunk %s" label
            (match chunk with Some c -> string_of_int c | None -> "default") in
        match (Io.of_string ?chunk text, expect) with
        | Ok f, Ok check -> check label f
        | Error e, Error want -> Alcotest.(check string) label want e
        | Ok _, Error want -> Alcotest.fail (label ^ ": accepted, want " ^ want)
        | Error e, Ok _ -> Alcotest.fail (label ^ ": rejected: " ^ e))
      [ Some 1; Some 2; Some 3; Some 5; None ]
  in
  let bad = Error "line 4: bad job line" in
  List.iter
    (fun tok ->
      let v = int_of_string_opt tok in
      (* p field: the parsed value is the processing time *)
      check_parse (Printf.sprintf "p %S" tok)
        (Printf.sprintf "%sjob %s 0\n" header tok)
        (match v with
        | Some v when v > 0 ->
            Ok (fun label f -> Alcotest.(check int) label v (I.job_p f 0))
        | _ -> bad);
      (* class field: a second job names the expected value in plain
         decimal, so one class means the two ids parsed equal *)
      check_parse (Printf.sprintf "class %S" tok)
        (Printf.sprintf "%sjob 5 %s\njob 7 %d\n" header tok (Option.value v ~default:0))
        (match v with
        | Some v when v >= 0 ->
            Ok (fun label f -> Alcotest.(check int) label 1 (I.num_classes f))
        | _ -> bad))
    numeric_tokens

(* [job] is matched byte for byte; near misses are not job lines *)
let test_job_keyword () =
  List.iter
    (fun kw ->
      List.iter
        (fun chunk ->
          let text = Printf.sprintf "ccs 1\nmachines 3\nslots 2\n%s 5 0\n" kw in
          match Io.of_string ?chunk text with
          | Error e -> Alcotest.(check string) kw "line 4: unrecognized line" e
          | Ok _ -> Alcotest.fail (kw ^ " accepted as a job line"))
        [ Some 1; Some 2; Some 3; None ])
    [ "jo"; "jox"; "joc"; "Job"; "jobs"; "ajob" ]

let test_chunk_validation () =
  match Io.of_string ~chunk:0 canonical with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk 0 accepted"

let with_temp f =
  let path = Filename.temp_file "ccs_test_stream" ".ccsb" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_binary_roundtrip () =
  let inst =
    match Io.of_string canonical with Ok f -> f | Error e -> Alcotest.fail e
  in
  with_temp (fun path ->
      Io.save_flat path inst;
      match Io.load path with
      | Ok f -> Alcotest.(check bool) "binary roundtrip" true (inst_equal inst f)
      | Error e -> Alcotest.fail e)

let test_binary_errors () =
  (* a ccsb1 magic followed by garbage must report, not crash; and a text
     file through load must fall back to the text parser *)
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "ccsb1\n\001\002");
      (match Io.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated binary accepted");
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc canonical);
      (match Io.load path with
      | Ok f -> Alcotest.(check int) "text via load" 3 (I.n f)
      | Error e -> Alcotest.fail e));
  match Io.load "/nonexistent/ccs_test_stream.ccsb" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonexistent path accepted"

(* near-grammar fragments: chunked re-parsing must agree with the default
   on both accepts and rejects, with identical error strings *)
let grammar_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 14)
         (oneofl
            [ "ccs 1\n"; "ccs"; "machines "; "machines 3\n"; "slots 2\n"; "slots ";
              "job "; "job 5 0\n"; "job 5\n"; "12 3"; "#c\n"; "\r\n"; "\t"; " ";
              "\n"; "9"; "0 "; "1000000000000 "; "x"; "job 1000000000000 1\n";
              "job 007 +5\n"; "job 1_000 0x1f\n"; "job 5 -0\n"; "job -3 1\n";
              "0o17 "; "0b101 "; "12a "; "123456789012345678 ";
              "4611686018427387903 "; "4611686018427387904 "; "9999999999999999999 ";
              "0000000000000000000000001 " ])))

let prop_chunking_invariant =
  QCheck.Test.make ~name:"chunked parses agree with default (incl. errors)"
    ~count:500
    (QCheck.make grammar_gen ~print:(fun s -> s))
    (fun s ->
      let d = Io.of_string s in
      parse_agree d (Io.of_string ~chunk:1 s)
      && parse_agree d (Io.of_string ~chunk:3 s))

let spec_of_seed seed =
  {
    G.n = 1 + (seed mod 60);
    classes = 1 + (seed mod 5);
    machines = 2 + (seed mod 6);
    slots = 1 + (seed mod 3);
    p_lo = 1;
    p_hi = 50;
    family =
      (match seed mod 4 with
      | 0 -> G.Uniform
      | 1 -> Zipf
      | 2 -> Heavy_classes
      | _ -> Large_jobs);
  }

(* Class ids drawn dense (below n), on the array/[Hashtbl] boundary
   (largest id 2n-1 or 2n) and sparse (up to max_int): the constructor
   must number them as the model below does, the distinct ids in
   ascending order. *)
let class_ids_gen =
  QCheck.Gen.(
    int_range 1 40 >>= fun n ->
    int_range 0 3 >>= fun shape ->
    let bound, top =
      match shape with
      | 0 -> (n - 1, None)
      | 1 -> ((2 * n) - 1, Some ((2 * n) - 1))
      | 2 -> (2 * n, Some (2 * n))
      | _ -> (max_int, None)
    in
    array_size (return n) (int_range 0 bound) >>= fun ids ->
    int_range 0 (n - 1) >|= fun at ->
    Option.iter (fun top -> ids.(at) <- top) top;
    ids)

let prop_renumber_matches_make =
  QCheck.Test.make ~name:"Flat.of_arrays numbers classes like Instance.make" ~count:500
    (QCheck.make class_ids_gen ~print:QCheck.Print.(array int))
    (fun ids ->
      let n = Array.length ids in
      let inst =
        I.of_arrays ~machines:2 ~slots:2 ~p:(Array.make n 1) ~cls:(Array.copy ids)
      in
      (* the model: a [Set] of the ids, numbered in its order *)
      let module IS = Set.Make (Int) in
      let used = Array.fold_left (fun acc u -> IS.add u acc) IS.empty ids in
      let mapping = Hashtbl.create 16 in
      IS.iter (fun u -> Hashtbl.replace mapping u (Hashtbl.length mapping)) used;
      I.num_classes inst = IS.cardinal used
      && List.for_all
           (fun i -> I.job_cls inst i = Hashtbl.find mapping ids.(i))
           (List.init n Fun.id))

let prop_text_roundtrip_flat =
  QCheck.Test.make ~name:"to_string_flat streams back identically" ~count:200
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = G.generate ~seed (spec_of_seed seed) in
      match Io.of_string ~chunk:11 (Io.to_string inst) with
      | Ok f -> inst_equal inst f
      | Error _ -> false)

(* bit-identity of the production cores against the list references *)

let splittable_equal (a : S.splittable) (b : S.splittable) =
  List.length a.S.blocks = List.length b.S.blocks
  && List.for_all2
       (fun (x : S.block) (y : S.block) ->
         x.S.cls = y.S.cls && x.m_start = y.m_start && x.m_count = y.m_count
         && Q.equal x.per_machine y.per_machine)
       a.S.blocks b.S.blocks
  && List.length a.S.explicit_machines = List.length b.S.explicit_machines
  && List.for_all2
       (fun (ma, la) (mb, lb) ->
         ma = mb
         && List.length la = List.length lb
         && List.for_all2
              (fun (ca, qa) (cb, qb) -> ca = cb && Q.equal qa qb)
              la lb)
       a.S.explicit_machines b.S.explicit_machines

let preemptive_equal (a : S.preemptive) (b : S.preemptive) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun la lb ->
         List.length la = List.length lb
         && List.for_all2
              (fun (x : S.ppiece) (y : S.ppiece) ->
                x.S.pjob = y.S.pjob && Q.equal x.start y.start && Q.equal x.len y.len)
              la lb)
       a b

(* The production cores against [Approx_ref] on one instance, schedules
   and stats, for all three variants, and the non-preemptive one at all
   four settings of its A2/A3 switches. The property names keep the
   historical core names: the production cores are the former flat cores
   ([solve_flat]), the references the former record cores ([solve]). *)
let solves_identical inst =
  let s_ref, st_ref = Approx_ref.splittable inst in
  let s_prod, st_prod = Ccs.Approx.Splittable.solve inst in
  let p_ref, pt_ref = Approx_ref.preemptive inst in
  let p_prod, pt_prod = Ccs.Approx.Preemptive.solve inst in
  splittable_equal s_ref s_prod
  && Q.equal st_ref.Ccs.Approx.Splittable.t_guess st_prod.Ccs.Approx.Splittable.t_guess
  && st_ref.probes = st_prod.probes
  && st_ref.full_slices = st_prod.full_slices
  && preemptive_equal p_ref p_prod
  && Q.equal pt_ref.Ccs.Approx.Preemptive.t_guess pt_prod.Ccs.Approx.Preemptive.t_guess
  && pt_ref.probes = pt_prod.probes
  && pt_ref.repacked = pt_prod.repacked
  && List.for_all
       (fun (area_only, input_order) ->
         let counter =
           if area_only then Ccs.Approx.Nonpreemptive.cu_area_only
           else Ccs.Approx.Nonpreemptive.cu
         in
         Approx_ref.nonpreemptive ~counter ~use_lpt:(not input_order) inst
         = Ccs.Approx.Nonpreemptive.solve_ablation ~area_only ~input_order inst)
       [ (false, false); (true, false); (false, true); (true, true) ]

let prop_solve_flat_bit_identical =
  QCheck.Test.make ~name:"solve_flat bit-identical to solve (all variants)"
    ~count:150
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = G.generate ~seed (spec_of_seed seed) in
      if not (I.schedulable inst) then true else solves_identical inst)

(* Wider draws than [spec_of_seed]: m from 2 to 10^6, so most machines get
   nothing and, at the low end, there are fewer machines than sub-class
   items; classes of up to 100 jobs; sizes up to 2^40, whose borders P_u/k
   give guesses T with a denominator above 1, or up to 50, which tie. *)
let wide_instance seed =
  let rng = Ccs_util.Prng.create seed in
  let int_in = Ccs_util.Prng.int_in rng in
  let classes = int_in 1 8 in
  let p_hi = if Ccs_util.Prng.bool rng then 50 else 1 lsl 40 in
  let jobs =
    List.concat
      (List.init classes (fun u ->
           let size = int_in 1 (if Ccs_util.Prng.bool rng then 100 else 8) in
           List.init size (fun _ -> (int_in 1 p_hi, u))))
  in
  let slots = int_in 1 3 in
  let machines = max ((classes + slots - 1) / slots) (int_in 2 (int_of_float (10.0 ** float_of_int (int_in 1 6)))) in
  I.make ~machines ~slots jobs

let prop_solve_flat_bit_identical_wide =
  QCheck.Test.make ~name:"solve_flat bit-identical to solve (wide draws)" ~count:300
    (QCheck.int_range 0 1_000_000) (fun seed ->
      solves_identical (wide_instance seed))

let prop_binary_roundtrip_random =
  QCheck.Test.make ~name:"save_flat/load_flat roundtrip" ~count:50
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let inst = G.generate ~seed (spec_of_seed seed) in
      with_temp (fun path ->
          Io.save_flat path inst;
          match Io.load path with Ok f -> inst_equal inst f | Error _ -> false))

let () =
  Alcotest.run "stream"
    [ ( "tokenizer",
        [ Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "CRLF / tab runs" `Quick test_crlf_tab_runs;
          Alcotest.test_case "truncated final record" `Quick test_truncated_final_record;
          Alcotest.test_case "10^12 processing times" `Quick test_huge_processing_times;
          Alcotest.test_case "numeric token shapes" `Quick test_numeric_token_shapes;
          Alcotest.test_case "job keyword" `Quick test_job_keyword;
          Alcotest.test_case "chunk validation" `Quick test_chunk_validation ] );
      ( "binary",
        [ Alcotest.test_case "roundtrip" `Quick test_binary_roundtrip;
          Alcotest.test_case "errors + text fallback" `Quick test_binary_errors ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_chunking_invariant; prop_renumber_matches_make; prop_text_roundtrip_flat;
            prop_solve_flat_bit_identical; prop_solve_flat_bit_identical_wide;
            prop_binary_roundtrip_random ] ) ]
