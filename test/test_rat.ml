module Q = Rat
module B = Bigint

let q = Alcotest.testable Q.pp Q.equal
let check_q = Alcotest.check q

let test_normalization () =
  check_q "6/4 = 3/2" (Q.of_ints 3 2) (Q.of_ints 6 4);
  check_q "-6/-4 = 3/2" (Q.of_ints 3 2) (Q.of_ints (-6) (-4));
  check_q "6/-4 = -3/2" (Q.of_ints (-3) 2) (Q.of_ints 6 (-4));
  check_q "0/7 = 0" Q.zero (Q.of_ints 0 7);
  Alcotest.(check string) "den positive" "2" (B.to_string (Q.den (Q.of_ints 5 (-2)) |> B.neg |> B.neg));
  Alcotest.check_raises "x/0" Division_by_zero (fun () -> ignore (Q.of_ints 1 0))

let test_arith () =
  check_q "1/2 + 1/3" (Q.of_ints 5 6) (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "1/2 - 1/3" (Q.of_ints 1 6) (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "2/3 * 9/4" (Q.of_ints 3 2) (Q.mul (Q.of_ints 2 3) (Q.of_ints 9 4));
  check_q "(2/3) / (4/9)" (Q.of_ints 3 2) (Q.div (Q.of_ints 2 3) (Q.of_ints 4 9));
  check_q "neg" (Q.of_ints (-5) 6) (Q.neg (Q.of_ints 5 6));
  check_q "inv" (Q.of_ints (-2) 5) (Q.inv (Q.of_ints (-5) 2))

let test_floor_ceil () =
  let f s = B.to_int_exn (Q.floor (Q.of_string s)) in
  let c s = B.to_int_exn (Q.ceil (Q.of_string s)) in
  Alcotest.(check int) "floor 7/2" 3 (f "7/2");
  Alcotest.(check int) "ceil 7/2" 4 (c "7/2");
  Alcotest.(check int) "floor -7/2" (-4) (f "-7/2");
  Alcotest.(check int) "ceil -7/2" (-3) (c "-7/2");
  Alcotest.(check int) "floor 4" 4 (f "4");
  Alcotest.(check int) "ceil 4" 4 (c "4")

let test_strings () =
  check_q "parse int" (Q.of_int 17) (Q.of_string "17");
  check_q "parse frac" (Q.of_ints 22 7) (Q.of_string "22/7");
  check_q "parse decimal" (Q.of_ints 13 4) (Q.of_string "3.25");
  check_q "parse neg decimal" (Q.of_ints (-1) 8) (Q.of_string "-0.125");
  Alcotest.(check string) "print" "22/7" (Q.to_string (Q.of_ints 22 7));
  Alcotest.(check string) "print int" "-3" (Q.to_string (Q.of_int (-3)))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true Q.(of_ints 1 3 < of_ints 1 2);
  Alcotest.(check bool) "-1/3 > -1/2" true Q.(of_ints (-1) 3 > of_ints (-1) 2);
  Alcotest.(check bool) "eq across repr" true Q.(of_ints 2 4 = of_ints 1 2)

let arb =
  let gen =
    QCheck.Gen.(
      map2
        (fun p q -> Q.of_ints p (if q = 0 then 1 else q))
        (int_range (-10000) 10000) (int_range (-100) 100))
  in
  QCheck.make ~print:Q.to_string gen

let arb_nz =
  QCheck.make ~print:Q.to_string
    (QCheck.Gen.map
       (fun x -> if Q.is_zero x then Q.one else x)
       (QCheck.get_gen arb))

let props =
  [ QCheck.Test.make ~name:"field: a + (-a) = 0" ~count:500 arb (fun a ->
        Q.(equal (add a (neg a)) zero));
    QCheck.Test.make ~name:"field: a * inv a = 1" ~count:500 arb_nz (fun a ->
        Q.(equal (mul a (inv a)) one));
    QCheck.Test.make ~name:"distributivity" ~count:500 (QCheck.triple arb arb arb)
      (fun (a, b, c) -> Q.(equal (mul a (add b c)) (add (mul a b) (mul a c))));
    QCheck.Test.make ~name:"add assoc" ~count:500 (QCheck.triple arb arb arb)
      (fun (a, b, c) -> Q.(equal (add a (add b c)) (add (add a b) c)));
    QCheck.Test.make ~name:"floor <= x < floor+1" ~count:500 arb (fun a ->
        let f = Q.of_bigint (Q.floor a) in
        Q.(f <= a) && Q.(a < add f one));
    QCheck.Test.make ~name:"ceil-floor in {0,1}" ~count:500 arb (fun a ->
        let d = B.sub (Q.ceil a) (Q.floor a) in
        B.is_zero d || B.equal d B.one);
    QCheck.Test.make ~name:"string roundtrip" ~count:500 arb (fun a ->
        Q.equal a (Q.of_string (Q.to_string a)));
    QCheck.Test.make ~name:"compare consistent with sub" ~count:500
      (QCheck.pair arb arb) (fun (a, b) ->
        Q.compare a b = Q.sign (Q.sub a b));
    QCheck.Test.make ~name:"to_float approximates" ~count:500 arb (fun a ->
        let f = Q.to_float a in
        abs_float (f -. (B.to_float (Q.num a) /. B.to_float (Q.den a))) < 1e-9) ]

(* ---------- promotion-boundary properties ---------- *)

(* Integers clustered at the overflow frontiers of the unpacked small-int
   representation: max_int/2 (the add/sub guards), 2^30 (where operands
   stop being small enough to skip the overflow probe), 2^31 (where native
   products start overflowing on 64-bit), and max_int itself (~2^62). The
   fast path must agree bit-for-bit with arithmetic done wholly in Bigint,
   and every result must be in canonical form: small iff it fits. *)
let frontier =
  let open QCheck.Gen in
  let near base = map (fun d -> base + d) (int_range (-2) 2) in
  oneof
    [ near (max_int / 2); near (-(max_int / 2));
      near (1 lsl 30); near (-(1 lsl 30));
      near (1 lsl 31); near (-(1 lsl 31));
      near (max_int - 2); near (2 - max_int);
      map (fun x -> if x = 0 then 1 else x) (int_range (-5) 5) ]

let boundary_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "%d/%d" a b)
    QCheck.Gen.(pair frontier (map (fun b -> if b = 0 then 1 else b) frontier))

(* The small form excludes [min_int] components so that [neg]/[abs] can
   never overflow; "fits" means the open-ended range [-max_int, max_int]. *)
let fits b = match B.to_int_opt b with Some i -> i <> min_int | None -> false
let canonical z = Q.is_small z = (fits (Q.num z) && fits (Q.den z))

let print_pair (x, y) = Q.to_string x ^ ", " ^ Q.to_string y

(* Pairs over one shared denominator, 1 included, with both numerators and
   the denominator at the frontiers. Independent draws almost never share a
   denominator, and that is where add and sub take their own paths (one
   checked add, one gcd with the shared denominator, none for integers).
   Each numerator is stepped toward zero until it is coprime to the
   denominator, so the value keeps the drawn denominator. *)
let arb_shared =
  let rec gcd a b = if b = 0 then Stdlib.abs a else gcd b (a mod b) in
  let rec coprime n d =
    if gcd n d = 1 then n else coprime (if n > 0 then n - 1 else n + 1) d
  in
  let den = QCheck.Gen.(oneof [ return 1; map Stdlib.abs frontier ]) in
  QCheck.make ~print:print_pair
    QCheck.Gen.(
      map3
        (fun d a b -> (Q.of_ints (coprime a d) d, Q.of_ints (coprime b d) d))
        den frontier frontier)

(* Components anywhere from 2^30 to 2^31, either sign on the numerators.
   Below this band no product, nor any sum of two products, can overflow;
   within it a sum of two products crosses max_int, so this is where the
   test that lets an operation skip its overflow probe must hold. *)
let arb_band =
  let mag = QCheck.Gen.int_range ((1 lsl 30) - 2) ((1 lsl 31) + 2) in
  let num = QCheck.Gen.(map2 (fun neg x -> if neg then -x else x) bool mag) in
  QCheck.make ~print:print_pair
    QCheck.Gen.(
      map2
        (fun (a, b) (c, d) -> (Q.of_ints a b, Q.of_ints c d))
        (pair num mag) (pair num mag))

let boundary_props =
  let via_bigint op x y =
    let xn = Q.num x and xd = Q.den x and yn = Q.num y and yd = Q.den y in
    match op with
    | `Add -> Q.make (B.add (B.mul xn yd) (B.mul yn xd)) (B.mul xd yd)
    | `Sub -> Q.make (B.sub (B.mul xn yd) (B.mul yn xd)) (B.mul xd yd)
    | `Mul -> Q.make (B.mul xn yn) (B.mul xd yd)
    | `Div -> Q.make (B.mul xn yd) (B.mul xd yn)
  in
  let check_op op fast (x, y) =
    let z = fast x y in
    Q.equal z (via_bigint op x y) && canonical z
  in
  let arb2 =
    QCheck.pair boundary_pair boundary_pair
    |> QCheck.map (fun ((a, b), (c, d)) -> (Q.of_ints a b, Q.of_ints c d))
  in
  let ops name arb =
    [ QCheck.Test.make ~name:(name ^ " add = bigint add") ~count:400 arb
        (check_op `Add Q.add);
      QCheck.Test.make ~name:(name ^ " sub = bigint sub") ~count:400 arb
        (check_op `Sub Q.sub);
      QCheck.Test.make ~name:(name ^ " mul = bigint mul") ~count:400 arb
        (check_op `Mul Q.mul);
      QCheck.Test.make ~name:(name ^ " div = bigint div") ~count:400 arb (fun (x, y) ->
          Q.is_zero y || check_op `Div Q.div (x, y)) ]
  in
  ops "boundary" arb2
  @ [ QCheck.Test.make ~name:"boundary add_to_buffer = to_string" ~count:400 arb2
        (fun (x, y) ->
          List.for_all
            (fun z ->
              let buf = Buffer.create 16 in
              Q.add_to_buffer buf z;
              Buffer.contents buf = Q.to_string z)
            [ x; Q.neg y; Q.mul x y ]);
      QCheck.Test.make ~name:"boundary compare = bigint compare" ~count:400 arb2
        (fun (x, y) ->
          let ref_cmp =
            B.compare (B.mul (Q.num x) (Q.den y)) (B.mul (Q.num y) (Q.den x))
          in
          compare (Q.compare x y) 0 = compare ref_cmp 0);
      QCheck.Test.make ~name:"boundary sub = add neg" ~count:400 arb2 (fun (x, y) ->
          Q.equal (Q.sub x y) (Q.add x (Q.neg y))) ]
  @ ops "shared-denominator" arb_shared
  @ ops "2^30..2^31 band" arb_band

(* The counters count operations, not code paths: one small-path hit per
   operation completed on native ints, none for the zero and one
   short-circuits, and a promotion (with no hit) for an operation that
   overflows. *)
let test_counter_semantics () =
  let counts f =
    let s0 = Q.stats () in
    ignore (Sys.opaque_identity (f ()));
    let s1 = Q.stats () in
    (s1.Q.small_hits - s0.Q.small_hits, s1.Q.promotions - s0.Q.promotions)
  in
  let check name expected f = Alcotest.(check (pair int int)) name expected (counts f) in
  let half = Q.of_ints 1 2 and x = Q.of_ints 7 3 in
  check "1/2 + 1/2: one hit" (1, 0) (fun () -> Q.add half half);
  check "3 * 5: one hit" (1, 0) (fun () -> Q.mul (Q.of_int 3) (Q.of_int 5));
  check "0 + x: none" (0, 0) (fun () -> Q.add Q.zero x);
  check "x - 0: none" (0, 0) (fun () -> Q.sub x Q.zero);
  check "x * 1: none" (0, 0) (fun () -> Q.mul x Q.one);
  check "max_int + 1: one promotion, no hit" (0, 1) (fun () ->
      Q.add (Q.of_int max_int) Q.one);
  check_q "1/2 + 1/2 = 1" Q.one (Q.add half half);
  Alcotest.(check bool) "max_int + 1 left the small form" false
    (Q.is_small (Q.add (Q.of_int max_int) Q.one))

let test_ub_integral_magnitudes () =
  (* The magnitudes Bounds.ub_integral works with — up to n = 10^5 jobs of
     size up to 10^12, so sums near 10^17 and averages over up to 10^5
     machines — must stay entirely on the small-int path. A promotion here
     would put the makespan search's hottest numbers on the slow path. *)
  let before = (Q.stats ()).Q.promotions in
  let n = 100_000 and p = 1_000_000_000_000 in
  let total = ref Q.zero in
  for i = 1 to n do
    total := Q.add !total (Q.of_int (p - i))
  done;
  let avg = Q.div !total (Q.of_int n) in
  let bound = Q.add avg (Q.of_int p) in
  Alcotest.(check bool) "sum positive" true Q.(!total > zero);
  Alcotest.(check bool) "bound > avg" true Q.(bound > avg);
  Alcotest.(check bool) "sum stayed small-form" true (Q.is_small !total);
  Alcotest.(check bool) "avg stayed small-form" true (Q.is_small avg);
  Alcotest.(check int) "no promotions" 0 ((Q.stats ()).Q.promotions - before)

let () =
  Alcotest.run "rat"
    [ ( "unit",
        [ Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "ub_integral magnitudes stay small" `Quick
            test_ub_integral_magnitudes ] );
      ("properties", List.map QCheck_alcotest.to_alcotest (props @ boundary_props)) ]
