module B = Bigint

(* Invariants, both arms: den > 0 and gcd(num, den) = 1.
   [S (n, d)]: the canonical arm whenever both components fit a native
   [int]; neither component is [min_int] (so [abs]/[neg] cannot overflow).
   [Big (n, d)]: at least one component does not fit (or is [min_int]).
   Keeping the small arm canonical makes structural equality numeric. *)
type t = S of int * int | Big of B.t * B.t

(* ---- fast-path effectiveness counters (exact under domains) ---- *)

type stats = { small_hits : int; promotions : int }

type cell = { mutable hits : int; mutable promos : int }

let cells : cell list ref = ref []
let cells_mu = Mutex.create ()

let cell_key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = { hits = 0; promos = 0 } in
      Mutex.lock cells_mu;
      cells := c :: !cells;
      Mutex.unlock cells_mu;
      c)

let hit () =
  let c = Domain.DLS.get cell_key in
  c.hits <- Stdlib.( + ) c.hits 1

let promoted () =
  let c = Domain.DLS.get cell_key in
  c.promos <- Stdlib.( + ) c.promos 1

let stats () =
  Mutex.lock cells_mu;
  let cs = !cells in
  Mutex.unlock cells_mu;
  List.fold_left
    (fun acc c ->
      { small_hits = acc.small_hits + c.hits; promotions = acc.promotions + c.promos })
    { small_hits = 0; promotions = 0 }
    cs

(* ---- checked native-int helpers ---- *)

(* All int components are normalized away from [min_int], so [abs], [neg]
   and the division-based overflow probe below are safe. A checked helper
   signals overflow by raising [Overflow]; the operation catches it, counts
   a promotion and redoes itself on Bigint. An exception rather than an
   [option] keeps a small-path operation down to one allocation: its
   result. *)
exception Overflow

let[@inline] add_ovf a b =
  let s = a + b in
  (* overflow iff operands share a sign and the sum flipped it; a sum of
     exactly [min_int] is representable but banned from the small arm *)
  if (a >= 0 = (b >= 0) && s >= 0 <> (a >= 0)) || s = min_int then
    raise_notrace Overflow
  else s

let[@inline] mul_ovf a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b = a && p <> min_int then p else raise_notrace Overflow

(* True when each argument lies in [-2^30, 2^30): [x + 2^30] is then in
   [0, 2^31), and or-ing the shifted values tests all of them at once. Two
   such components multiply to at most 2^60 in magnitude and a sum of two
   such products stays within 2^61 < max_int, so the product or sum needs
   no overflow probe. *)
let[@inline] below_2_30 a b c d =
  let h = 1 lsl 30 in
  ((a + h) lor (b + h) lor (c + h) lor (d + h)) lsr 31 = 0

let rec gcd_pos a b = if b = 0 then a else gcd_pos b (a mod b)
let gcd_int a b = if a = 1 || b = 1 then 1 else gcd_pos (Stdlib.abs a) (Stdlib.abs b)

(* [a / g] for a divisor [g] of [a], without the division when [g] = 1 *)
let[@inline] div_by a g = if g = 1 then a else a / g

(* ---- constructors ---- *)

let zero = S (0, 1)
let one = S (1, 1)
let minus_one = S (-1, 1)

(* (n, d) arbitrary ints, d <> 0: reduce, fix signs, build small. *)
let small_of_raw n d =
  if n = 0 then zero
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = gcd_int n d in
    if g = 1 then S (n, d) else S (n / g, d / g)
  end

(* Demote a normalized big pair when both components fit native ints. *)
let of_normalized_big n d =
  match (B.to_int_opt n, B.to_int_opt d) with
  | Some sn, Some sd when sn <> min_int && sd <> min_int -> S (sn, sd)
  | _ -> Big (n, d)

let make num den =
  if B.is_zero den then raise Division_by_zero
  else if B.is_zero num then zero
  else begin
    let num, den = if B.sign den < 0 then (B.neg num, B.neg den) else (num, den) in
    let g = B.gcd num den in
    let num, den = if B.equal g B.one then (num, den) else (B.div num g, B.div den g) in
    of_normalized_big num den
  end

let of_bigint n = of_normalized_big n B.one
let of_int n = if n = min_int then Big (B.of_int n, B.one) else S (n, 1)

let of_ints p q =
  if q = 0 then raise Division_by_zero
  else if p = min_int || q = min_int then make (B.of_int p) (B.of_int q)
  else small_of_raw p q

let num = function S (n, _) -> B.of_int n | Big (n, _) -> n
let den = function S (_, d) -> B.of_int d | Big (_, d) -> d
let is_small = function S _ -> true | Big _ -> false

(* The big path for a binary op: lift both operands, compute with Bigint,
   demote if the normalized result fits. *)
let big_parts = function
  | S (n, d) -> (B.of_int n, B.of_int d)
  | Big (n, d) -> (n, d)

let sign = function S (n, _) -> Stdlib.compare n 0 | Big (n, _) -> B.sign n
let is_zero = function S (n, _) -> n = 0 | Big _ -> false
let is_integer = function S (_, d) -> d = 1 | Big (_, d) -> B.equal d B.one

(* Canonical representation: structural comparison per arm, arms disjoint. *)
let equal a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> an = bn && ad = bd
  | Big (an, ad), Big (bn, bd) -> B.equal an bn && B.equal ad bd
  | S _, Big _ | Big _, S _ -> false

let compare_big a b =
  let an, ad = big_parts a and bn, bd = big_parts b in
  B.compare (B.mul an bd) (B.mul bn ad)

let compare a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> (
      if ad = bd then begin
        hit ();
        Stdlib.compare an bn
      end
      else if below_2_30 an bn ad bd then begin
        hit ();
        Stdlib.compare (an * bd) (bn * ad)
      end
      else
        (* cross-multiplication; denominators positive *)
        match Stdlib.compare (mul_ovf an bd) (mul_ovf bn ad) with
        | c ->
            hit ();
            c
        | exception Overflow ->
            promoted ();
            compare_big a b)
  | _ -> compare_big a b

let neg = function
  | S (n, d) -> S (-n, d)
  | Big (n, d) -> of_normalized_big (B.neg n) d

let abs = function
  | S (n, d) -> S (Stdlib.abs n, d)
  | Big (n, d) -> of_normalized_big (B.abs n) d

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n < 0 then S (-d, -n) else S (d, n)
  | Big (n, d) ->
      if B.sign n < 0 then of_normalized_big (B.neg d) (B.neg n)
      else of_normalized_big d n

let add_big a b =
  let an, ad = big_parts a and bn, bd = big_parts b in
  if B.equal ad bd then make (B.add an bn) ad
  else make (B.add (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)

(* an/ad + bn/bd on native ints, canonical; raises [Overflow] exactly
   when one of the general formula's products or its sum does not fit. *)
let small_sum an ad bn bd =
  if ad = bd then begin
    (* one shared denominator: the sum of the numerators, reduced by its
       gcd with the denominator (none for integers) *)
    let n = add_ovf an bn in
    if n = 0 then zero
    else if ad = 1 then S (n, 1)
    else
      let g = gcd_int n ad in
      S (div_by n g, div_by ad g)
  end
  else begin
    (* a/b + c/d with g = gcd(b, d): num = a*(d/g) + c*(b/g) over lcm = b*(d/g);
       gcd(num, lcm) divides g, so one extra reduction by gcd(num, g) suffices. *)
    let g = gcd_int ad bd in
    let ad' = div_by ad g and bd' = div_by bd g in
    let fits = below_2_30 an bn ad bd in
    let n =
      if fits then (an * bd') + (bn * ad') else add_ovf (mul_ovf an bd') (mul_ovf bn ad')
    in
    let den = if fits then ad * bd' else mul_ovf ad bd' in
    if n = 0 then zero
    else
      let g2 = gcd_int n g in
      S (div_by n g2, div_by den g2)
  end

let add a b =
  match (a, b) with
  | S (0, _), x | x, S (0, _) -> x
  | S (an, ad), S (bn, bd) -> (
      match small_sum an ad bn bd with
      | q ->
          hit ();
          q
      | exception Overflow ->
          promoted ();
          add_big a b)
  | _ -> add_big a b

(* a - b is a + (-b) with the negation on the int component: -bn cannot
   overflow, and no [-b] value is allocated *)
let sub a b =
  match (a, b) with
  | S (0, _), _ -> neg b
  | _, S (0, _) -> a
  | S (an, ad), S (bn, bd) -> (
      match small_sum an ad (-bn) bd with
      | q ->
          hit ();
          q
      | exception Overflow ->
          promoted ();
          add_big a (neg b))
  | _ -> add_big a (neg b)

let mul_big a b =
  let an, ad = big_parts a and bn, bd = big_parts b in
  make (B.mul an bn) (B.mul ad bd)

(* (a/b)*(c/d) with cross-reduction g1 = gcd(a,d), g2 = gcd(c,b): the
   result (a/g1)(c/g2) / ((b/g2)(d/g1)) is already in lowest terms. Two
   integers below 2^30 are one multiply: no gcd, no probe. Raises
   [Overflow] exactly when one of the two reduced products does not fit. *)
let small_prod an ad bn bd =
  if ad = 1 && bd = 1 && below_2_30 an bn 0 0 then S (an * bn, 1)
  else
    let g1 = gcd_int an bd and g2 = gcd_int bn ad in
    let an = div_by an g1 and bd = div_by bd g1 in
    let bn = div_by bn g2 and ad = div_by ad g2 in
    if below_2_30 an bn ad bd then S (an * bn, ad * bd)
    else S (mul_ovf an bn, mul_ovf ad bd)

let mul a b =
  match (a, b) with
  | S (0, _), _ | _, S (0, _) -> zero
  | S (1, 1), x | x, S (1, 1) -> x
  | S (an, ad), S (bn, bd) -> (
      match small_prod an ad bn bd with
      | q ->
          hit ();
          q
      | exception Overflow ->
          promoted ();
          mul_big a b)
  | _ -> mul_big a b

let div a b = match b with S (1, 1) -> a | _ -> mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor = function
  | S (n, d) ->
      (* floor division on ints; d > 0 *)
      let q = if n >= 0 || n mod d = 0 then n / d else (n / d) - 1 in
      B.of_int q
  | Big (n, d) -> B.fdiv n d

let ceil = function
  | S (n, d) ->
      let q = if n <= 0 || n mod d = 0 then n / d else (n / d) + 1 in
      B.of_int q
  | Big (n, d) -> B.cdiv n d

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | Big (n, d) -> B.to_float n /. B.to_float d

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Big (n, d) ->
      if B.equal d B.one then B.to_string n else B.to_string n ^ "/" ^ B.to_string d

let of_string s =
  let s = String.trim s in
  match String.index_opt s '/' with
  | Some i ->
      let p = B.of_string (String.sub s 0 i) in
      let q = B.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make p q
  | None -> (
      match String.index_opt s '.' with
      | None -> of_bigint (B.of_string s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac = String.sub s (i + 1) (String.length s - i - 1) in
          let negative = String.length int_part > 0 && int_part.[0] = '-' in
          let whole = if int_part = "" || int_part = "-" then B.zero else B.of_string int_part in
          let scale = B.pow (B.of_int 10) (String.length frac) in
          let frac_v = if frac = "" then B.zero else B.of_string frac in
          let mag = B.add (B.mul (B.abs whole) scale) frac_v in
          make (if negative then B.neg mag else mag) scale)

(* decimal digits of a non-negative int; no closure, so nothing allocates *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_to_buffer buf = function
  | S (n, d) ->
      if n < 0 then Buffer.add_char buf '-';
      add_digits buf (Stdlib.abs n);
      if d <> 1 then begin
        Buffer.add_char buf '/';
        add_digits buf d
      end
  | Big _ as q -> Buffer.add_string buf (to_string q)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
