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
   and the division-based overflow probe below are safe. *)

let[@inline] add_ovf a b =
  let s = a + b in
  (* overflow iff operands share a sign and the sum flipped it; a sum of
     exactly [min_int] is representable but banned from the small arm *)
  if (a >= 0 = (b >= 0) && s >= 0 <> (a >= 0)) || s = min_int then None else Some s

let[@inline] mul_ovf a b =
  if a = 0 || b = 0 then Some 0
  else
    let p = a * b in
    if p / b = a && p <> min_int then Some p else None

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)
let gcd_int a b = gcd_int (Stdlib.abs a) (Stdlib.abs b)

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
      else
        (* cross-multiplication; denominators positive *)
        match (mul_ovf an bd, mul_ovf bn ad) with
        | Some x, Some y ->
            hit ();
            Stdlib.compare x y
        | _ ->
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

(* a/b + c/d with g = gcd(b, d): num = a*(d/g) + c*(b/g) over lcm = b*(d/g);
   gcd(num, lcm) divides g, so one extra reduction by gcd(num, g) suffices. *)
let add a b =
  match (a, b) with
  | S (0, _), x | x, S (0, _) -> x
  | S (an, ad), S (bn, bd) -> (
      let g = gcd_int ad bd in
      let ad' = ad / g and bd' = bd / g in
      match (mul_ovf an bd', mul_ovf bn ad', mul_ovf ad bd') with
      | Some x, Some y, Some den -> (
          match add_ovf x y with
          | Some n ->
              hit ();
              if n = 0 then zero
              else
                let g2 = gcd_int n g in
                if g2 = 1 then S (n, den) else S (n / g2, den / g2)
          | None ->
              promoted ();
              add_big a b)
      | _ ->
          promoted ();
          add_big a b)
  | _ -> add_big a b

let sub a b = add a (neg b)

let mul_big a b =
  let an, ad = big_parts a and bn, bd = big_parts b in
  make (B.mul an bn) (B.mul ad bd)

(* (a/b)*(c/d) with cross-reduction g1 = gcd(a,d), g2 = gcd(c,b): the
   result (a/g1)(c/g2) / ((b/g2)(d/g1)) is already in lowest terms. *)
let mul a b =
  match (a, b) with
  | S (0, _), _ | _, S (0, _) -> zero
  | S (1, 1), x | x, S (1, 1) -> x
  | S (an, ad), S (bn, bd) -> (
      let g1 = gcd_int an bd and g2 = gcd_int bn ad in
      match (mul_ovf (an / g1) (bn / g2), mul_ovf (ad / g2) (bd / g1)) with
      | Some n, Some d ->
          hit ();
          S (n, d)
      | _ ->
          promoted ();
          mul_big a b)
  | _ -> mul_big a b

let div a b = mul a (inv b)

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
