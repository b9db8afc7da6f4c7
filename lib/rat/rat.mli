(** Exact rational numbers with a small-int fast path over {!Bigint}.

    Values are kept normalized: the denominator is positive and
    gcd(num, den) = 1, so structural equality coincides with numeric
    equality. Used for fractional makespan guesses (the borders [P_u/k] of
    Lemma 2), splittable/preemptive piece sizes, and the exact simplex.

    Representation: a rational whose numerator and denominator both fit a
    native [int] is stored unpacked as two immediates and operated on with
    overflow-checked native arithmetic; only when a checked operation would
    overflow does the value promote to the {!Bigint}-backed form. The
    canonical form is the small one — any big-form result that fits native
    ints demotes on construction — so the representation of a value is a
    function of the value alone and structural equality stays numeric.
    {!stats} reports how often the fast path was taken and how often an
    operation had to promote.

    A native-int operation allocates only its result. Overflow inside it
    is signalled by a local exception, and operands within 2^30 in
    magnitude skip the overflow probe altogether (no product of two, nor
    sum of two such products, can overflow). Shared denominators take one
    checked add, integer operands run no gcd and no division, and [div]
    by one returns its argument. These shortcuts
    change the cost of an operation, never its count: {!stats} still sees
    one small-path hit per operation completed on native ints, none for
    the zero and one short-circuits. *)

type t

val zero : t
val one : t
val minus_one : t

(** [make num den] normalizes; raises [Division_by_zero] on zero denominator. *)
val make : Bigint.t -> Bigint.t -> t

val of_bigint : Bigint.t -> t
val of_int : int -> t

(** [of_ints p q] is the rational p/q. *)
val of_ints : int -> int -> t

val num : t -> Bigint.t
val den : t -> Bigint.t

(** True when the value is held in the unpacked native-int form. Exposed
    for the promotion-boundary tests and {!stats} consumers; algorithmic
    code should never branch on it. *)
val is_small : t -> bool

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val abs : t -> t
val inv : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val min : t -> t -> t
val max : t -> t -> t

(** Largest integer <= t. *)
val floor : t -> Bigint.t

(** Smallest integer >= t. *)
val ceil : t -> Bigint.t

val to_float : t -> float

(** ["p/q"], or just ["p"] when integral. *)
val to_string : t -> string

(** [add_to_buffer buf q] appends [to_string q] to [buf]; a value with
    native-int parts is written digit by digit, with no intermediate
    string. *)
val add_to_buffer : Buffer.t -> t -> unit

(** Parses ["p"], ["p/q"] and decimal literals like ["3.25"]. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** Fast-path effectiveness counters, exact under any number of domains
    (each domain accumulates locally; [stats] sums). [small_hits] counts
    arithmetic/comparison operations completed entirely on native ints;
    [promotions] counts operations that started small but overflowed to the
    {!Bigint} path. Construction-time demotions are not counted. *)
type stats = { small_hits : int; promotions : int }

val stats : unit -> stats

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
