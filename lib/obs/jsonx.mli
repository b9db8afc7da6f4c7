(** Minimal JSON values for the observability layer: enough to emit the
    recorder's JSONL lines, Chrome trace events and metric dumps, and to
    parse them back in the test-suite. Kept dependency-free on purpose —
    the sealed environment has no JSON library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering. Strings are escaped per RFC 8259;
    non-finite floats become [null] (JSON has no representation for them). *)
val to_string : t -> string

(** Strict-enough parser for everything {!to_string} emits plus ordinary
    hand-written JSON. Returns [Error msg] with a position on malformed
    input. *)
val of_string : string -> (t, string) result

(** [member key j] looks up [key] in an [Obj], [None] otherwise. *)
val member : string -> t -> t option

(** [round_sig d x] rounds [x] to [d] significant decimal digits (identity
    on zero and non-finite values). Every emitter of measured floats —
    bench rows ([Bench_util.round9]), recorder events — goes through this
    so JSON files carry [1.20789991e-05], not 12 digits of clock noise. *)
val round_sig : int -> float -> float
