(** Leveled structured logging.

    Messages carry a severity, a text body and key-value fields, and are
    rendered either as aligned text or as one JSON object per line (JSONL).
    The continuation style makes disabled levels genuinely free: the
    closure passed to {!debug} & co. is only invoked after the level check,
    so neither the message nor its fields are ever materialized when the
    level is off — safe to sprinkle on hot paths like simplex pivots. *)

type level = Error | Warn | Info | Debug | Trace

type value = Int of int | Float of float | Str of string | Bool of bool

type field = string * value

(** Field constructors, e.g. [Log.int "pivots" 42]. *)
val int : string -> int -> field

val float : string -> float -> field
val str : string -> string -> field
val bool : string -> bool -> field

(** [None] disables logging entirely. Default: [Some Warn]. *)
val set_level : level option -> unit

val level : unit -> level option
val enabled : level -> bool

(** Accepts "off", "error", "warn", "info", "debug", "trace"
    (case-insensitive); [Error] lists the valid names. *)
val level_of_string : string -> (level option, string) result

val level_to_string : level -> string

type format = Text | Jsonl

(** Default [Text]. In [Jsonl] every line is
    [{"ts":seconds,"level":...,"msg":...,<fields>}]. *)
val set_format : format -> unit

(** Where complete lines (newline included) go. Default: stderr, flushed
    per line. The test-suite redirects into a [Buffer]. *)
val set_output : (string -> unit) -> unit

(** [msg lvl (fun m -> m ~fields:[...] "text")] — [m] may be applied at
    most once; it is never invoked when [lvl] is filtered out. *)
val msg : level -> ((?fields:field list -> string -> unit) -> unit) -> unit

val err : ((?fields:field list -> string -> unit) -> unit) -> unit
val warn : ((?fields:field list -> string -> unit) -> unit) -> unit
val info : ((?fields:field list -> string -> unit) -> unit) -> unit
val debug : ((?fields:field list -> string -> unit) -> unit) -> unit
val trace : ((?fields:field list -> string -> unit) -> unit) -> unit
