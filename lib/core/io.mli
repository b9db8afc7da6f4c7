(** Instance serialization, for the CLI tools and examples.

    Text format (one token group per line, '#' comments allowed):
    {v
      ccs 1
      machines <m>
      slots <c>
      job <p> <class>
      ...
    v}

    Both text front-ends — {!of_string} and the channel loaders — run the
    same incremental tokenizer, so they accept exactly the same inputs and
    report exactly the same errors. The streaming path never materializes
    the whole file: bytes are consumed in fixed-size chunks, and a job line
    is read in place — plain decimal fields are summed up byte by byte and
    land directly in the job arrays, with no string or option allocated.
    Fields of any other shape (signs, [0x] prefixes, underscores, more than
    18 digits) are parsed by [int_of_string_opt]. A total processing time
    above [max_int] is rejected with an error, like any malformed input.

    There is also a binary flat format (magic ["ccsb1\n"], int64
    little-endian header [n, machines, slots] followed by the [p] and [cls]
    arrays) that loads a million-job instance with two bulk reads. {!load}
    auto-detects the format by sniffing the magic. *)

val to_string : Instance.t -> string

(** {!to_string} under the name [bench/e2e] calls. *)
val to_string_flat : Instance.t -> string

(** Parse text. [chunk] (default 64 KiB) sets the tokenizer's buffer
    size — tests use tiny chunks to exercise tokens split across
    boundaries. *)
val of_string : ?chunk:int -> string -> (Instance.t, string) result

(** Stream an instance from an open channel, auto-detecting binary vs text
    by the leading magic. The channel must be in binary mode. *)
val parse_channel : ?chunk:int -> in_channel -> (Instance.t, string) result

(** Read an instance file. An [Error] message that comes from the file
    system starts with the path. *)
val load : string -> (Instance.t, string) result

(** {!load}, kept only because [bench/e2e] still calls it; it goes when
    that harness next changes. *)
val load_flat : string -> (Instance.t, string) result

val save : string -> Instance.t -> unit

(** Write the binary flat format. *)
val save_flat : string -> Instance.t -> unit
