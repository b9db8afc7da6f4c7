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

    Whole job lines take a fast case: at a line start, a line
    {v job <blank>+ <digits> <blank>+ <digits> <blank>* [# comment] \n v}
    that lies inside the current chunk, where a blank is a space, tab, CR
    or form feed, each field is a plain run of at most 18 digits and p is
    positive, is read in one scan and stored directly. Every other line —
    a sign or prefix, a 19th digit, p = 0, a wrong field count, leading
    blanks, a line cut by the chunk's end — falls back to the byte-by-byte
    tokenizer from its first byte, which alone decides those inputs, so the
    fast case changes neither results, nor error messages, nor the
    [io.stream_tokens] count (3 tokens per job line on either path).

    The job arrays are sized once from the input's length when it has one
    (a regular file, or the string given to {!of_string}): [len / 8 + 1]
    entries, since the shortest job line, ["job 1 0\n"], is 8 bytes, and at
    most 2{^24} entries, beyond which they double. An input without a length
    (a pipe) starts at 1024 entries and doubles. The instance gets
    exact-length views of these arrays, not copies.

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
