module A1 = Bigarray.Array1

let m_stream_bytes =
  Ccs_obs.Metrics.counter "io.stream_bytes"
    ~help:"Bytes consumed by the streaming instance tokenizer"

let m_stream_tokens =
  Ccs_obs.Metrics.counter "io.stream_tokens"
    ~help:"Tokens produced by the streaming instance tokenizer"

let m_flat_loads =
  Ccs_obs.Metrics.counter "io.flat_loads"
    ~help:"Instances parsed in binary flat format"

let to_string inst =
  let buf = Buffer.create (32 + (16 * Instance.n inst)) in
  Buffer.add_string buf "ccs 1\n";
  Buffer.add_string buf (Printf.sprintf "machines %d\n" (Instance.m inst));
  Buffer.add_string buf (Printf.sprintf "slots %d\n" (Instance.c inst));
  for i = 0 to Instance.n inst - 1 do
    Buffer.add_string buf
      (Printf.sprintf "job %d %d\n" (Instance.job_p inst i) (Instance.job_cls inst i))
  done;
  Buffer.contents buf

(* the name bench/e2e calls; see io.mli *)
let to_string_flat = to_string

(* ---------------- streaming text parser ----------------

   One incremental tokenizer feeds both front-ends ([of_string] and the
   channel loaders), so the two parse byte-for-byte identically: fields
   separated by any blank run (space, tab, CR, form feed — files written on
   Windows or exported from spreadsheets parse the same as space-separated
   ones), '#' comments to end of line, at most one directive per line.
   Chunks arrive through a [read] callback; a token split across chunk
   boundaries accumulates in [pending].

   Job lines are read in place: the keyword [job] is recognised by its
   bytes, and a field that is a plain run of at most 18 decimal digits
   (below 10^18, so it cannot overflow) has its value summed up while the
   scan crosses it. Only header-line tokens, tokens cut by a chunk boundary
   and fields of any other shape become strings; those fields go through
   [int_of_string_opt], so signs, [0x]/[0o]/[0b] prefixes, underscores and
   out-of-range values behave exactly as that function says. Job fields go
   straight into off-heap arrays — no whole-file string, no token list,
   nothing allocated on the OCaml heap per job line.

   A whole job line gets a faster case still: at a line start, a line of
   the form [job] blank+ digits blank+ digits blank* [# comment] newline
   that lies inside the current chunk, with plain fields of at most 18
   digits and a positive p, is read in one scan ([whole_job_line]) and
   counted as the 3 tokens and 1 line the byte loop would count. Any other
   line (a sign, a prefix, a 19th digit, p = 0, a wrong field count, a
   line cut by the chunk end) is refused before anything is stored, and
   the byte loop reads it from its start, so the byte loop alone decides
   every input the fast case does not take. *)

type parser_state = {
  mutable lineno : int;
  mutable ntok : int; (* tokens on the current line; may exceed 3 *)
  mutable job_line : bool; (* the current line's first token is [job] *)
  tok : string array; (* first 2 tokens of a header line *)
  mutable line_p : int; (* fields 1 and 2 of a job line *)
  mutable line_cls : int;
  mutable fields_ok : bool; (* both job fields parsed as ints *)
  mutable in_comment : bool;
  pending : Buffer.t; (* token prefix left over from the previous chunk *)
  mutable machines : int option;
  mutable slots : int option;
  mutable jp : Instance.arr; (* growable job arrays, [njobs] filled *)
  mutable jcls : Instance.arr;
  mutable njobs : int;
  mutable ntokens : int; (* tokens not yet added to [io.stream_tokens] *)
  mutable error : string option;
  mutable bol : bool; (* the next chunk starts a line *)
  mutable field : int; (* the value [digit_run] read last *)
}

let new_arr n : Instance.arr = A1.create Bigarray.int Bigarray.c_layout n

(* The most job entries reserved up front from an input's length: 128 MB
   per array. Longer inputs grow by doubling past it. *)
let max_reserve = 1 lsl 24

(* An input of [len] bytes holds at most [len / 8 + 1] job lines, since the
   shortest, "job 1 0\n", is 8 bytes; without a length (a pipe) the arrays
   start at 1024 entries and double. *)
let new_state ?len () =
  let cap = match len with Some len -> min max_reserve ((len / 8) + 1) | None -> 1024 in
  { lineno = 1; ntok = 0; job_line = false; tok = Array.make 2 ""; line_p = 0;
    line_cls = 0; fields_ok = true; in_comment = false; pending = Buffer.create 32;
    machines = None; slots = None; jp = new_arr cap; jcls = new_arr cap; njobs = 0;
    ntokens = 0; error = None; bol = true; field = 0 }

let failed st = match st.error with None -> false | Some _ -> true

let fail st msg =
  if not (failed st) then
    st.error <- Some (Printf.sprintf "line %d: %s" st.lineno msg)

(* a copy of the first [n] entries of [a] into a new array of length [len] *)
let resized a n len =
  let b = new_arr len in
  A1.blit (A1.sub a 0 n) (A1.sub b 0 n);
  b

let push_job st p cls =
  let cap = A1.dim st.jp in
  if st.njobs = cap then begin
    st.jp <- resized st.jp cap (2 * cap);
    st.jcls <- resized st.jcls cap (2 * cap)
  end;
  A1.unsafe_set st.jp st.njobs p;
  A1.unsafe_set st.jcls st.njobs cls;
  st.njobs <- st.njobs + 1

(* The token counter is bumped once per chunk, not once per token: a
   [Metrics] update takes a lock, and a million-job load has millions of
   tokens. *)
let flush_token_count st =
  if st.ntokens > 0 then Ccs_obs.Metrics.add m_stream_tokens st.ntokens;
  st.ntokens <- 0

(* The token [buf.[s, e)]. [v] is its value when it is a plain run of at
   most 18 decimal digits, and -1 otherwise. *)
let add_token st buf s e v =
  st.ntokens <- st.ntokens + 1;
  let k = st.ntok in
  st.ntok <- k + 1;
  if k = 0 then
    st.job_line <-
      e - s = 3
      && Bytes.unsafe_get buf s = 'j'
      && Bytes.unsafe_get buf (s + 1) = 'o'
      && Bytes.unsafe_get buf (s + 2) = 'b';
  if not st.job_line then begin
    if k < 2 then st.tok.(k) <- Bytes.sub_string buf s (e - s)
  end
  else if k = 1 || k = 2 then begin
    let v =
      if v >= 0 then v
      else
        match int_of_string_opt (Bytes.sub_string buf s (e - s)) with
        | Some v -> v
        | None ->
            st.fields_ok <- false;
            0
    in
    if k = 1 then st.line_p <- v else st.line_cls <- v
  end

let flush_pending st =
  if Buffer.length st.pending > 0 then begin
    let b = Buffer.to_bytes st.pending in
    Buffer.clear st.pending;
    add_token st b 0 (Bytes.length b) (-1)
  end

(* Mirror of the per-line dispatch [of_string] historically performed on its
   token lists; the error strings are part of the CLI contract. *)
let dispatch_line st =
  (if st.ntok = 0 then ()
   else if st.job_line then begin
     if st.ntok <> 3 then fail st "unrecognized line"
     else if st.fields_ok && st.line_p > 0 && st.line_cls >= 0 then
       push_job st st.line_p st.line_cls
     else fail st "bad job line"
   end
   else if st.ntok <> 2 then fail st "unrecognized line"
   else
     match st.tok.(0) with
     | "ccs" -> if st.tok.(1) <> "1" then fail st "unrecognized line"
     | "machines" -> (
         match int_of_string_opt st.tok.(1) with
         | Some m when m > 0 -> st.machines <- Some m
         | _ -> fail st "bad machine count")
     | "slots" -> (
         match int_of_string_opt st.tok.(1) with
         | Some c when c > 0 -> st.slots <- Some c
         | _ -> fail st "bad slot count")
     | _ -> fail st "unrecognized line");
  st.ntok <- 0;
  st.fields_ok <- true

let end_line st =
  dispatch_line st;
  st.lineno <- st.lineno + 1

let[@inline] is_blank = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

(* The end of the blank run that starts at [j], or -1 if it is empty. *)
let blank_run buf j len =
  let k = ref j in
  while !k < len && is_blank (Bytes.unsafe_get buf !k) do
    incr k
  done;
  if !k = j then -1 else !k

(* The end of the run of 1 to 18 digits that starts at [j], its value left
   in [st.field]; -1 if the run is empty or longer. *)
let digit_run st buf j len =
  let k = ref j and v = ref 0 in
  while
    !k < len
    && match Bytes.unsafe_get buf !k with '0' .. '9' -> true | _ -> false
  do
    v := (10 * !v) + (Char.code (Bytes.unsafe_get buf !k) - 48);
    incr k
  done;
  if !k = j || !k - j > 18 then -1
  else begin
    st.field <- !v;
    !k
  end

(* The index after the line's newline, past blanks and an optional
   comment from [j]; -1 if another byte or the chunk's end comes first. *)
let line_end buf j len =
  let k = ref j in
  while !k < len && is_blank (Bytes.unsafe_get buf !k) do
    incr k
  done;
  if !k < len && Bytes.unsafe_get buf !k = '#' then
    while !k < len && Bytes.unsafe_get buf !k <> '\n' do
      incr k
    done;
  if !k < len && Bytes.unsafe_get buf !k = '\n' then !k + 1 else -1

(* The whole-line fast case (see the header comment) for the line that
   starts at [i]: pushes its job and returns the index after its newline,
   or returns -1 with nothing stored or counted. *)
let whole_job_line st buf i len =
  if
    i + 8 > len
    || Bytes.unsafe_get buf i <> 'j'
    || Bytes.unsafe_get buf (i + 1) <> 'o'
    || Bytes.unsafe_get buf (i + 2) <> 'b'
  then -1
  else
    let j = blank_run buf (i + 3) len in
    let j = if j < 0 then j else digit_run st buf j len in
    let p = st.field in
    let j = if j < 0 then j else blank_run buf j len in
    let j = if j < 0 then j else digit_run st buf j len in
    let j = if j < 0 then j else line_end buf j len in
    if j < 0 || p = 0 then -1
    else begin
      push_job st p st.field;
      st.ntokens <- st.ntokens + 3;
      st.lineno <- st.lineno + 1;
      j
    end

(* Whole job lines from the line start [i] on, unless the parse has
   failed; the start of the first line the fast case refuses. *)
let rec job_lines st buf i len =
  if failed st then i
  else match whole_job_line st buf i len with -1 -> i | j -> job_lines st buf j len

let feed st buf len =
  Ccs_obs.Metrics.add m_stream_bytes len;
  let i = ref (if st.bol then job_lines st buf 0 len else 0) in
  while !i < len && not (failed st) do
    let ch = Bytes.unsafe_get buf !i in
    if st.in_comment then begin
      if ch = '\n' then begin
        st.in_comment <- false;
        end_line st;
        i := job_lines st buf (!i + 1) len
      end
      else incr i
    end
    else
      match ch with
      | ' ' | '\t' | '\r' | '\012' ->
          flush_pending st;
          incr i
      | '\n' ->
          flush_pending st;
          end_line st;
          i := job_lines st buf (!i + 1) len
      | '#' ->
          flush_pending st;
          st.in_comment <- true;
          incr i
      | _ ->
          (* scan to the token's end, summing its digits on the way *)
          let s = !i and v = ref 0 and plain = ref true in
          let j = ref s and at_end = ref false in
          while (not !at_end) && !j < len do
            match Bytes.unsafe_get buf !j with
            | '0' .. '9' as d ->
                v := (10 * !v) + (Char.code d - 48);
                incr j
            | ' ' | '\t' | '\r' | '\012' | '\n' | '#' -> at_end := true
            | _ ->
                plain := false;
                incr j
          done;
          let e = !j in
          if e = len || Buffer.length st.pending > 0 then begin
            (* cut by a chunk boundary on either side: build it in [pending] *)
            Buffer.add_subbytes st.pending buf s (e - s);
            if e < len then flush_pending st
          end
          else add_token st buf s e (if !plain && e - s <= 18 then !v else -1);
          i := e
  done;
  st.bol <- Bytes.unsafe_get buf (len - 1) = '\n';
  flush_token_count st

let finish st =
  (* final line without a trailing newline *)
  if not (failed st) then begin
    flush_pending st;
    dispatch_line st
  end;
  flush_token_count st;
  match (st.error, st.machines, st.slots, st.njobs) with
  | Some e, _, _, _ -> Error e
  | None, None, _, _ -> Error "missing 'machines' line"
  | None, _, None, _ -> Error "missing 'slots' line"
  | None, _, _, 0 -> Error "no jobs"
  | None, Some machines, Some slots, n -> (
      (* exact-length views: the instance addresses 16 bytes per job *)
      let p = A1.sub st.jp 0 n and cls = A1.sub st.jcls 0 n in
      try Ok (Instance.of_bigarrays ~machines ~slots ~p ~cls)
      with Invalid_argument msg -> Error msg)

let default_chunk = 65536

(* [read buf] fills [buf] and returns the byte count, 0 at end of input;
   [len] is the input's length in bytes, when it has one. *)
let parse_stream ?len ~chunk read =
  let st = new_state ?len () in
  let buf = Bytes.create chunk in
  let rec loop () =
    match read buf with
    | 0 -> finish st
    | k ->
        feed st buf k;
        if failed st then finish st else loop ()
  in
  loop ()

let of_string ?(chunk = default_chunk) text =
  if chunk <= 0 then invalid_arg "Io.of_string: chunk must be positive";
  let pos = ref 0 in
  let read buf =
    let k = min (Bytes.length buf) (String.length text - !pos) in
    Bytes.blit_string text !pos buf 0 k;
    pos := !pos + k;
    k
  in
  parse_stream ~len:(String.length text) ~chunk read

(* ---------------- binary flat format ----------------

   Fixed little-endian layout built for the million-job tier: parsing is a
   header check plus two bulk int64 reads straight into the instance's
   off-heap arrays.

   {v
     "ccsb1\n"                     6-byte magic
     n, machines, slots            3 x int64 LE
     p_0 .. p_{n-1}                n x int64 LE
     cls_0 .. cls_{n-1}            n x int64 LE
   v} *)

let flat_magic = "ccsb1\n"

let io_chunk_words = 8192

let save_flat path f =
  Out_channel.with_open_bin path @@ fun oc ->
  Out_channel.output_string oc flat_magic;
  let buf = Bytes.create (8 * io_chunk_words) in
  let header = Bytes.create 24 in
  Bytes.set_int64_le header 0 (Int64.of_int (Instance.n f));
  Bytes.set_int64_le header 8 (Int64.of_int (Instance.m f));
  Bytes.set_int64_le header 16 (Int64.of_int (Instance.c f));
  Out_channel.output_bytes oc header;
  let write_arr get n =
    let i = ref 0 in
    while !i < n do
      let k = min io_chunk_words (n - !i) in
      for j = 0 to k - 1 do
        Bytes.set_int64_le buf (8 * j) (Int64.of_int (get (!i + j)))
      done;
      Out_channel.output oc buf 0 (8 * k);
      i := !i + k
    done
  in
  let n = Instance.n f in
  write_arr (Instance.job_p f) n;
  write_arr (Instance.job_cls f) n

let read_flat_body ic =
  let header = Bytes.create 24 in
  let int_field off name =
    let v64 = Bytes.get_int64_le header off in
    let v = Int64.to_int v64 in
    if Int64.of_int v <> v64 then Error (Printf.sprintf "flat file: %s out of range" name)
    else Ok v
  in
  match In_channel.really_input ic header 0 24 with
  | None -> Error "flat file: truncated header"
  | Some () -> (
      match (int_field 0 "job count", int_field 8 "machine count", int_field 16 "slot count") with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      | Ok n, Ok machines, Ok slots ->
          if n <= 0 then Error "no jobs"
          else begin
            let buf = Bytes.create (8 * io_chunk_words) in
            let read_arr name =
              let a = new_arr n in
              let i = ref 0 in
              let err = ref None in
              while !err = None && !i < n do
                let k = min io_chunk_words (n - !i) in
                match In_channel.really_input ic buf 0 (8 * k) with
                | None -> err := Some (Printf.sprintf "flat file: truncated %s array" name)
                | Some () ->
                    for j = 0 to k - 1 do
                      let v64 = Bytes.get_int64_le buf (8 * j) in
                      let v = Int64.to_int v64 in
                      if Int64.of_int v <> v64 then
                        err :=
                          Some (Printf.sprintf "flat file: %s %d out of range" name (!i + j))
                      else A1.unsafe_set a (!i + j) v
                    done;
                    i := !i + k
              done;
              match !err with Some e -> Error e | None -> Ok a
            in
            match read_arr "p" with
            | Error e -> Error e
            | Ok p -> (
                match read_arr "cls" with
                | Error e -> Error e
                | Ok cls -> (
                    Ccs_obs.Metrics.incr m_flat_loads;
                    try Ok (Instance.of_bigarrays ~machines ~slots ~p ~cls)
                    with Invalid_argument msg -> Error msg))
          end)

(* Auto-detection: a file starting with the binary magic parses as flat
   binary, anything else streams through the text tokenizer (the magic's
   first line, "ccsb1", is not a valid text directive, so the formats cannot
   be confused). The sniffed prefix is replayed into the text reader. *)
let parse_channel ?(chunk = default_chunk) ic =
  let prefix = Bytes.create (String.length flat_magic) in
  let got =
    let rec fill off =
      if off >= Bytes.length prefix then off
      else
        match In_channel.input ic prefix off (Bytes.length prefix - off) with
        | 0 -> off
        | k -> fill (off + k)
    in
    fill 0
  in
  if got = String.length flat_magic && Bytes.to_string prefix = flat_magic then
    read_flat_body ic
  else begin
    (* a pipe has no length *)
    let len = try Some (Int64.to_int (In_channel.length ic)) with Sys_error _ -> None in
    let served = ref 0 in
    let read buf =
      if !served < got then begin
        let k = min (got - !served) (Bytes.length buf) in
        Bytes.blit prefix !served buf 0 k;
        served := !served + k;
        k
      end
      else In_channel.input ic buf 0 (Bytes.length buf)
    in
    parse_stream ?len ~chunk read
  end

let load path =
  match In_channel.with_open_bin path (fun ic -> parse_channel ic) with
  | r -> r
  | exception Sys_error msg ->
      (* an open error names the path, a read error (a directory) does not *)
      let prefix = path ^ ": " in
      Error (if String.starts_with ~prefix msg then msg else prefix ^ msg)

(* the name bench/e2e calls; see io.mli *)
let load_flat = load

let save path inst = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string inst))
