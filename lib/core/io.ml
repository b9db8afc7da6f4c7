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
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ccs 1\n";
  Buffer.add_string buf (Printf.sprintf "machines %d\n" (Instance.m inst));
  Buffer.add_string buf (Printf.sprintf "slots %d\n" (Instance.c inst));
  for i = 0 to Instance.n inst - 1 do
    let j = Instance.job inst i in
    Buffer.add_string buf (Printf.sprintf "job %d %d\n" j.Instance.p j.Instance.cls)
  done;
  Buffer.contents buf

let to_string_flat f =
  let buf = Buffer.create (32 + (16 * Instance.Flat.n f)) in
  Buffer.add_string buf "ccs 1\n";
  Buffer.add_string buf (Printf.sprintf "machines %d\n" (Instance.Flat.m f));
  Buffer.add_string buf (Printf.sprintf "slots %d\n" (Instance.Flat.c f));
  for i = 0 to Instance.Flat.n f - 1 do
    Buffer.add_string buf
      (Printf.sprintf "job %d %d\n" (Instance.Flat.job_p f i) (Instance.Flat.job_cls f i))
  done;
  Buffer.contents buf

(* ---------------- streaming text parser ----------------

   One incremental tokenizer feeds both front-ends ([of_string] and the
   channel loaders), so the two parse byte-for-byte identically: fields
   separated by any blank run (space, tab, CR, form feed — files written on
   Windows or exported from spreadsheets parse the same as space-separated
   ones), '#' comments to end of line, at most one directive per line.
   Chunks arrive through a [read] callback; a token split across chunk
   boundaries accumulates in [pending]. Job fields go straight into growable
   int arrays — no whole-file string, no token list, no per-job boxing. *)

type parser_state = {
  mutable lineno : int;
  tok : string array; (* first 3 tokens of the current line *)
  mutable ntok : int; (* may exceed 3: only the count matters then *)
  mutable in_comment : bool;
  pending : Buffer.t; (* token prefix left over from the previous chunk *)
  mutable machines : int option;
  mutable slots : int option;
  mutable jp : int array; (* growable job arrays, [njobs] filled *)
  mutable jcls : int array;
  mutable njobs : int;
  mutable ntokens : int; (* tokens not yet added to [io.stream_tokens] *)
  mutable error : string option;
}

let new_state () =
  { lineno = 1; tok = Array.make 3 ""; ntok = 0; in_comment = false;
    pending = Buffer.create 32; machines = None; slots = None;
    jp = Array.make 1024 0; jcls = Array.make 1024 0; njobs = 0; ntokens = 0; error = None }

let fail st msg =
  if st.error = None then
    st.error <- Some (Printf.sprintf "line %d: %s" st.lineno msg)

let push_job st p cls =
  let cap = Array.length st.jp in
  if st.njobs = cap then begin
    let jp = Array.make (2 * cap) 0 and jcls = Array.make (2 * cap) 0 in
    Array.blit st.jp 0 jp 0 cap;
    Array.blit st.jcls 0 jcls 0 cap;
    st.jp <- jp;
    st.jcls <- jcls
  end;
  st.jp.(st.njobs) <- p;
  st.jcls.(st.njobs) <- cls;
  st.njobs <- st.njobs + 1

(* The token counter is bumped once per chunk, not once per token: a
   [Metrics] update takes a lock, and a million-job load has millions of
   tokens. *)
let flush_token_count st =
  if st.ntokens > 0 then Ccs_obs.Metrics.add m_stream_tokens st.ntokens;
  st.ntokens <- 0

let add_token st s =
  st.ntokens <- st.ntokens + 1;
  if st.ntok < 3 then st.tok.(st.ntok) <- s;
  st.ntok <- st.ntok + 1

(* Mirror of the per-line dispatch [of_string] historically performed on its
   token lists; the error strings are part of the CLI contract. *)
let dispatch_line st =
  (match st.ntok with
  | 0 -> ()
  | 2 -> (
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
      | _ -> fail st "unrecognized line")
  | 3 when st.tok.(0) = "job" -> (
      match (int_of_string_opt st.tok.(1), int_of_string_opt st.tok.(2)) with
      | Some p, Some cls when p > 0 && cls >= 0 -> push_job st p cls
      | _ -> fail st "bad job line")
  | _ -> fail st "unrecognized line");
  st.ntok <- 0

let feed st buf len =
  Ccs_obs.Metrics.add m_stream_bytes len;
  let tok_start = ref (-1) in
  let flush i =
    if !tok_start >= 0 then begin
      if Buffer.length st.pending = 0 then
        add_token st (Bytes.sub_string buf !tok_start (i - !tok_start))
      else begin
        Buffer.add_subbytes st.pending buf !tok_start (i - !tok_start);
        add_token st (Buffer.contents st.pending);
        Buffer.clear st.pending
      end;
      tok_start := -1
    end
    else if Buffer.length st.pending > 0 then begin
      add_token st (Buffer.contents st.pending);
      Buffer.clear st.pending
    end
  in
  let i = ref 0 in
  while !i < len && st.error = None do
    let ch = Bytes.unsafe_get buf !i in
    if st.in_comment then begin
      if ch = '\n' then begin
        st.in_comment <- false;
        dispatch_line st;
        st.lineno <- st.lineno + 1
      end
    end
    else begin
      match ch with
      | ' ' | '\t' | '\r' | '\012' -> flush !i
      | '\n' ->
          flush !i;
          dispatch_line st;
          st.lineno <- st.lineno + 1
      | '#' ->
          flush !i;
          st.in_comment <- true
      | _ -> if !tok_start < 0 then tok_start := !i
    end;
    incr i
  done;
  (* a token cut by the chunk boundary waits in [pending] *)
  if !tok_start >= 0 then
    Buffer.add_subbytes st.pending buf !tok_start (len - !tok_start);
  flush_token_count st

let finish st =
  (* final line without a trailing newline *)
  if st.error = None then begin
    if Buffer.length st.pending > 0 then begin
      add_token st (Buffer.contents st.pending);
      Buffer.clear st.pending
    end;
    dispatch_line st
  end;
  flush_token_count st;
  match (st.error, st.machines, st.slots, st.njobs) with
  | Some e, _, _, _ -> Error e
  | None, None, _, _ -> Error "missing 'machines' line"
  | None, _, None, _ -> Error "missing 'slots' line"
  | None, _, _, 0 -> Error "no jobs"
  | None, Some machines, Some slots, n -> (
      let p = A1.create Bigarray.int Bigarray.c_layout n in
      let cls = A1.create Bigarray.int Bigarray.c_layout n in
      for i = 0 to n - 1 do
        A1.unsafe_set p i st.jp.(i);
        A1.unsafe_set cls i st.jcls.(i)
      done;
      try Ok (Instance.Flat.of_bigarrays ~machines ~slots ~p ~cls)
      with Invalid_argument msg -> Error msg)

let default_chunk = 65536

(* [read buf] fills [buf] and returns the byte count, 0 at end of input. *)
let parse_stream ~chunk read =
  let st = new_state () in
  let buf = Bytes.create chunk in
  let rec loop () =
    match read buf with
    | 0 -> finish st
    | k ->
        feed st buf k;
        if st.error <> None then finish st else loop ()
  in
  loop ()

let of_string_flat ?(chunk = default_chunk) text =
  if chunk <= 0 then invalid_arg "Io.of_string_flat: chunk must be positive";
  let pos = ref 0 in
  let read buf =
    let k = min (Bytes.length buf) (String.length text - !pos) in
    Bytes.blit_string text !pos buf 0 k;
    pos := !pos + k;
    k
  in
  parse_stream ~chunk read

let of_string text = Result.map Instance.of_flat (of_string_flat text)

(* ---------------- binary flat format ----------------

   Fixed little-endian layout built for the million-job tier: parsing is a
   header check plus two bulk int64 reads straight into the off-heap flat
   arrays.

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
  Bytes.set_int64_le header 0 (Int64.of_int (Instance.Flat.n f));
  Bytes.set_int64_le header 8 (Int64.of_int (Instance.Flat.m f));
  Bytes.set_int64_le header 16 (Int64.of_int (Instance.Flat.c f));
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
  let n = Instance.Flat.n f in
  write_arr (Instance.Flat.job_p f) n;
  write_arr (Instance.Flat.job_cls f) n

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
              let a = A1.create Bigarray.int Bigarray.c_layout n in
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
                    try Ok (Instance.Flat.of_bigarrays ~machines ~slots ~p ~cls)
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
    parse_stream ~chunk read
  end

let load_flat path =
  match In_channel.with_open_bin path (fun ic -> parse_channel ic) with
  | r -> r
  | exception Sys_error msg -> Error msg

let load path = Result.map Instance.of_flat (load_flat path)

let save path inst = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string inst))
