(* Flight recorder: a process-wide, ring-buffered event stream every solver
   emits into. Disabled by default — each emitter checks one bool, so the
   solvers pay nothing unless a CLI run asked for [--record] or
   [--trace-out]. When enabled, events carry seconds-since-start
   timestamps from the monotonic clock ([Ccs_util.Mono]), and the ring
   bounds memory: a runaway solve can drop old events (counted in
   [dropped ()]) but can never OOM the process.

   The recorder observes, it never steers: it reads metric counters and
   [Gc.quick_stat], and writes only to its own buffer (and stderr for the
   progress ticker), so enabling it cannot perturb solver decisions —
   output stays bit-identical with and without [--record]. *)

type event = { t_s : float; kind : string; fields : (string * Jsonx.t) list }

type state = {
  ring : event option array;
  mutable next : int;      (* write cursor, wraps *)
  mutable count : int;     (* total events written (not dropped) *)
  mutable dropped : int;
  epoch_ns : int;
  mutable deadline_ns : int option;  (* absolute mono reading, for the ticker *)
  (* progress-ticker state *)
  mutable cur_phase : string;
  mutable cur_ub : float option;
  mutable cur_lb : float option;
  mutable last_tick_ns : int;
}

let st : state option ref = ref None
let enabled = ref false  (* mirrors [!st <> None]; single hot-path read *)
let progress = ref false
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let default_capacity = 65536

let start ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Recorder.start: capacity must be positive";
  locked @@ fun () ->
  st :=
    Some
      { ring = Array.make capacity None;
        next = 0;
        count = 0;
        dropped = 0;
        epoch_ns = Ccs_util.Mono.now_ns ();
        deadline_ns = None;
        cur_phase = "-";
        cur_ub = None;
        cur_lb = None;
        last_tick_ns = 0 };
  enabled := true

let stop () =
  locked @@ fun () ->
  enabled := false;
  progress := false;
  st := None

let active () = !enabled
let set_progress b = progress := b

let set_deadline_ns ns =
  locked @@ fun () -> match !st with None -> () | Some s -> s.deadline_ns <- Some ns

(* ---------------- watched counters ---------------- *)

(* Work-attribution counters sampled at checkpoint boundaries and diffed
   across phases. [Metrics.counter] is find-or-create, so resolving them
   here just shares the handle the owning module registers (or creates it
   first if the recorder wins the race — same handle either way). *)
let watched =
  lazy
    (List.map
       (fun name -> (name, Metrics.counter name))
       [ "lp.pivots"; "lp.phase1_iterations"; "ilp.nodes";
         "ilp.prunes_propagation"; "bnb.nodes";
         "nfold.augmentation_steps"; "nfold.kernel_candidates";
         "ptas.guesses"; "ptas.ilp_calls"; "border_search.probes";
         "resil.cancel_checks" ])

let counter_values () =
  List.map (fun (n, c) -> (n, Metrics.counter_value c)) (Lazy.force watched)

(* ---------------- emission ---------------- *)

(* must hold [mu] *)
let push_locked s kind fields =
  let t_s = float_of_int (Ccs_util.Mono.now_ns () - s.epoch_ns) /. 1e9 in
  let ev = { t_s; kind; fields } in
  if s.ring.(s.next) <> None then s.dropped <- s.dropped + 1;
  s.ring.(s.next) <- Some ev;
  s.next <- (s.next + 1) mod Array.length s.ring;
  s.count <- s.count + 1

let tick_min_interval_ns = 100_000_000 (* 0.1 s between progress lines *)

(* must hold [mu]; stderr ticker for long solves *)
let maybe_tick_locked s =
  if !progress then begin
    let now = Ccs_util.Mono.now_ns () in
    if now - s.last_tick_ns >= tick_min_interval_ns then begin
      s.last_tick_ns <- now;
      let elapsed = float_of_int (now - s.epoch_ns) /. 1e9 in
      let gap =
        match (s.cur_ub, s.cur_lb) with
        | Some ub, Some lb when lb > 0.0 -> Printf.sprintf "%.4f" ((ub -. lb) /. lb)
        | Some _, _ | _, Some _ -> "?"
        | None, None -> "-"
      in
      let deadline =
        match s.deadline_ns with
        | None -> ""
        | Some d ->
            Printf.sprintf "/%.1fs" (float_of_int (d - s.epoch_ns) /. 1e9)
      in
      Printf.eprintf "[ccs] phase=%s gap=%s elapsed=%.1fs%s\n%!" s.cur_phase gap
        elapsed deadline
    end
  end

let emit kind fields =
  if !enabled then
    locked @@ fun () ->
    match !st with None -> () | Some s -> push_locked s kind fields

(* ---------------- convergence events ---------------- *)

let bound_event kind ~src ~solve v =
  if !enabled then
    locked @@ fun () ->
    match !st with
    | None -> ()
    | Some s ->
        (match kind with
        | "incumbent" when src = "driver" -> s.cur_ub <- Some v
        | "lower_bound" when src = "driver" -> s.cur_lb <- Some v
        | _ -> ());
        push_locked s kind
          [ ("src", Jsonx.Str src); ("solve", Jsonx.Int solve);
            ("value", Jsonx.Float v) ];
        maybe_tick_locked s

let incumbent ~src ~solve v = bound_event "incumbent" ~src ~solve v
let lower_bound ~src ~solve v = bound_event "lower_bound" ~src ~solve v

(* ---------------- phases with GC + counter attribution ---------------- *)

let phase_ids = Atomic.make 0

let gc_fields pre post =
  let f name v = if v <> 0.0 then [ (name, Jsonx.Float v) ] else [] in
  let i name v = if v <> 0 then [ (name, Jsonx.Int v) ] else [] in
  let open Gc in
  f "gc_minor_words" (post.minor_words -. pre.minor_words)
  @ f "gc_promoted_words" (post.promoted_words -. pre.promoted_words)
  @ f "gc_major_words" (post.major_words -. pre.major_words)
  @ i "gc_minor_collections" (post.minor_collections - pre.minor_collections)
  @ i "gc_major_collections" (post.major_collections - pre.major_collections)

let counter_fields pre post =
  List.concat_map
    (fun ((n, v1), (_, v0)) ->
      if v1 <> v0 then [ (n, Jsonx.Int (v1 - v0)) ] else [])
    (List.combine post pre)

(* Open phases on each domain. Only phases entered while recording touch
   it, so the off path stays a single bool check. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let open_depth () = !(Domain.DLS.get depth_key)

let phase ?(fields = []) name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add phase_ids 1 in
    let dom = (Domain.self () :> int) in
    let prev_phase = ref "-" in
    let t0 = Ccs_util.Mono.now_ns () in
    (locked @@ fun () ->
     match !st with
     | None -> ()
     | Some s ->
         prev_phase := s.cur_phase;
         s.cur_phase <- name;
         push_locked s "phase_start"
           (("phase", Jsonx.Str name) :: ("id", Jsonx.Int id) :: ("dom", Jsonx.Int dom)
          :: fields));
    let depth = Domain.DLS.get depth_key in
    incr depth;
    let pre_gc = Gc.quick_stat () in
    let pre_counters = counter_values () in
    let finish ok =
      decr depth;
      let post_counters = counter_values () in
      let post_gc = Gc.quick_stat () in
      let dur_s = float_of_int (Ccs_util.Mono.now_ns () - t0) /. 1e9 in
      locked @@ fun () ->
      match !st with
      | None -> ()
      | Some s ->
          s.cur_phase <- !prev_phase;
          push_locked s "phase_end"
            ([ ("phase", Jsonx.Str name); ("id", Jsonx.Int id);
               ("dom", Jsonx.Int dom); ("dur_s", Jsonx.Float dur_s) ]
            @ (if ok then [] else [ ("raised", Jsonx.Bool true) ])
            @ gc_fields pre_gc post_gc
            @ counter_fields pre_counters post_counters);
          maybe_tick_locked s
    in
    match f () with
    | v ->
        finish true;
        v
    | exception e ->
        finish false;
        raise e
  end

(* ---------------- checkpoint sampling ---------------- *)

(* Called from [Ccs_resil.Deadline.check]: piggybacks on checkpoints the
   solvers already visit, so work attribution needs no new instrumentation
   sites. Amortized per domain — one sample event per [sample_every]
   checks — to keep the checkpoint hot path at a DLS increment. *)
let sample_every = 1024
let sample_tick : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let sample ~site ~checks =
  if !enabled then begin
    let tick = Domain.DLS.get sample_tick in
    tick := !tick + 1;
    if !tick mod sample_every = 0 then
      locked @@ fun () ->
      match !st with
      | None -> ()
      | Some s ->
          push_locked s "sample"
            (("site", Jsonx.Str site)
             :: ("checks", Jsonx.Int checks)
             :: List.map (fun (n, v) -> (n, Jsonx.Int v)) (counter_values ()));
          maybe_tick_locked s
  end

(* ---------------- draining ---------------- *)

let events () =
  locked @@ fun () ->
  match !st with
  | None -> []
  | Some s ->
      let cap = Array.length s.ring in
      let n = min s.count cap in
      let first = if s.count <= cap then 0 else s.next in
      List.init n (fun i ->
          match s.ring.((first + i) mod cap) with
          | Some e -> e
          | None -> assert false)

let dropped () =
  locked @@ fun () -> match !st with None -> 0 | Some s -> s.dropped

let event_json e =
  Jsonx.Obj
    (("t_s", Jsonx.Float (Jsonx.round_sig 9 e.t_s))
    :: ("ev", Jsonx.Str e.kind)
    :: List.map
         (fun (k, v) ->
           match v with
           | Jsonx.Float f -> (k, Jsonx.Float (Jsonx.round_sig 9 f))
           | v -> (k, v))
         e.fields)

let to_jsonl () =
  let evs = events () in
  let drp = dropped () in
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (Jsonx.to_string j);
    Buffer.add_char buf '\n'
  in
  line
    (Jsonx.Obj
       [ ("ev", Jsonx.Str "meta"); ("format", Jsonx.Str "ccs-recorder");
         ("version", Jsonx.Int 1); ("events", Jsonx.Int (List.length evs));
         ("dropped", Jsonx.Int drp) ]);
  List.iter (fun e -> line (event_json e)) evs;
  Buffer.contents buf

(* Chrome trace-event rendering: one complete ("X") event per
   phase_start/phase_end pair, in start order, with the start's fields as
   [args]. A pair whose start the ring evicted is skipped, and so is a
   phase still open. *)
let to_chrome_json () =
  let evs = events () in
  let durs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.kind = "phase_end" then
        match (List.assoc_opt "id" e.fields, List.assoc_opt "dur_s" e.fields) with
        | Some (Jsonx.Int id), Some (Jsonx.Float d) -> Hashtbl.replace durs id d
        | _ -> ())
    evs;
  let micros s = Jsonx.Int (int_of_float (Float.round (s *. 1e6))) in
  Jsonx.List
    (List.filter_map
       (fun e ->
         match (e.kind, e.fields) with
         | "phase_start", ("phase", name) :: ("id", Jsonx.Int id) :: ("dom", tid) :: args ->
             Hashtbl.find_opt durs id
             |> Option.map (fun d ->
                    Jsonx.Obj
                      ([ ("name", name); ("ph", Jsonx.Str "X"); ("ts", micros e.t_s);
                         ("dur", micros d); ("pid", Jsonx.Int 0); ("tid", tid) ]
                      @ if args = [] then [] else [ ("args", Jsonx.Obj args) ]))
         | _ -> None)
       evs)

let write path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let write_jsonl path = write path (to_jsonl ())
let write_chrome_trace path = write path (Jsonx.to_string (to_chrome_json ()) ^ "\n")
