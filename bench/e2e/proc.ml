(* One child process, timed from spawn to exit, with the resource usage
   wait4(2) reports for it.

   Linux records a process's memory high-water mark at exec, and a child
   spawned with vfork (posix_spawn, Unix.create_process) execs from its
   parent's address space: its ru_maxrss is never below the parent's peak.
   The harness holds whole instances and parsed schedules, so children are
   spawned by a launcher instead: this program re-executed at start-up,
   before it allocates anything, which spawns and reaps on request. *)

type status = Exited of int | Signaled of int | Timed_out

type result = {
  status : status;
  wall_s : float;
  maxrss_kb : int;  (** peak resident set size of the child *)
  cpu_s : float;  (** user + system CPU time of the child *)
}

external wait4 : int -> int -> int * int * int * float * float = "ccsbench_wait4"

let ok r = r.status = Exited 0

let describe = function
  | Exited c -> Printf.sprintf "exit %d" c
  | Signaled s -> Printf.sprintf "signal %d" s
  | Timed_out -> "timeout"

(* Run [prog args] with stdout to [stdout] and stderr to [stdout ^ ".err"].
   The clock starts just before the spawn and stops when the child has been
   reaped. *)
let spawn ~timeout_s ~stdout prog args =
  let flags = Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] in
  let inp = Unix.openfile "/dev/null" Unix.[ O_RDONLY; O_CLOEXEC ] 0 in
  let out = Unix.openfile stdout flags 0o644 in
  let err = Unix.openfile (stdout ^ ".err") flags 0o644 in
  let t0 = Ccs_util.Mono.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ inp; out; err ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) inp out err)
  in
  let kind, code, maxrss_kb, user_s, sys_s = wait4 pid (int_of_float (timeout_s *. 1000.0)) in
  let wall_s = Ccs_util.Mono.elapsed_s ~since:t0 in
  let status = match kind with 0 -> Exited code | 1 -> Signaled code | _ -> Timed_out in
  { status; wall_s; maxrss_kb; cpu_s = user_s +. sys_s }

(* The launcher's pid and its request and reply channels. *)
let launcher : (int * out_channel * in_channel) option ref = ref None

let stop_launcher () =
  Option.iter
    (fun (pid, oc, ic) ->
      close_out oc;
      close_in ic;
      ignore (Unix.waitpid [] pid))
    !launcher;
  launcher := None

(* Start the launcher: [self] re-executed with [flag], which must call
   {!serve}. It is stopped and reaped at exit. Without a launcher, {!run}
   spawns directly. *)
let start_launcher self flag =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process self [| self; flag |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  launcher := Some (pid, Unix.out_channel_of_descr req_w, Unix.in_channel_of_descr rep_r);
  at_exit stop_launcher

(* The launcher's loop: one request per spawn, until stdin closes. *)
let serve () =
  try
    while true do
      let timeout_s, stdout_, prog, args = Marshal.from_channel stdin in
      Marshal.to_channel stdout (spawn ~timeout_s ~stdout:stdout_ prog args : result) [];
      flush stdout
    done
  with End_of_file -> ()

let run ~timeout_s ~stdout prog args =
  match !launcher with
  | None -> spawn ~timeout_s ~stdout prog args
  | Some (_, oc, ic) ->
      Marshal.to_channel oc (timeout_s, stdout, prog, args) [];
      flush oc;
      (Marshal.from_channel ic : result)

(* First line of a child's stderr, for failure messages. *)
let stderr_line stdout =
  match In_channel.with_open_text (stdout ^ ".err") In_channel.input_line with
  | Some l -> l
  | None | (exception Sys_error _) -> ""
