(* Fixed-size domain pool with deterministic, sequential-equivalent
   combinators.

   Design notes. A batch claims indices from an atomic cursor in ascending
   order; the caller drains the cursor itself and enqueues at most
   [size - 1] helper tasks, so a batch never *depends* on pool workers
   being free — nested fan-out cannot deadlock, it only loses parallelism.
   Determinism comes from delivering results in index order: result [i]
   waits in slot [i] until [0..i-1] are delivered, and delivery stops at
   the lowest-index exception, which is precisely what the sequential
   left-to-right loop observes. *)

let m_batches = Ccs_obs.Metrics.counter "par.batches"
let m_tasks = Ccs_obs.Metrics.counter "par.tasks"

module Deadline = Ccs_resil.Deadline

(* One cancellation checkpoint per batch task, taken inside the task's own
   exception scope so a cancelled task reports like any other failure and
   the batch bookkeeping (the [remaining] countdown) always completes. *)
let chk_task = Deadline.site "par.task"

(* Cores the machine actually has. A pool larger than this only adds GC
   coordination and scheduler thrash (domains are not hyperthreads), so
   batches never hand work to more than [available_cores] domains — on a
   single-core host every batch degenerates to the caller's sequential
   drain, which by the determinism contract changes nothing but the wall
   clock. *)
let available_cores = max 1 (Domain.recommended_domain_count ())

module Pool = struct
  type t = {
    psize : int;
    nworkers : int;  (* domains actually spawned; see [create] *)
    queue : (unit -> unit) Queue.t;
    mu : Mutex.t;
    work : Condition.t;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  let size t = t.psize
  let workers t = t.nworkers

  (* Helper tasks terminate on their own (the batch cursor runs dry), so a
     worker loop only has to wait for work or for shutdown. *)
  let rec worker pool =
    Mutex.lock pool.mu;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work pool.mu
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mu (* stop *)
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mu;
      task ();
      worker pool
    end

  let create ?(force = false) ~jobs () =
    if jobs < 1 then invalid_arg "Ccs_par.Pool.create: jobs must be >= 1";
    (* Spawn only workers that [run_batch] can ever hand work to (see
       [available_cores]): an idle surplus domain still costs a backup
       thread in every stop-the-world minor collection, which on a small
       machine is pure drag. [force] spawns [jobs - 1] workers regardless —
       concurrency tests need real contention even on a single core. *)
    let nworkers = if force then jobs - 1 else min jobs available_cores - 1 in
    let pool =
      {
        psize = jobs;
        nworkers;
        queue = Queue.create ();
        mu = Mutex.create ();
        work = Condition.create ();
        stop = false;
        domains = [];
      }
    in
    pool.domains <- List.init nworkers (fun _ -> Domain.spawn (fun () -> worker pool));
    pool

  let submit pool task =
    Mutex.lock pool.mu;
    Queue.push task pool.queue;
    Condition.signal pool.work;
    Mutex.unlock pool.mu

  let shutdown pool =
    Mutex.lock pool.mu;
    pool.stop <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mu;
    List.iter Domain.join pool.domains;
    pool.domains <- []
end

(* ---------------- ambient pool ---------------- *)

let sequential = lazy (Pool.create ~jobs:1 ())
let ambient_pool : Pool.t option ref = ref None

let ambient () =
  match !ambient_pool with Some p -> p | None -> Lazy.force sequential

let set_jobs n =
  if n < 1 then invalid_arg "Ccs_par.set_jobs: jobs must be >= 1";
  (match !ambient_pool with Some p -> Pool.shutdown p | None -> ());
  ambient_pool := (if n = 1 then None else Some (Pool.create ~jobs:n ()))

(* Joining the workers at exit keeps domain teardown orderly even when the
   CLI exits from the middle of a parallel phase. *)
let () = at_exit (fun () -> match !ambient_pool with Some p -> Pool.shutdown p | None -> ())

(* ---------------- batches ---------------- *)

(* Run [n] indexed steps on [pool]; steps must handle their own exceptions.
   The caller participates, helpers are best-effort. *)
let run_batch pool n step =
  Ccs_obs.Metrics.incr m_batches;
  Ccs_obs.Metrics.add m_tasks n;
  (* Helpers run on other domains, whose ambient deadline token is not the
     submitter's: re-install it around the helper's drain so a --deadline
     reaches every task of the batch wherever it executes. *)
  let tok = Deadline.ambient () in
  let next = Atomic.make 0 in
  let remaining = Atomic.make n in
  let mu = Mutex.create () in
  let finished = Condition.create () in
  let rec drain () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      step i;
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock mu;
        Condition.broadcast finished;
        Mutex.unlock mu
      end;
      drain ()
    end
  in
  for _ = 1 to min (Pool.workers pool) (n - 1) do
    Pool.submit pool (fun () -> Deadline.with_token tok drain)
  done;
  drain ();
  Mutex.lock mu;
  while Atomic.get remaining > 0 do
    Condition.wait finished mu
  done;
  Mutex.unlock mu

let resolve_pool = function Some p -> p | None -> ambient ()

(* [slots.(i)] holds result [i] from the end of its task to its delivery.
   [mu] guards [slots], [next] (the lowest undelivered index) and [failed].
   The domain that ends a task delivers every result from [next] on that is
   ready. It runs [emit k] outside [mu], after emptying slot [k] and before
   moving [next] past it, so a domain that ends a task meanwhile finds slot
   [next] empty and leaves the delivery to it: calls never overlap. Delivery
   ends for good at the first failure in index order, which is the lowest
   raising index. *)
let parallel_emit ?pool ~emit f arr =
  let pool = resolve_pool pool in
  let n = Array.length arr in
  if n <= 1 || Pool.size pool = 1 then Array.iteri (fun i x -> emit i (f i x)) arr
  else begin
    let slots = Array.make n None in
    let next = ref 0 and failed = ref None in
    let mu = Mutex.create () in
    run_batch pool n (fun i ->
        let r =
          match
            Deadline.check chk_task;
            f i arr.(i)
          with
          | r -> Ok r
          | exception e -> Error e
        in
        Mutex.lock mu;
        slots.(i) <- Some r;
        while Option.is_none !failed && !next < n && Option.is_some slots.(!next) do
          let k = !next in
          let r = Option.get slots.(k) in
          slots.(k) <- None;
          Mutex.unlock mu;
          let delivered =
            match r with Ok r -> (try Ok (emit k r) with e -> Error e) | Error e -> Error e
          in
          Mutex.lock mu;
          match delivered with Ok () -> next := k + 1 | Error e -> failed := Some e
        done;
        Mutex.unlock mu);
    Option.iter raise !failed
  end

let parallel_mapi ?pool f arr =
  let results = Array.make (Array.length arr) None in
  parallel_emit ?pool ~emit:(fun i r -> results.(i) <- Some r) f arr;
  Array.map Option.get results

let parallel_map ?pool f arr = parallel_mapi ?pool (fun _ x -> f x) arr
