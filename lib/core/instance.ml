type job = { p : int; cls : int }

type t = { jobs : job array; machines : int; slots : int; classes : int }

let make ~machines ~slots jobs =
  if jobs = [] then invalid_arg "Instance.make: no jobs";
  if machines <= 0 then invalid_arg "Instance.make: machines must be positive";
  if slots <= 0 then invalid_arg "Instance.make: slots must be positive";
  (* every load the solvers sum is at most the total, so it must fit *)
  let total = ref 0 and overflow = ref false in
  List.iter
    (fun (p, cls) ->
      if p <= 0 then invalid_arg "Instance.make: processing times must be positive";
      if cls < 0 then invalid_arg "Instance.make: classes must be non-negative";
      if p > max_int - !total then overflow := true else total := !total + p)
    jobs;
  if !overflow then invalid_arg "Instance.make: total processing time exceeds max_int";
  (* Dense renumbering of the classes that actually occur, preserving order
     of first appearance of the original ids (sorted). *)
  let module IS = Set.Make (Int) in
  let used = List.fold_left (fun acc (_, cls) -> IS.add cls acc) IS.empty jobs in
  let mapping = Hashtbl.create 16 in
  let next = ref 0 in
  IS.iter
    (fun cls ->
      Hashtbl.replace mapping cls !next;
      incr next)
    used;
  let classes = !next in
  let jobs =
    Array.of_list
      (List.map (fun (p, cls) -> { p; cls = Hashtbl.find mapping cls }) jobs)
  in
  { jobs; machines; slots = min slots classes; classes }

module Flat = struct
  module A1 = Bigarray.Array1

  type arr = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

  type t = { p : arr; cls : arr; machines : int; slots : int; classes : int }

  let n t = A1.dim t.p
  let m t = t.machines
  let c t = t.slots
  let num_classes t = t.classes
  let job_p t i = A1.unsafe_get t.p i
  let job_cls t i = A1.unsafe_get t.cls i

  (* [renumber] for ids too large to index an array: two [Hashtbl] passes
     and a sort of the distinct ids, O(n + C log C). *)
  let renumber_sparse (cls : arr) =
    let n = A1.dim cls in
    let seen = Hashtbl.create 1024 in
    for i = 0 to n - 1 do
      let u = A1.unsafe_get cls i in
      if not (Hashtbl.mem seen u) then Hashtbl.add seen u ()
    done;
    let ids = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
    let ids = List.sort compare ids in
    let mapping = Hashtbl.create (Hashtbl.length seen) in
    List.iteri (fun dense orig -> Hashtbl.replace mapping orig dense) ids;
    for i = 0 to n - 1 do
      A1.unsafe_set cls i (Hashtbl.find mapping (A1.unsafe_get cls i))
    done;
    List.length ids

  (* Dense renumbering in place, with the same mapping as [make]: distinct
     original ids sorted ascending map to 0, 1, ... Returns the class
     count. Ids below 2n index an array: mark the ids present, number them
     in ascending order, rewrite — O(n), no hashing. Larger ids (sparse ids
     are a supported input) take the [Hashtbl] path. *)
  let renumber (cls : arr) =
    let n = A1.dim cls in
    let max_id = ref 0 in
    for i = 0 to n - 1 do
      let u = A1.unsafe_get cls i in
      if u > !max_id then max_id := u
    done;
    if !max_id < 2 * n then begin
      (* [dense.(u)] is 1 for a present id, then its dense number *)
      let dense = Array.make (!max_id + 1) 0 in
      for i = 0 to n - 1 do
        Array.unsafe_set dense (A1.unsafe_get cls i) 1
      done;
      let next = ref 0 in
      for u = 0 to !max_id do
        if Array.unsafe_get dense u <> 0 then begin
          Array.unsafe_set dense u !next;
          incr next
        end
      done;
      for i = 0 to n - 1 do
        A1.unsafe_set cls i (Array.unsafe_get dense (A1.unsafe_get cls i))
      done;
      !next
    end
    else renumber_sparse cls

  (* Takes ownership of the arrays (classes are renumbered in place). *)
  let of_bigarrays ~machines ~slots ~(p : arr) ~(cls : arr) =
    let n = A1.dim p in
    if n = 0 then invalid_arg "Instance.Flat: no jobs";
    if A1.dim cls <> n then invalid_arg "Instance.Flat: p/cls length mismatch";
    if machines <= 0 then invalid_arg "Instance.Flat: machines must be positive";
    if slots <= 0 then invalid_arg "Instance.Flat: slots must be positive";
    let total = ref 0 and overflow = ref false in
    for i = 0 to n - 1 do
      let pi = A1.unsafe_get p i in
      if pi <= 0 then invalid_arg "Instance.Flat: processing times must be positive";
      if A1.unsafe_get cls i < 0 then
        invalid_arg "Instance.Flat: classes must be non-negative";
      if pi > max_int - !total then overflow := true else total := !total + pi
    done;
    if !overflow then invalid_arg "Instance.Flat: total processing time exceeds max_int";
    let classes = renumber cls in
    { p; cls; machines; slots = min slots classes; classes }

  let of_arrays ~machines ~slots ~p ~cls =
    let n = Array.length p in
    if Array.length cls <> n then invalid_arg "Instance.Flat: p/cls length mismatch";
    let pa = A1.create Bigarray.int Bigarray.c_layout n in
    let ca = A1.create Bigarray.int Bigarray.c_layout n in
    for i = 0 to n - 1 do
      A1.unsafe_set pa i (Array.unsafe_get p i);
      A1.unsafe_set ca i (Array.unsafe_get cls i)
    done;
    of_bigarrays ~machines ~slots ~p:pa ~cls:ca

  let total_load t =
    let acc = ref 0 in
    for i = 0 to n t - 1 do
      acc := !acc + A1.unsafe_get t.p i
    done;
    !acc

  let pmax t =
    let acc = ref 0 in
    for i = 0 to n t - 1 do
      let p = A1.unsafe_get t.p i in
      if p > !acc then acc := p
    done;
    !acc

  let class_load t =
    let loads = Array.make t.classes 0 in
    for i = 0 to n t - 1 do
      let u = A1.unsafe_get t.cls i in
      Array.unsafe_set loads u (Array.unsafe_get loads u + A1.unsafe_get t.p i)
    done;
    loads

  (* CSR view: [offsets] has [classes + 1] entries; the job indices of class
     [u], in increasing index order, are [ids.(offsets.(u)) ..
     ids.(offsets.(u+1) - 1)]. One O(n) counting pass, no per-class lists. *)
  let class_jobs_csr t =
    let nn = n t in
    let offsets = Array.make (t.classes + 1) 0 in
    for i = 0 to nn - 1 do
      let u = A1.unsafe_get t.cls i in
      offsets.(u + 1) <- offsets.(u + 1) + 1
    done;
    for u = 1 to t.classes do
      offsets.(u) <- offsets.(u) + offsets.(u - 1)
    done;
    let ids = Array.make nn 0 in
    let cursor = Array.sub offsets 0 t.classes in
    for i = 0 to nn - 1 do
      let u = A1.unsafe_get t.cls i in
      ids.(cursor.(u)) <- i;
      cursor.(u) <- cursor.(u) + 1
    done;
    (offsets, ids)

  let schedulable t = t.machines >= (t.classes + t.slots - 1) / t.slots

  (* Heap-external footprint of the two Bigarrays, for the XL memory gate. *)
  let mem_bytes t = 8 * (A1.dim t.p + A1.dim t.cls)
end

let to_flat t =
  let n = Array.length t.jobs in
  let p = Flat.A1.create Bigarray.int Bigarray.c_layout n in
  let cls = Flat.A1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    let j = Array.unsafe_get t.jobs i in
    Flat.A1.unsafe_set p i j.p;
    Flat.A1.unsafe_set cls i j.cls
  done;
  { Flat.p; cls; machines = t.machines; slots = t.slots; classes = t.classes }

(* The flat invariants (dense classes, clamped slots, positive sizes) mirror
   [make]'s, so the record can be rebuilt directly — no revalidation pass. *)
let of_flat (f : Flat.t) =
  let n = Flat.n f in
  let jobs =
    Array.init n (fun i -> { p = Flat.job_p f i; cls = Flat.job_cls f i })
  in
  { jobs; machines = f.Flat.machines; slots = f.Flat.slots; classes = f.Flat.classes }

let n t = Array.length t.jobs
let m t = t.machines
let c t = t.slots
let num_classes t = t.classes

let job t i = t.jobs.(i)

let total_load t = Array.fold_left (fun acc j -> acc + j.p) 0 t.jobs

let pmax t = Array.fold_left (fun acc j -> max acc j.p) 0 t.jobs

let class_load t =
  let loads = Array.make t.classes 0 in
  Array.iter (fun j -> loads.(j.cls) <- loads.(j.cls) + j.p) t.jobs;
  loads

let class_jobs t =
  let buckets = Array.make t.classes [] in
  for i = Array.length t.jobs - 1 downto 0 do
    let cls = t.jobs.(i).cls in
    buckets.(cls) <- i :: buckets.(cls)
  done;
  buckets

let schedulable t =
  (* C <= c * m, phrased divisionally so huge m cannot overflow. *)
  t.machines >= (t.classes + t.slots - 1) / t.slots

let encoding_length t =
  let bits x = max 1 (int_of_float (ceil (log (float_of_int (max 2 x)) /. log 2.0))) in
  Array.fold_left (fun acc j -> acc + bits j.p + bits (j.cls + 1)) 0 t.jobs
  + Array.length t.jobs + bits t.machines

let pp fmt t =
  Format.fprintf fmt "@[<v>CCS instance: n=%d, m=%d, c=%d, C=%d@,jobs:" (n t) t.machines
    t.slots t.classes;
  Array.iteri (fun i j -> Format.fprintf fmt "@, %3d: p=%d class=%d" i j.p j.cls) t.jobs;
  Format.fprintf fmt "@]"
