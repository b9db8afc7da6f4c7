module A1 = Bigarray.Array1

type arr = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t

type job = { p : int; cls : int }

type t = { p : arr; cls : arr; machines : int; slots : int; classes : int }

let n t = A1.dim t.p
let m t = t.machines
let c t = t.slots
let num_classes t = t.classes
let job_p t i = A1.get t.p i
let job_cls t i = A1.get t.cls i
let job t i : job = { p = job_p t i; cls = job_cls t i }

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

(* Dense renumbering in place: distinct original ids sorted ascending map
   to 0, 1, ... Returns the class count. [max_id] is the largest id. Ids
   below 2n index an array: mark the ids present, number them in ascending
   order, rewrite — O(n), no hashing. Larger ids (sparse ids are a
   supported input) take the [Hashtbl] path. *)
let renumber (cls : arr) max_id =
  let n = A1.dim cls in
  if max_id < 2 * n then begin
    (* [dense.(u)] is 1 for a present id, then its dense number *)
    let dense = Array.make (max_id + 1) 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set dense (A1.unsafe_get cls i) 1
    done;
    let next = ref 0 in
    for u = 0 to max_id do
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
  if n = 0 then invalid_arg "Instance.make: no jobs";
  if A1.dim cls <> n then invalid_arg "Instance.make: p/cls length mismatch";
  if machines <= 0 then invalid_arg "Instance.make: machines must be positive";
  if slots <= 0 then invalid_arg "Instance.make: slots must be positive";
  (* every load the solvers sum is at most the total, so it must fit *)
  let total = ref 0 and overflow = ref false and max_id = ref 0 in
  for i = 0 to n - 1 do
    let pi = A1.unsafe_get p i and u = A1.unsafe_get cls i in
    if pi <= 0 then invalid_arg "Instance.make: processing times must be positive";
    if u < 0 then invalid_arg "Instance.make: classes must be non-negative";
    if u > !max_id then max_id := u;
    if pi > max_int - !total then overflow := true else total := !total + pi
  done;
  if !overflow then invalid_arg "Instance.make: total processing time exceeds max_int";
  let classes = renumber cls !max_id in
  { p; cls; machines; slots = min slots classes; classes }

let of_arrays ~machines ~slots ~p ~cls =
  let n = Array.length p in
  if Array.length cls <> n then invalid_arg "Instance.make: p/cls length mismatch";
  let pa = A1.create Bigarray.int Bigarray.c_layout n in
  let ca = A1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    A1.unsafe_set pa i (Array.unsafe_get p i);
    A1.unsafe_set ca i (Array.unsafe_get cls i)
  done;
  of_bigarrays ~machines ~slots ~p:pa ~cls:ca

let make ~machines ~slots jobs =
  of_arrays ~machines ~slots
    ~p:(Array.of_list (List.map fst jobs))
    ~cls:(Array.of_list (List.map snd jobs))

(* the name bench/e2e calls; see instance.mli *)
let of_flat t = t

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

(* C <= c * m, phrased divisionally so huge m cannot overflow. *)
let schedulable t = t.machines >= (t.classes + t.slots - 1) / t.slots

(* Heap-external footprint of the two Bigarrays, for the XL memory gate. *)
let mem_bytes t = 8 * (A1.dim t.p + A1.dim t.cls)

let pp fmt t =
  Format.fprintf fmt "@[<v>CCS instance: n=%d, m=%d, c=%d, C=%d@,jobs:" (n t) t.machines
    t.slots t.classes;
  for i = 0 to n t - 1 do
    Format.fprintf fmt "@, %3d: p=%d class=%d" i (job_p t i) (job_cls t i)
  done;
  Format.fprintf fmt "@]"
