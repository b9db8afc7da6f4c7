(* Round robin (the cyclic placement of Section 3, Figure 1): items sorted
   non-ascending by size, item i on machine (i mod m). Lemma 3 then bounds
   the resulting makespan by (sum sizes)/m + max size. *)

(* [assign ~machines items] requires [items] sorted non-ascending by their
   caller-defined size and returns one list per machine, bottom-up placement
   order preserved. *)
let assign ~machines items =
  if machines <= 0 then invalid_arg "Round_robin.assign";
  let out = Array.make machines [] in
  List.iteri (fun i item -> out.(i mod machines) <- item :: out.(i mod machines)) items;
  Array.map List.rev out

(* The Lemma 3 guarantee, for tests: average plus maximum. *)
let lemma3_bound ~machines sizes =
  let total = List.fold_left Rat.add Rat.zero sizes in
  let maximum = List.fold_left Rat.max Rat.zero sizes in
  Rat.add (Rat.div total (Rat.of_int machines)) maximum

(* [sort_desc key ids] is [ids] reordered by non-ascending [key.(id)],
   equal keys in their given order: the order the three cores hand to the
   round robin. Keys are non-negative ints. An LSD radix sort on 11-bit
   digits, one O(n) pass per digit of the largest key; [ids] serves as its
   scratch and is overwritten. *)
let sort_desc key ids =
  let n = Array.length ids in
  let top = Array.fold_left (fun acc id -> max acc key.(id)) 0 ids in
  let src = ref ids and dst = ref (Array.make n 0) in
  let count = Array.make 2049 0 in
  let shift = ref 0 in
  while !shift < Sys.int_size && top lsr !shift > 0 do
    let s = !shift and a = !src and b = !dst in
    Array.fill count 0 2049 0;
    for i = 0 to n - 1 do
      let d = 2047 - ((key.(a.(i)) lsr s) land 2047) in
      count.(d + 1) <- count.(d + 1) + 1
    done;
    for d = 1 to 2048 do
      count.(d) <- count.(d) + count.(d - 1)
    done;
    for i = 0 to n - 1 do
      let id = a.(i) in
      let d = 2047 - ((key.(id) lsr s) land 2047) in
      b.(count.(d)) <- id;
      count.(d) <- count.(d) + 1
    done;
    src := b;
    dst := a;
    shift := s + 11
  done;
  !src
