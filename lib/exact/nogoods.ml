(* ---------------- packed keys ---------------- *)

type codec = {
  m : int;
  words : int;
  last_width : int;  (* classes held by the last mask word *)
  lbits : int;
  len : int;
  order : int array;  (* canonical machine order of the last key *)
  (* bit-stream writer state of the key being built *)
  mutable acc : int;
  mutable pos : int;
  mutable out : int;
}

(* By shifting: [1 lsl b] overflows for bounds near max_int. *)
let bit_length x =
  let b = ref 0 and x = ref x in
  while !x <> 0 do
    incr b;
    x := !x lsr 1
  done;
  !b

let codec ~machines ~classes ~bound =
  let words = (classes + 62) / 63 in
  let lbits = bit_length bound in
  { m = machines; words; last_width = classes - (63 * (words - 1)); lbits;
    len = 1 + (((machines * (lbits + classes)) + 62) / 63);
    order = Array.init machines Fun.id; acc = 0; pos = 0; out = 0 }

let key_len c = c.len

(* Load first, then the class-set words as signed ints. *)
let greater loads masks words a b =
  let la = loads.(a) and lb = loads.(b) in
  if la <> lb then la > lb
  else begin
    let a0 = a * words and b0 = b * words in
    let w = ref 0 in
    while !w < words && masks.(a0 + !w) = masks.(b0 + !w) do
      incr w
    done;
    !w < words && masks.(a0 + !w) > masks.(b0 + !w)
  end

(* Insertion sort from the previous key's order: between two keys of a
   search usually one machine's load changed, so the order is nearly
   sorted. Machines that tie have equal fields, so the key does not depend
   on how ties are ordered. *)
let sort c loads masks =
  let order = c.order in
  for i = 1 to c.m - 1 do
    let k = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && greater loads masks c.words order.(!j) k do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- k
  done

(* Appends a field of [width] bits whose value [v] has no other bits set.
   A field may cross into the next chunk, and [v] may have bit 62 set. *)
let put c dst v width =
  let pos = c.pos in
  c.acc <- c.acc lor (v lsl pos);
  if pos + width < 63 then c.pos <- pos + width
  else begin
    dst.(c.out) <- c.acc;
    c.out <- c.out + 1;
    let fit = 63 - pos in
    c.acc <- (if width = fit then 0 else v lsr fit);
    c.pos <- width - fit
  end

let encode c ~depth_id ~loads ~masks dst off =
  sort c loads masks;
  dst.(off) <- depth_id;
  c.acc <- 0;
  c.pos <- 0;
  c.out <- off + 1;
  let words = c.words in
  for i = 0 to c.m - 1 do
    let k = c.order.(i) in
    put c dst loads.(k) c.lbits;
    for w = 0 to words - 2 do
      put c dst masks.((k * words) + w) 63
    done;
    put c dst masks.((k * words) + words - 1) c.last_width
  done;
  if c.pos > 0 then dst.(c.out) <- c.acc

(* ---------------- flat set ---------------- *)

let initial_slots = 4096

type t = {
  klen : int;
  mutable slots : int array;  (* slot i at i * klen; free iff its first word is -1 *)
  mutable mask : int;  (* slot count - 1, a power of two minus one *)
  mutable count : int;
}

let create ~key_len =
  { klen = key_len; slots = Array.make (initial_slots * key_len) (-1);
    mask = initial_slots - 1; count = 0 }

let length t = t.count

(* murmur3's fmix64 with its constants cut to 63 bits. Packed keys differ in
   few low bits; without a finaliser linear probing clusters badly. *)
let fmix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x7f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  let h = h * 0x44ceb9fe1a85ec53 in
  h lxor (h lsr 33)

let hash buf off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h lxor buf.(i)) * 0x100000001b3
  done;
  fmix !h

let equal slots s buf off len =
  let i = ref 0 in
  while !i < len && slots.(s + !i) = buf.(off + !i) do
    incr i
  done;
  !i = len

(* The slot holding the key, or the free slot that ends its probe run. *)
let find t buf off hash =
  let klen = t.klen and slots = t.slots and mask = t.mask in
  let i = ref (hash land mask) in
  while slots.(!i * klen) >= 0 && not (equal slots (!i * klen) buf off klen) do
    i := (!i + 1) land mask
  done;
  !i

let mem t buf off ~hash = t.slots.(find t buf off hash * t.klen) >= 0

let grow t =
  let old = t.slots and klen = t.klen in
  let slots = 2 * (t.mask + 1) in
  t.slots <- Array.make (slots * klen) (-1);
  t.mask <- slots - 1;
  for s = 0 to (Array.length old / klen) - 1 do
    let o = s * klen in
    if old.(o) >= 0 then
      Array.blit old o t.slots (find t old o (hash old o klen) * klen) klen
  done

let add t buf off ~hash =
  let i = find t buf off hash in
  if t.slots.(i * t.klen) >= 0 then false
  else begin
    let i =
      if 2 * (t.count + 1) > t.mask + 1 then begin
        grow t;
        find t buf off hash
      end
      else i
    in
    let s = i * t.klen in
    for w = 0 to t.klen - 1 do
      t.slots.(s + w) <- buf.(off + w)
    done;
    t.count <- t.count + 1;
    true
  end

let reset t =
  t.slots <- Array.make (initial_slots * t.klen) (-1);
  t.mask <- initial_slots - 1;
  t.count <- 0
