(** The learned no-goods of {!Bnb}: canonical search states packed into a
    few ints, kept in one flat open-addressing set.

    A state is a depth id (the interned remaining-job multiset) and the
    machines' (load, class set) pairs. Its key is the depth id followed by
    a bit stream in 63-bit chunks: for each machine in canonical order (by
    load, then by class-set words), its load in [lbits] bits and then its
    class set in [classes] bits. Loads must lie in \[0, bound), which is
    what makes the packing injective: two states get equal keys exactly
    when their depth ids are equal and their machine multisets are equal. *)

(** Packs states of one search: fixed machine count, class count and load
    bound. It keeps the canonical order of the last key it built as the
    start of the next sort, so it is not shareable between searches. *)
type codec

(** [codec ~machines ~classes ~bound]: [lbits] is the bit length of
    [bound]. Requires [machines >= 1], [classes >= 1] and [bound >= 0]. *)
val codec : machines:int -> classes:int -> bound:int -> codec

(** Ints per key: [1 + ceil (machines * (lbits + classes) / 63)]. *)
val key_len : codec -> int

(** [encode c ~depth_id ~loads ~masks dst off] writes the key of the state
    to [dst.(off)] .. [dst.(off + key_len c - 1)]. [loads.(k)] is machine
    [k]'s load, in \[0, bound); its class set is the [(classes + 62) / 63]
    words starting at [masks.(k * words)], class [u] at bit [u mod 63] of
    word [u / 63]. Allocates nothing. *)
val encode :
  codec -> depth_id:int -> loads:int array -> masks:int array -> int array -> int -> unit

(** A set of keys of one fixed length whose first word is [>= 0] (a depth
    id). Linear probing in one [int array]; at most half the slots are
    used, and the array doubles when an add would pass that. *)
type t

(** An empty set of 4096 slots for keys of [key_len] ints. *)
val create : key_len:int -> t

(** [hash buf off len] of the key [buf.(off)] .. [buf.(off + len - 1)]:
    every word mixed in, then a 63-bit cut of murmur3's finaliser, so keys
    that differ in one low bit land far apart. [mem] and [add] take it, so
    a key that is looked up and later added is hashed once. *)
val hash : int array -> int -> int -> int

(** [mem t buf off ~hash] is whether the key at [buf.(off)] is in [t]. *)
val mem : t -> int array -> int -> hash:int -> bool

(** [add t buf off ~hash] stores a copy of the key at [buf.(off)] unless it
    is already there; [true] when it was absent. *)
val add : t -> int array -> int -> hash:int -> bool

(** Keys stored. *)
val length : t -> int

(** Empties the set and returns it to its initial 4096 slots. *)
val reset : t -> unit
