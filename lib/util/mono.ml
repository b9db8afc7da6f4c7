external now_ns : unit -> int = "ccs_mono_now_ns" [@@noalloc]
external sleep_ns : int -> unit = "ccs_mono_sleep_ns"

let now_s () = float_of_int (now_ns ()) *. 1e-9
let elapsed_s ~since = float_of_int (now_ns () - since) *. 1e-9
let ns_of_ms ms = ms * 1_000_000
