(** Maximum flow on integer-capacity directed graphs (Dinic's algorithm).

    Used to implement the flow network of Lemma 16 (existence of
    well-structured preemptive schedules) and to realize layer assignments in
    the preemptive PTAS. Integral capacities in, integral flow out — the
    integrality is exactly what Lemma 16's proof relies on. *)

type t

type edge_id = int

(** [create n] makes an empty graph on nodes [0 .. n-1]. *)
val create : int -> t

(** [add_edge t ~src ~dst ~cap] adds a directed edge and returns its id.
    Capacities must be non-negative. Parallel edges are allowed. *)
val add_edge : t -> src:int -> dst:int -> cap:int -> edge_id

(** Computes the maximum flow value from [source] to [sink] and stores the
    flow assignment (queryable via {!flow_on}). Can be called once per
    graph. *)
val max_flow : t -> source:int -> sink:int -> int

(** Flow routed through the given edge after {!max_flow}. *)
val flow_on : t -> edge_id -> int

(** Source side of a minimum cut after {!max_flow}: [reachable.(v)] iff [v]
    is reachable from the source in the residual graph. *)
val min_cut : t -> source:int -> bool array
