(* Dinic's algorithm with the standard paired-edge residual representation:
   edge 2k is the forward edge, edge 2k+1 its residual twin. *)

type t = {
  n : int;
  mutable edge_to : int array;      (* head of each half-edge *)
  mutable edge_cap : int array;     (* residual capacity *)
  mutable edge_count : int;
  adj : int list array;             (* half-edge ids out of each node, reversed order *)
  mutable adj_arr : int array array option;  (* frozen adjacency, built lazily *)
  original_cap : (int, int) Hashtbl.t;       (* forward half-edge id -> capacity *)
}

type edge_id = int

let create n =
  {
    n;
    edge_to = Array.make 16 0;
    edge_cap = Array.make 16 0;
    edge_count = 0;
    adj = Array.make (max n 1) [];
    adj_arr = None;
    original_cap = Hashtbl.create 16;
  }

let ensure_capacity t =
  if t.edge_count + 2 > Array.length t.edge_to then begin
    let len = 2 * Array.length t.edge_to in
    let grow a = Array.append a (Array.make (len - Array.length a) 0) in
    t.edge_to <- grow t.edge_to;
    t.edge_cap <- grow t.edge_cap
  end

let add_edge t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Flow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then invalid_arg "Flow.add_edge: bad node";
  ensure_capacity t;
  let id = t.edge_count in
  t.edge_to.(id) <- dst;
  t.edge_cap.(id) <- cap;
  t.edge_to.(id + 1) <- src;
  t.edge_cap.(id + 1) <- 0;
  t.adj.(src) <- id :: t.adj.(src);
  t.adj.(dst) <- (id + 1) :: t.adj.(dst);
  t.edge_count <- t.edge_count + 2;
  t.adj_arr <- None;
  Hashtbl.replace t.original_cap id cap;
  id

let adjacency t =
  match t.adj_arr with
  | Some a -> a
  | None ->
      let a = Array.map (fun l -> Array.of_list (List.rev l)) t.adj in
      t.adj_arr <- Some a;
      a

let bfs t adj source sink level =
  Array.fill level 0 t.n (-1);
  level.(source) <- 0;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun e ->
        let w = t.edge_to.(e) in
        if t.edge_cap.(e) > 0 && level.(w) < 0 then begin
          level.(w) <- level.(v) + 1;
          Queue.add w queue
        end)
      adj.(v)
  done;
  level.(sink) >= 0

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Flow.max_flow: source = sink";
  let adj = adjacency t in
  let level = Array.make t.n (-1) in
  let iter = Array.make t.n 0 in
  let total = ref 0 in
  (* Blocking-flow DFS; [pushed] is the bottleneck so far. *)
  let rec dfs v pushed =
    if v = sink then pushed
    else begin
      let result = ref 0 in
      while !result = 0 && iter.(v) < Array.length adj.(v) do
        let e = adj.(v).(iter.(v)) in
        let w = t.edge_to.(e) in
        if t.edge_cap.(e) > 0 && level.(w) = level.(v) + 1 then begin
          let d = dfs w (min pushed t.edge_cap.(e)) in
          if d > 0 then begin
            t.edge_cap.(e) <- t.edge_cap.(e) - d;
            let twin = e lxor 1 in
            t.edge_cap.(twin) <- t.edge_cap.(twin) + d;
            result := d
          end
          else iter.(v) <- iter.(v) + 1
        end
        else iter.(v) <- iter.(v) + 1
      done;
      !result
    end
  in
  while bfs t adj source sink level do
    Array.fill iter 0 t.n 0;
    let rec drain () =
      let d = dfs source max_int in
      if d > 0 then begin
        total := !total + d;
        drain ()
      end
    in
    drain ()
  done;
  !total

let flow_on t id =
  match Hashtbl.find_opt t.original_cap id with
  | None -> invalid_arg "Flow.flow_on: not a forward edge id"
  | Some cap -> cap - t.edge_cap.(id)

let min_cut t ~source =
  let adj = adjacency t in
  let reachable = Array.make t.n false in
  let queue = Queue.create () in
  reachable.(source) <- true;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun e ->
        let w = t.edge_to.(e) in
        if t.edge_cap.(e) > 0 && not reachable.(w) then begin
          reachable.(w) <- true;
          Queue.add w queue
        end)
      adj.(v)
  done;
  reachable
