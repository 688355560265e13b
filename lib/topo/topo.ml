type shape = Line | Star | Mesh | Leaf_spine

let shape_to_string = function
  | Line -> "line"
  | Star -> "star"
  | Mesh -> "mesh"
  | Leaf_spine -> "leaf_spine"

let shape_of_string s =
  match String.lowercase_ascii s with
  | "line" -> Ok Line
  | "star" -> Ok Star
  | "mesh" -> Ok Mesh
  | "leaf_spine" | "leaf-spine" | "leafspine" -> Ok Leaf_spine
  | other -> Error (Printf.sprintf "unknown topology shape %S" other)

let all_shapes = [ Line; Star; Mesh; Leaf_spine ]

type t = {
  t_shape : shape;
  t_switches : int;
  t_spines : int;
  t_neighbors : int list array;          (* ascending, per switch *)
  t_links : ((int * int) * (int * int)) list;
}

let edge_port = 100

(* Undirected adjacency pairs (a, b) with a < b, sorted. *)
let adjacency shape ~spines n =
  match shape with
  | Line -> List.init (max 0 (n - 1)) (fun i -> (i, i + 1))
  | Star -> List.init (max 0 (n - 1)) (fun i -> (0, i + 1))
  | Mesh ->
      List.concat
        (List.init n (fun a -> List.init (n - a - 1) (fun k -> (a, a + 1 + k))))
  | Leaf_spine ->
      List.concat
        (List.init spines (fun s ->
             List.init (n - spines) (fun l -> (s, spines + l))))

let build ?spines shape n =
  if n < 1 || n > 64 then
    invalid_arg (Printf.sprintf "Topo.build: switch count %d out of [1, 64]" n);
  let spines =
    match shape with
    | Leaf_spine ->
        let s =
          match spines with Some s -> s | None -> if n >= 4 then 2 else 1
        in
        if s < 1 || s >= n then
          invalid_arg
            (Printf.sprintf
               "Topo.build: %d spines leaves no leaves among %d switches" s n)
        else s
    | Line | Star | Mesh -> 0
  in
  let pairs = adjacency shape ~spines n in
  let neigh = Array.make n [] in
  List.iter
    (fun (a, b) ->
      neigh.(a) <- b :: neigh.(a);
      neigh.(b) <- a :: neigh.(b))
    pairs;
  Array.iteri (fun i l -> neigh.(i) <- List.sort_uniq compare l) neigh;
  let port sw peer_sw =
    let rec rank k = function
      | [] -> invalid_arg "Topo.build: internal port allocation"
      | x :: _ when x = peer_sw -> 1 + k
      | _ :: tl -> rank (k + 1) tl
    in
    rank 0 neigh.(sw)
  in
  let links =
    List.sort compare
      (List.map (fun (a, b) -> ((a, port a b), (b, port b a))) pairs)
  in
  { t_shape = shape; t_switches = n; t_spines = spines;
    t_neighbors = neigh; t_links = links }

let shape t = t.t_shape
let switches t = t.t_switches
let spines t = t.t_spines
let links t = t.t_links
let link_count t = List.length t.t_links

let neighbors t sw =
  if sw < 0 || sw >= t.t_switches then
    invalid_arg (Printf.sprintf "Topo.neighbors: switch %d" sw)
  else t.t_neighbors.(sw)

let link_port t ~src ~dst =
  let rec rank k = function
    | [] -> None
    | x :: _ when x = dst -> Some (1 + k)
    | _ :: tl -> rank (k + 1) tl
  in
  if src < 0 || src >= t.t_switches then None else rank 0 t.t_neighbors.(src)

let peer t ~switch ~port =
  List.find_map
    (fun ((a, pa), (b, pb)) ->
      if a = switch && pa = port then Some (b, pb)
      else if b = switch && pb = port then Some (a, pa)
      else None)
    t.t_links

(* Deterministic BFS: the queue is processed in insertion order and each
   frontier expands its neighbors in ascending index order, so the parent
   of every node is stable and ties break toward lower switch indices. *)
let bfs_parents t src =
  let n = t.t_switches in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  seen.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          Queue.add v q
        end)
      t.t_neighbors.(u)
  done;
  parent

let path t ~src ~dst =
  if src < 0 || src >= t.t_switches || dst < 0 || dst >= t.t_switches then None
  else if src = dst then Some [ src ]
  else
    let parent = bfs_parents t src in
    if parent.(dst) < 0 then None
    else
      let rec walk acc v = if v = src then v :: acc else walk (v :: acc) parent.(v) in
      Some (walk [] dst)

let next_hop t ~src ~dst =
  match path t ~src ~dst with
  | Some (_ :: hop :: _) -> Some hop
  | Some _ | None -> None
