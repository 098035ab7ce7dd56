module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

type result = {
  size : int;
  left_match : int array;
  right_match : int array;
}

(* Reusable scratch for repeated solves (adjacency build + BFS layers).
   The matched arrays are excluded: they are the result and must survive
   the next call.  Arrays grow monotonically and are never shrunk, so a
   workspace sized by the largest instance serves a whole batch. *)
type workspace = {
  mutable count : int array;
  mutable offsets : int array;
  mutable cursor : int array;
  mutable store : int array;
  mutable dist : int array;
  queue : int Queue.t;
}

let make_workspace () =
  {
    count = [||];
    offsets = [||];
    cursor = [||];
    store = [||];
    dist = [||];
    queue = Queue.create ();
  }

let workspace = make_workspace

let grown arr n = if Array.length arr >= n then arr else Array.make n 0

let c_calls = Metrics.counter "hk_calls"
let c_phases = Metrics.counter "hk_phases"
let c_augmentations = Metrics.counter "hk_augmentations"

let infinity_dist = max_int

(* Build per-left-vertex adjacency as edge-index lists, into the
   workspace's buffers. *)
let build_adjacency ws ~nl ~nr ~edges =
  ws.count <- grown ws.count nl;
  Array.fill ws.count 0 nl 0;
  Array.iter
    (fun (l, r) ->
      if l < 0 || l >= nl || r < 0 || r >= nr then
        invalid_arg "Hopcroft_karp: endpoint out of range";
      ws.count.(l) <- ws.count.(l) + 1)
    edges;
  ws.offsets <- grown ws.offsets (nl + 1);
  ws.offsets.(0) <- 0;
  for l = 0 to nl - 1 do
    ws.offsets.(l + 1) <- ws.offsets.(l) + ws.count.(l)
  done;
  ws.store <- grown ws.store (Array.length edges);
  ws.cursor <- grown ws.cursor nl;
  Array.blit ws.offsets 0 ws.cursor 0 nl;
  Array.iteri
    (fun k (l, _) ->
      ws.store.(ws.cursor.(l)) <- k;
      ws.cursor.(l) <- ws.cursor.(l) + 1)
    edges

let solve_in ws ~nl ~nr ~edges =
  Metrics.incr c_calls;
  (* Cooperative cancellation (DESIGN.md §14): fetched once per solve,
     polled once per BFS phase — the unit of work that is bounded for any
     single instance but repeated without bound across a band search. *)
  let cancel = Cancel.ambient () in
  let ws = match ws with Some ws -> ws | None -> make_workspace () in
  build_adjacency ws ~nl ~nr ~edges;
  let offsets = ws.offsets and adj = ws.store in
  let left_match = Array.make nl (-1) in
  let right_match = Array.make nr (-1) in
  ws.dist <- grown ws.dist nl;
  let dist = ws.dist in
  let queue = ws.queue in
  let matched_left_of_right r =
    match right_match.(r) with -1 -> -1 | k -> fst edges.(k)
  in
  (* Layered BFS from free left vertices; true iff an augmenting path
     exists. *)
  let bfs () =
    Queue.clear queue;
    for l = 0 to nl - 1 do
      if left_match.(l) = -1 then begin
        dist.(l) <- 0;
        Queue.add l queue
      end
      else dist.(l) <- infinity_dist
    done;
    let found = ref false in
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      for k = offsets.(l) to offsets.(l + 1) - 1 do
        let edge = adj.(k) in
        let r = snd edges.(edge) in
        match matched_left_of_right r with
        | -1 -> found := true
        | l' ->
            if dist.(l') = infinity_dist then begin
              dist.(l') <- dist.(l) + 1;
              Queue.add l' queue
            end
      done
    done;
    !found
  in
  let rec dfs l =
    let rec try_edges k =
      if k >= offsets.(l + 1) then begin
        dist.(l) <- infinity_dist;
        false
      end
      else begin
        let edge = adj.(k) in
        let r = snd edges.(edge) in
        let advance =
          match matched_left_of_right r with
          | -1 -> true
          | l' -> dist.(l') = dist.(l) + 1 && dfs l'
        in
        if advance then begin
          left_match.(l) <- edge;
          right_match.(r) <- edge;
          true
        end
        else try_edges (k + 1)
      end
    in
    try_edges offsets.(l)
  in
  let size = ref 0 and phases = ref 0 in
  while
    Cancel.poll cancel;
    bfs ()
  do
    incr phases;
    for l = 0 to nl - 1 do
      if left_match.(l) = -1 && dfs l then incr size
    done
  done;
  (* Tallied locally and published once per solve: every augmentation
     grows the matching by one, so [size] is the augmentation count. *)
  Metrics.add c_phases !phases;
  Metrics.add c_augmentations !size;
  { size = !size; left_match; right_match }

let solve ~nl ~nr ~edges = solve_in None ~nl ~nr ~edges

let is_perfect ~nl ~nr result = nl = nr && result.size = nl

let hall_violator ~nl ~nr ~edges result =
  ignore nr;
  let free = ref [] in
  for l = nl - 1 downto 0 do
    if result.left_match.(l) = -1 then free := l :: !free
  done;
  match !free with
  | [] -> None
  | free_lefts ->
      (* Alternating BFS from all free left vertices: follow any edge
         left→right, then matched edge right→left.  The reachable left set S
         has N(S) = reachable rights, all matched, and |N(S)| = |S| - #free,
         hence a Hall violator. *)
      let seen_l = Array.make nl false in
      let seen_r = Array.make (Array.length result.right_match) false in
      let adjacency = Array.make nl [] in
      Array.iter
        (fun (l, r) -> adjacency.(l) <- r :: adjacency.(l))
        edges;
      let queue = Queue.create () in
      List.iter
        (fun l ->
          seen_l.(l) <- true;
          Queue.add l queue)
        free_lefts;
      while not (Queue.is_empty queue) do
        let l = Queue.pop queue in
        List.iter
          (fun r ->
            if not seen_r.(r) then begin
              seen_r.(r) <- true;
              match result.right_match.(r) with
              | -1 -> () (* impossible for a maximum matching *)
              | k ->
                  let l' = fst edges.(k) in
                  if not seen_l.(l') then begin
                    seen_l.(l') <- true;
                    Queue.add l' queue
                  end
            end)
          adjacency.(l)
      done;
      let violator = ref [] in
      for l = nl - 1 downto 0 do
        if seen_l.(l) then violator := l :: !violator
      done;
      Some !violator
