module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Grid_perm = Qr_perm.Grid_perm
module Hopcroft_karp = Qr_bipartite.Hopcroft_karp
module Decompose = Qr_bipartite.Decompose
module Bottleneck = Qr_bipartite.Bottleneck
module Trace = Qr_obs.Trace
module Metrics = Qr_obs.Metrics
module Cancel = Qr_util.Cancel

type discovery = Doubling | Fixed_band of int | Whole

type assignment = Mcbbm | Arbitrary

let c_band_rounds = Metrics.counter "band_search_rounds"
let c_band_windows = Metrics.counter "band_search_iterations"
let c_matchings = Metrics.counter "matchings_extracted"
let h_band_width = Metrics.histogram "band_width"

let discovery_name = function
  | Doubling -> "doubling"
  | Fixed_band h -> Printf.sprintf "fixed_band:%d" h
  | Whole -> "whole"

let delta cg matching r =
  Array.fold_left
    (fun acc edge ->
      acc
      + abs (Column_graph.src_row cg edge - r)
      + abs (Column_graph.dst_row cg edge - r))
    0 matching

(* Extract perfect matchings from the live edges with source row in
   [lo..hi] until none remains; kill the edges of each matching found. *)
let drain_band hk cg ~live ~lo ~hi found =
  let n = Column_graph.cols cg in
  let cancel = Cancel.ambient () in
  let continue_ = ref true in
  while !continue_ do
    Cancel.poll cancel;
    let band = Column_graph.edges_in_band cg ~live ~lo ~hi in
    if List.length band < n then continue_ := false
    else begin
      let sub = Array.of_list band in
      let sub_edges =
        Array.map
          (fun e -> (Column_graph.src_col cg e, Column_graph.dst_col cg e))
          sub
      in
      let result = Hopcroft_karp.solve_in hk ~nl:n ~nr:n ~edges:sub_edges in
      if result.size < n then continue_ := false
      else begin
        let matching = Array.map (fun k -> sub.(k)) result.left_match in
        Array.iter (fun e -> live.(e) <- false) matching;
        Metrics.incr c_matchings;
        Metrics.observe h_band_width (float_of_int (hi - lo + 1));
        found := matching :: !found
      end
    end
  done

let discover_doubling ?hk ?(initial_width = 0) cg =
  let m = Column_graph.rows cg in
  let cancel = Cancel.ambient () in
  let live = Array.make (Column_graph.num_edges cg) true in
  let found = ref [] in
  let w = ref initial_width in
  let rounds = ref 0 and windows = ref 0 in
  while List.length !found < m do
    incr rounds;
    let r0 = ref 0 in
    while !r0 < m && List.length !found < m do
      incr windows;
      Cancel.poll cancel;
      let hi = min (!r0 + !w) (m - 1) in
      drain_band hk cg ~live ~lo:!r0 ~hi found;
      r0 := !r0 + !w + 1
    done;
    w := if !w = 0 then 1 else 2 * !w
  done;
  (* One shared-counter update per call, not per band window. *)
  Metrics.add c_band_rounds !rounds;
  Metrics.add c_band_windows !windows;
  (* Narrow-band matchings first: they carry the locality. *)
  List.rev !found

let discover_whole hk cg =
  let n = Column_graph.cols cg in
  Decompose.by_extraction_in hk ~nl:n ~nr:n ~edges:(Column_graph.hk_edges cg)

let discover_matchings ?hk discovery cg =
  match discovery with
  | Doubling -> discover_doubling ?hk cg
  | Fixed_band h ->
      if h <= 0 then invalid_arg "Local_grid_route: band height must be positive";
      discover_doubling ?hk ~initial_width:(h - 1) cg
  | Whole -> discover_whole hk cg

let assign_rows assignment cg matchings =
  let m = Column_graph.rows cg in
  match assignment with
  | Arbitrary -> Array.init m (fun k -> k)
  | Mcbbm ->
      let weights =
        Array.of_list
          (List.map
             (fun matching -> Array.init m (fun r -> delta cg matching r))
             matchings)
      in
      let solution = Bottleneck.solve_complete ~weights in
      let assigned = solution.left_match in
      (* A complete bipartite graph always has a perfect matching. *)
      Array.iter (fun r -> assert (r >= 0)) assigned;
      assigned

let sigmas ?ws ?(discovery = Doubling) ?(assignment = Mcbbm) grid pi =
  let cg =
    Trace.with_span "column_graph_build" (fun () ->
        Column_graph.build ?reuse:(Router_workspace.reusable_cg ws) grid pi)
  in
  Option.iter (fun w -> Router_workspace.remember_cg w cg) ws;
  let hk = Router_workspace.hk ws in
  let matchings =
    Trace.with_span "band_search"
      ~attrs:[ ("discovery", Trace.String (discovery_name discovery)) ]
      (fun () -> discover_matchings ?hk discovery cg)
  in
  let assigned_rows =
    Trace.with_span "mcbbm_assign" (fun () -> assign_rows assignment cg matchings)
  in
  Grid_route.sigmas_of_assignment cg ~matchings ~assigned_rows

let route ?ws ?discovery ?assignment grid pi =
  Grid_route.route_with_sigmas grid pi (sigmas ?ws ?discovery ?assignment grid pi)

let route_best_orientation ?ws ?discovery ?assignment grid pi =
  let direct =
    Trace.with_span "orientation_direct" (fun () ->
        route ?ws ?discovery ?assignment grid pi)
  in
  let transposed =
    Trace.with_span "orientation_transposed" (fun () ->
        (* The transposed instance has the same vertex count, so it reuses
           the direct orientation's buffers. *)
        let grid_t = Grid.transpose grid in
        let pi_t = Grid_perm.transpose grid pi in
        route ?ws ?discovery ?assignment grid_t pi_t)
  in
  let lifted =
    Schedule.map_vertices (Grid_perm.untranspose_vertex grid) transposed
  in
  if Schedule.depth lifted < Schedule.depth direct then lifted else direct
