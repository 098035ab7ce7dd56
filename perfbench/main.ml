(* The routing service's benchmark.

     bash perfbench/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
     bash perfbench/run.sh aggregate FILE...

   A run forks a server, sets it up nine times (setup_s is the median),
   drives the workload's timed phase for S seconds through one closed-loop
   client, then checks every returned schedule.  It prints each metric by
   name and unit, writes a results file with its provenance under
   perfbench/out/, and ends with one JSON line: the end-to-end metrics, or
   with --trace 1 the per-layer metrics of an in-process replay of the
   same request lines.  It exits 1 when any schedule is invalid or a
   self-test fails.

   [aggregate] summarizes results files of repeated runs: per workload and
   metric, the run count, median and quartiles, and the spread (quartile
   distance over median) against each end-to-end metric's bound. *)

open Qroute
module Json = Obs_json
module W = Workload

(* ------------------------------------------------------------ metrics *)

type spec = {
  name : string;
  unit : string;
  better : string;
  bound : float;  (** End-to-end only: tolerated worsening, as a share. *)
  moves : string;  (** Per-layer only: the end-to-end metrics it should move. *)
  on : string;  (** Per-layer only: the workloads it should move them on. *)
}

let e2e name unit better bound = { name; unit; better; bound; moves = ""; on = "" }

(* error_rate is 0 on a healthy server, and a ratio over a zero median
   is undefined, so the bounded metric is its complement success_rate;
   error_rate is still printed and recorded. *)
let end_to_end =
  [
    e2e "latency_p50_ms" "ms" "lower" 0.25;
    e2e "latency_p90_ms" "ms" "lower" 0.25;
    e2e "routes_per_s" "1/s" "higher" 0.25;
    e2e "success_rate" "ratio" "higher" 0.01;
    e2e "depth_ratio" "ratio" "lower" 0.10;
    e2e "server_rss_mb" "MB" "lower" 0.10;
    e2e "setup_s" "s" "lower" 0.25;
  ]

let kernel_on = "route32-miss, batch16-pool (flat on route32-hit)"
let lat = "latency_p50_ms"
let thr = "latency_p50_ms, routes_per_s"

let layer name unit better moves on = { name; unit; better; bound = 0.; moves; on }

let per_layer =
  [
    layer "protocol.decode_ms" "ms" "lower" lat "all (small everywhere)";
    layer "protocol.request_bytes" "bytes" "lower" lat "all";
    layer "plan_cache.key_ms" "ms" "lower" lat "route32-hit, route32-miss";
    layer "plan_cache.find_ms" "ms" "lower" lat "route32-hit";
    layer "plan_cache.add_ms" "ms" "lower" lat "route32-miss";
    layer "plan_cache.hit_ratio" "ratio" "higher" "latency_p50_ms, server_rss_mb"
      "route32-hit (1), route32-miss (0)";
    layer "plan_cache.lookups" "count" "higher" "(base of plan_cache.hit_ratio)" "all";
    layer "plan_cache.evictions" "1/request" "lower" "latency_p50_ms, server_rss_mb"
      "route32-miss";
    layer "router_intf.route_ms" "ms" "lower" thr kernel_on;
    layer "router_intf.plan_ms" "ms" "lower" thr kernel_on;
    layer "router_intf.routes" "count" "higher" "(base of the kernel medians)" "all";
    layer "column_graph.build_ms" "ms" "lower" thr kernel_on;
    layer "local_grid_route.discover_ms" "ms" "lower" thr kernel_on;
    layer "local_grid_route.assign_ms" "ms" "lower" thr kernel_on;
    layer "grid_route.rounds_ms" "ms" "lower" thr kernel_on;
    layer "schedule.compact_ms" "ms" "lower" "routes_per_s, depth_ratio" kernel_on;
    layer "schedule.depth" "layers" "lower" "depth_ratio" kernel_on;
    layer "gc.minor_words_per_route" "words" "lower" "routes_per_s, latency_p90_ms"
      "route32-miss, batch16-pool";
    layer "gc.promoted_words_per_route" "words" "lower" "routes_per_s, latency_p90_ms"
      "route32-miss, batch16-pool";
    layer "gc.minor_collections_per_route" "count" "lower" "routes_per_s, latency_p90_ms"
      "route32-miss, batch16-pool";
    layer "gc.major_collections_per_route" "count" "lower" "routes_per_s, latency_p90_ms"
      "route32-miss, batch16-pool";
    layer "schedule.to_json_ms" "ms" "lower" lat "route32-hit, then route32-miss";
    layer "json.to_string_ms" "ms" "lower" lat "route32-hit, then route32-miss";
    layer "json.response_bytes" "bytes" "lower" lat "route32-hit, route32-miss";
    layer "worker_pool.queue_wait_ms" "ms" "lower" "routes_per_s" "batch16-pool only";
    layer "worker_pool.task_ms" "ms" "lower" "routes_per_s" "batch16-pool only";
    layer "worker_pool.map_ms" "ms" "lower" "routes_per_s" "batch16-pool only";
    layer "worker_pool.serial_ms" "ms" "lower" "(base of worker_pool.speedup)"
      "batch16-pool only";
    layer "worker_pool.speedup" "x" "higher" "routes_per_s" "batch16-pool only";
    layer "session.server_ms" "ms" "lower" lat "all";
    layer "server.transport_ms" "ms" "lower" lat "route32-hit (largest share), route32-miss";
    layer "server.loop_wakeups_per_request" "count" "lower" lat "route32-hit, route32-miss";
    layer "client.requests" "count" "higher" "(sample count of the latency percentiles)" "all";
    layer "trace.replayed_lines" "count" "higher" "(base of the trace.* figures)" "all";
    layer "trace.unattributed_ms" "ms" "lower" "(health of the benchmark itself)" "all";
    layer "trace.overhead_pct" "%" "lower" "(health of the benchmark itself)" "all";
  ]

(* A measured value; distributions keep their samples so that the results
   file can give their median and quartiles. *)
type value = { v : float; samples : float array }

let scalar v = { v; samples = [||] }
let median xs = if Array.length xs = 0 then Float.nan else Stats.median xs
let dist xs = { v = median xs; samples = xs }

let percentile xs p = if Array.length xs = 0 then Float.nan else Stats.percentile xs p

(* First quartile, median and third quartile as Python's
   statistics.quantiles(xs, n=4) gives them (its 'exclusive' method), the
   spread measure repeated runs are judged by. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then
    let v = median xs in
    (v, v, v)
  else begin
    let d = Array.copy xs in
    Array.sort Float.compare d;
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* ---------------------------------------------------------- provenance *)

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s
  with Sys_error _ -> None

let git_rev () =
  let trim = String.trim in
  match Option.map trim (read_file ".git/HEAD") with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read_file (".git/" ^ ref_) with
      | Some rev -> trim rev
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed -> (
              let line =
                List.find_opt
                  (fun l -> String.ends_with ~suffix:(" " ^ ref_) l)
                  (String.split_on_char '\n' packed)
              in
              match line with
              | Some l -> List.hd (String.split_on_char ' ' l)
              | None -> "unknown")))
  | Some rev -> rev
  | None -> "unknown"

(* A source tree exported from git has no .git directory, so the code
   measured is also pinned by a digest of the library and benchmark
   sources. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then if f = "out" then [] else files p
           else if List.exists (fun s -> Filename.check_suffix f s) [ ".ml"; ".mli"; ".c" ]
                   || f = "dune"
           then [ p ]
           else [])
  in
  let all = files "lib" @ files "perfbench" in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.map (fun p -> p ^ "\000" ^ Option.value (read_file p) ~default:"") all)))

let provenance ~runs =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_rev", Json.String (git_rev ()));
      ("source_digest", Json.String (source_digest ()));
      ( "ocamlrunparam",
        match Sys.getenv_opt "OCAMLRUNPARAM" with
        | Some v -> Json.String v
        | None -> Json.Null );
      ("runs", Json.Int runs);
    ]

(* BENCHMARK.json, when present, must declare exactly the workloads and
   metrics this program reports, so that what is read is what is printed. *)
let declared_problems () =
  match Option.map Json.of_string (read_file "BENCHMARK.json") with
  | None -> []
  | Some (Error e) -> [ "BENCHMARK.json is not JSON: " ^ e ]
  | Some (Ok j) ->
      let listed key entry =
        match Json.member key j with Some (Json.List l) -> List.map entry l | _ -> []
      in
      let str k m = Option.bind (Json.member k m) Json.get_string in
      let num k m = Option.bind (Json.member k m) Json.get_float in
      let agree what ok = if ok then [] else [ "BENCHMARK.json disagrees on the " ^ what ] in
      agree "workloads"
        (listed "workloads" (fun m -> (str "name" m, str "why" m))
        = List.map (fun w -> (Some (W.name w), Some (W.why w))) W.all)
      @ agree "end-to-end metrics"
          (listed "end_to_end" (fun m -> (str "name" m, str "unit" m, str "better" m, num "bound" m))
          = List.map (fun s -> (Some s.name, Some s.unit, Some s.better, Some s.bound)) end_to_end)
      @ agree "per-layer metrics"
          (listed "per_layer" (fun m -> (str "name" m, str "unit" m, str "better" m))
          = List.map (fun s -> (Some s.name, Some s.unit, Some s.better)) per_layer)

(* -------------------------------------------------------------- a run *)

let e2e_values (r : Served.run) (c : Served.check) =
  let rtts = Array.map (fun s -> s.Served.rtt_ms) r.samples in
  let lat p = { v = percentile rtts p; samples = rtts } in
  [
    ("latency_p50_ms", lat 50.);
    ("latency_p90_ms", lat 90.);
    ("routes_per_s", scalar (float_of_int c.valid /. r.wall_s));
    ("success_rate", scalar (float_of_int c.valid /. float_of_int (max 1 c.attempted)));
    ("depth_ratio", scalar c.depth_ratio);
    ("server_rss_mb", scalar (r.after.rss_kb /. 1024.));
    ("setup_s", dist (Array.of_list r.setup_s));
  ]

let layer_values (r : Served.run) (rp : Replay.result) =
  let d name = dist (Replay.layer name) in
  (* Collections are rare per route, so their median is 0; these, like
     depth, are means. *)
  let mean name =
    let xs = Replay.layer name in
    { v = (if xs = [||] then Float.nan else Stats.mean xs); samples = xs }
  in
  let samples = r.samples in
  let n = Array.length samples in
  let served f = Array.map f samples in
  let lookups = r.after.hits - r.before.hits + (r.after.misses - r.before.misses) in
  let routes = Replay.layer "router_intf.route" in
  [
    ("protocol.decode_ms", d "protocol.decode");
    ( "protocol.request_bytes",
      dist (served (fun s -> float_of_int (String.length s.Served.line.W.wire))) );
    ("plan_cache.key_ms", d "plan_cache.key");
    ("plan_cache.find_ms", d "plan_cache.find");
    ("plan_cache.add_ms", d "plan_cache.add");
    ( "plan_cache.hit_ratio",
      scalar (float_of_int (r.after.hits - r.before.hits) /. float_of_int (max 1 lookups)) );
    ("plan_cache.lookups", scalar (float_of_int lookups));
    ( "plan_cache.evictions",
      scalar (float_of_int (r.after.evictions - r.before.evictions) /. float_of_int n) );
    ("router_intf.route_ms", dist routes);
    ("router_intf.plan_ms", d "router_intf.plan");
    ("router_intf.routes", scalar (float_of_int (Array.length routes)));
    ("column_graph.build_ms", d "column_graph.build");
    ("local_grid_route.discover_ms", d "local_grid_route.discover");
    ("local_grid_route.assign_ms", d "local_grid_route.assign");
    ("grid_route.rounds_ms", d "grid_route.rounds");
    ("schedule.compact_ms", d "schedule.compact");
    ("schedule.depth", mean "schedule.depth");
    ("gc.minor_words_per_route", mean "gc.minor_words_per_route");
    ("gc.promoted_words_per_route", mean "gc.promoted_words_per_route");
    ("gc.minor_collections_per_route", mean "gc.minor_collections_per_route");
    ("gc.major_collections_per_route", mean "gc.major_collections_per_route");
    ("schedule.to_json_ms", d "schedule.to_json");
    ("json.to_string_ms", d "json.to_string");
    ("json.response_bytes", dist (served (fun s -> float_of_int s.Served.reply.Served.bytes)));
    ("worker_pool.queue_wait_ms", d "worker_pool.queue_wait");
    ("worker_pool.task_ms", d "worker_pool.task");
    ("worker_pool.map_ms", d "worker_pool.map");
    ("worker_pool.serial_ms", d "worker_pool.serial");
    ("worker_pool.speedup", d "worker_pool.speedup");
    ("session.server_ms", dist (served (fun s -> s.Served.reply.Served.server_ms)));
    ( "server.transport_ms",
      dist (served (fun s -> s.Served.rtt_ms -. s.Served.reply.Served.server_ms)) );
    ( "server.loop_wakeups_per_request",
      scalar (float_of_int (r.after.wakeups - r.before.wakeups) /. float_of_int n) );
    ("client.requests", scalar (float_of_int n));
    ("trace.replayed_lines", scalar (float_of_int rp.replayed));
    ("trace.unattributed_ms", scalar rp.unattributed_ms);
    ("trace.overhead_pct", scalar rp.overhead_pct);
  ]

let metric_json specs values =
  List.map
    (fun s ->
      let v = List.assoc s.name values in
      (s.name, Json.Obj [ ("value", Json.Float v.v); ("unit", Json.String s.unit) ]))
    specs

let quartiles_json xs =
  let q1, med, q3 = quartiles xs in
  [ ("median", Json.Float med); ("q1", Json.Float q1); ("q3", Json.Float q3) ]

let results_json w ~seed ~seconds ~trace ~correct (c : Served.check) problems specs values =
  Json.Obj
    [
      ("workload", Json.String (W.name w));
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("trace", Json.Bool trace);
      ("provenance", provenance ~runs:1);
      ("setups", Json.Int Served.setups);
      ("correct", Json.Bool correct);
      ("attempted", Json.Int c.attempted);
      ("failed", Json.Int c.failed);
      ("invalid", Json.Int c.invalid);
      ("error_rate", Json.Float (float_of_int c.failed /. float_of_int (max 1 c.attempted)));
      ("problems", Json.List (List.map (fun p -> Json.String p) problems));
      ( "metrics",
        Json.Obj
          (List.map
             (fun s ->
               let v = List.assoc s.name values in
               let dist =
                 if Array.length v.samples = 0 then []
                 else ("samples", Json.Int (Array.length v.samples)) :: quartiles_json v.samples
               in
               let target =
                 if s.moves = "" then []
                 else [ ("moves", Json.String s.moves); ("on", Json.String s.on) ]
               in
               ( s.name,
                 Json.Obj
                   ([ ("value", Json.Float v.v); ("unit", Json.String s.unit) ]
                   @ dist @ target) ))
             specs) );
    ]

let print_metrics specs values =
  List.iter
    (fun s ->
      let v = List.assoc s.name values in
      let n =
        if Array.length v.samples = 0 then ""
        else Printf.sprintf "  (n=%d)" (Array.length v.samples)
      in
      let target = if s.moves = "" then "" else Printf.sprintf "  -> %s on %s" s.moves s.on in
      Printf.printf "  %-34s %14.4f %-9s%s%s\n" s.name v.v s.unit n target)
    specs

let run_one w ~seed ~seconds ~trace =
  Served.ensure_out_dir ();
  let seeded = W.bytes_are_seeded w ~seed in
  let r = Served.run w ~seed ~seconds in
  let c = Served.check r in
  let problems =
    (if seeded then [] else [ "request bytes do not follow the seed" ])
    @ declared_problems () @ c.problems
  in
  let specs, values, problems, trace_file =
    if trace then
      let rp = Replay.run r ~seed ~budget_s:(float_of_int seconds /. 2.) in
      (per_layer, layer_values r rp, problems @ rp.problems, Some rp.trace_file)
    else (end_to_end, e2e_values r c, problems, None)
  in
  let problems =
    problems
    @ List.filter_map
        (fun s ->
          if Float.is_finite (List.assoc s.name values).v then None
          else Some (s.name ^ " was not measured"))
        specs
  in
  let correct = problems = [] in
  Printf.printf "%s  seed=%d  seconds=%d  trace=%d  workers=%d  requests=%d  permutations=%d\n"
    (W.name w) seed seconds (Bool.to_int trace) (W.workers w) (Array.length r.samples)
    c.attempted;
  print_metrics specs values;
  Printf.printf "  %-34s %14.4f %-9s\n" "error_rate"
    (float_of_int c.failed /. float_of_int (max 1 c.attempted))
    "ratio";
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) problems;
  let file =
    Printf.sprintf "%s/%s-seed%d-trace%d.json" Served.out_dir (W.name w) seed
      (Bool.to_int trace)
  in
  let oc = open_out file in
  Json.to_channel oc (results_json w ~seed ~seconds ~trace ~correct c problems specs values);
  close_out oc;
  Printf.printf "  results: %s\n" file;
  Option.iter (Printf.printf "  trace: %s\n") trace_file;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int c.attempted);
            ("failed", Json.Int c.failed);
            ("metrics", Json.Obj (metric_json specs values));
          ]));
  if correct then 0 else 1

(* Every workload in turn, each in its own process (a traced replay
   starts worker domains, after which this process could not fork
   another server).  The last line sums the counts and prefixes each
   metric with its workload. *)
let run_all ~seed ~seconds ~trace =
  let results =
    List.map
      (fun w ->
        let args =
          [| Sys.executable_name; "--workload"; W.name w; "--seed"; string_of_int seed;
             "--seconds"; string_of_int seconds; "--trace"; string_of_int (Bool.to_int trace) |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let rec lines last =
          match input_line ic with
          | l ->
              print_endline l;
              lines (Some l)
          | exception End_of_file -> last
        in
        let last = lines None in
        let status = Unix.close_process_in ic in
        (w, status, Option.bind last (fun l -> Result.to_option (Json.of_string l))))
      W.all
  in
  let ok = ref true and attempted = ref 0 and failed = ref 0 and metrics = ref [] in
  List.iter
    (fun (w, status, last) ->
      match (status, last) with
      | Unix.WEXITED code, Some j ->
          if code <> 0 || Json.member "correct" j <> Some (Json.Bool true) then ok := false;
          let int k = Option.value (Option.bind (Json.member k j) Json.get_int) ~default:0 in
          attempted := !attempted + int "attempted";
          failed := !failed + int "failed";
          Option.iter
            (List.iter (fun (k, v) -> metrics := (W.name w ^ "." ^ k, v) :: !metrics))
            (Option.bind (Json.member "metrics" j) Json.get_obj)
      | _ -> ok := false)
    results;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool !ok);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj (List.rev !metrics));
          ]));
  if !ok then 0 else 1

(* ---------------------------------------------------------- aggregate *)

let aggregate files =
  let docs =
    List.map
      (fun f ->
        match Option.map Json.of_string (read_file f) with
        | Some (Ok j) -> j
        | _ -> failwith ("cannot read results file " ^ f))
      files
  in
  let str k j = Option.value (Option.bind (Json.member k j) Json.get_string) ~default:"?" in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let key = (str "workload" j, Json.member "trace" j = Some (Json.Bool true)) in
      Hashtbl.replace groups key (j :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    docs;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups []) in
  let ok = ref true in
  let summary =
    List.map
      (fun ((workload, trace) as key) ->
        let runs = List.rev (Hashtbl.find groups key) in
        let specs = if trace then per_layer else end_to_end in
        Printf.printf "%s trace=%d runs=%d\n" workload (Bool.to_int trace) (List.length runs);
        let metrics =
          List.map
            (fun s ->
              let values =
                Array.of_list
                  (List.filter_map
                     (fun j ->
                       Option.bind
                         (Option.bind (Json.member "metrics" j) (Json.member s.name))
                         (fun m -> Option.bind (Json.member "value" m) Json.get_float))
                     runs)
              in
              let q1, med, q3 = quartiles values in
              let spread = if med = 0. then Float.nan else (q3 -. q1) /. Float.abs med in
              let verdict =
                if trace || s.name = "setup_s" then ""
                else if spread <= s.bound then "within bound"
                else begin
                  ok := false;
                  Printf.sprintf "ABOVE BOUND %.4f" s.bound
                end
              in
              Printf.printf "  %-34s median %12.4f  q1 %12.4f  q3 %12.4f  spread %7.4f %s\n"
                s.name med q1 q3 spread verdict;
              ( s.name,
                Json.Obj
                  [
                    ("unit", Json.String s.unit);
                    ("runs", Json.Int (Array.length values));
                    ("median", Json.Float med);
                    ("q1", Json.Float q1);
                    ("q3", Json.Float q3);
                    ("spread", Json.Float spread);
                  ] ))
            specs
        in
        let seeds =
          List.filter_map (fun j -> Option.bind (Json.member "seed" j) Json.get_int) runs
        in
        Json.Obj
          [
            ("workload", Json.String workload);
            ("trace", Json.Bool trace);
            ( "provenance",
              match Json.member "provenance" (List.hd runs) with
              | Some (Json.Obj fields) ->
                  Json.Obj
                    (List.map
                       (fun (k, v) ->
                         if k = "runs" then (k, Json.Int (List.length runs)) else (k, v))
                       fields)
              | _ -> Json.Null );
            ("seeds", Json.List (List.map (fun s -> Json.Int s) seeds));
            ("metrics", Json.Obj metrics);
          ])
      keys
  in
  print_endline (Json.to_string (Json.List summary));
  if !ok then 0 else 1

(* ------------------------------------------------------------------ CLI *)

let () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let argv = Array.to_list Sys.argv in
  match argv with
  | _ :: "aggregate" :: files -> exit (aggregate files)
  | _ ->
      let workload = ref "all" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
      Arg.parse
        [
          ("--workload", Arg.Set_string workload,
           "NAME  route32-miss, route32-hit, batch16-pool or all (default all)");
          ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
          ("--seconds", Arg.Set_int seconds, "S  length of the timed phase (default 20)");
          ("--trace", Arg.Set_int trace, "0|1  per-layer replay instead of end-to-end (default 0)");
        ]
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
         perfbench aggregate RESULTS.json...";
      if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
        prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
        exit 2
      end;
      let trace = !trace = 1 and seed = !seed and seconds = !seconds in
      let code =
        if !workload = "all" then run_all ~seed ~seconds ~trace
        else
          match W.of_name !workload with
          | Some w -> run_one w ~seed ~seconds ~trace
          | None ->
              prerr_endline ("perfbench: unknown workload " ^ !workload);
              2
      in
      exit code
