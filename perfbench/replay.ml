(* The traced half of the benchmark: replay the request lines the server
   saw, in the order it saw them, through each layer's public functions in
   this process, and time every call from here.  The program itself is not
   instrumented; every span below is recorded by the benchmark's own code
   around a call into one module.

   Per replayed line:
   - the request path mirrors Session's route / route_batch handling —
     decode, plan-cache key and lookup, routing on a miss, insert, schedule
     encoding, rendering — and must render a response byte-identical to
     the one the server returned (minus its server_ms field);
   - an untraced Session.handle_line on an in-process session runs the
     same line, for the tracing overhead (and must match too);
   - lines that route also run the kernel breakdown: the registry engine's
     plan, then Algorithm 1 spelled out through Column_graph,
     Local_grid_route and Grid_route, whose schedule must equal the
     served one.
   Spans are kept in memory and written as a Chrome trace when the replay
   ends. *)

open Qroute
module P = Server_protocol
module Json = Obs_json
module W = Workload

let now_ns = Served.now_ns
let ms_of_ns = Served.ms_of_ns

(* ------------------------------------------------------------- spans *)

type span = {
  name : string;
  id : int;
  parent : int;  (** [-1] for a root. *)
  line : int;  (** The replayed line's request id. *)
  start_ns : int;
  mutable stop_ns : int;
}

type tracer = {
  mutable spans : span list;
  mutable stack : span list;
  mutable next_id : int;
  mutable line : int;
  mutable timed : bool;  (** Whether the line belongs to the timed phase. *)
  samples : (string * bool, float list ref) Hashtbl.t;
}

let tr =
  {
    spans = [];
    stack = [];
    next_id = 0;
    line = -1;
    timed = false;
    samples = Hashtbl.create 64;
  }

let sample name v =
  let key = (name, tr.timed) in
  match Hashtbl.find_opt tr.samples key with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tr.samples key (ref [ v ])

let span name f =
  let parent = match tr.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { name; id = tr.next_id; parent; line = tr.line; start_ns = now_ns (); stop_ns = 0 }
  in
  tr.next_id <- tr.next_id + 1;
  tr.stack <- s :: tr.stack;
  let finish () =
    s.stop_ns <- now_ns ();
    tr.stack <- List.tl tr.stack;
    tr.spans <- s :: tr.spans;
    sample name (ms_of_ns (s.stop_ns - s.start_ns))
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* A layer's per-call values: those of the timed phase when it has any,
   else those of set-up (route32-hit routes only while filling). *)
let layer name =
  let get timed =
    match Hashtbl.find_opt tr.samples (name, timed) with
    | Some l -> Array.of_list !l
    | None -> [||]
  in
  let timed = get true in
  if Array.length timed > 0 then timed else get false

(* Spans whose time falls inside the server's [server_ms] window: the
   server measures from dispatch (after the envelope is parsed) to the
   response object (before it is rendered). *)
let in_server_window = function
  | "protocol.params" | "plan_cache.key" | "plan_cache.find"
  | "router_intf.route" | "plan_cache.add" | "worker_pool.map"
  | "schedule.to_json" ->
      true
  | _ -> false

let write_chrome_trace path =
  let events =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("ph", Json.String "X");
            ("ts", Json.Float (float_of_int s.start_ns /. 1e3));
            ("dur", Json.Float (float_of_int (s.stop_ns - s.start_ns) /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj [ ("line", Json.Int s.line); ("parent", Json.Int s.parent) ] );
          ])
      tr.spans
  in
  let oc = open_out path in
  Json.to_channel oc (Json.Obj [ ("traceEvents", Json.List events) ]);
  close_out oc

(* ------------------------------------------------------------- state *)

type state = {
  grid : Grid.t;
  engine : Router_intf.t;
  config : Router_config.t;
  ws : Router_workspace.t;  (** The request path's, as a session's. *)
  kws : Router_workspace.t;  (** The kernel breakdown's. *)
  cache : Plan_cache.t;
  untraced : Server_session.t;
  pool : Worker_pool.t option;
  mutable problems : string list;
}

let problem st fmt = Printf.ksprintf (fun s -> st.problems <- s :: st.problems) fmt

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let member_or_fail k j =
  match Json.member k j with Some v -> v | None -> failwith ("request lacks " ^ k)

(* --------------------------------------------------------- request path *)

let gc_sampled f =
  let q0 = Gc.quick_stat () in
  let minor0, promoted0, _ = Gc.counters () in
  let v = f () in
  let minor1, promoted1, _ = Gc.counters () in
  let q1 = Gc.quick_stat () in
  sample "gc.minor_words_per_route" (minor1 -. minor0);
  sample "gc.promoted_words_per_route" (promoted1 -. promoted0);
  sample "gc.minor_collections_per_route"
    (float_of_int (q1.Gc.minor_collections - q0.Gc.minor_collections));
  sample "gc.major_collections_per_route"
    (float_of_int (q1.Gc.major_collections - q0.Gc.major_collections));
  v

let decode text ~params =
  span "protocol.decode" @@ fun () ->
  let json = span "json.of_string" (fun () -> Json.of_string_exn text) in
  let req =
    span "protocol.envelope" (fun () ->
        match P.request_of_json json with
        | Ok r -> r
        | Error e -> failwith ("bad request envelope: " ^ e.P.message))
  in
  let grid, args =
    span "protocol.params" (fun () ->
        let grid = ok_or_fail "grid" (P.grid_of_json (member_or_fail "grid" req.P.params)) in
        (grid, params grid req.P.params))
  in
  (req, grid, args)

let route_serial st grid pi =
  let key =
    span "plan_cache.key" (fun () ->
        Plan_cache.key ~grid ~pi ~engine:st.engine.Router_intf.name ~config:st.config)
  in
  match span "plan_cache.find" (fun () -> Plan_cache.find st.cache key) with
  | Some sched -> (sched, true)
  | None ->
      let sched =
        gc_sampled (fun () ->
            span "router_intf.route" (fun () ->
                Router_intf.route ~ws:st.ws ~config:st.config st.engine
                  (Router_intf.Grid_input (grid, pi))))
      in
      span "plan_cache.add" (fun () -> Plan_cache.add st.cache key sched);
      (sched, false)

let render st req fields =
  let response =
    P.ok_response ~id:req.P.id
      (Json.Obj (("engine", Json.String st.engine.Router_intf.name) :: fields))
  in
  span "json.to_string" (fun () -> Json.to_string response)

(* What the traced request path produced for one line. *)
type traced = {
  text : string;  (** The rendered response. *)
  routed : (Grid.t * Perm.t * Schedule.t * bool) list;
      (** Per permutation: its schedule and whether it came from the cache. *)
  map_ms : float option;  (** The batch's Worker_pool.map_tasks wall time. *)
}

let request_route st text =
  span "request" @@ fun () ->
  let req, grid, pi =
    decode text ~params:(fun grid params ->
        ok_or_fail "perm"
          (P.perm_of_json ~expect_size:(Grid.size grid) (member_or_fail "perm" params)))
  in
  let sched, cached = route_serial st grid pi in
  let sj = span "schedule.to_json" (fun () -> Schedule.to_json sched) in
  let text = render st req [ ("cached", Json.Bool cached); ("schedule", sj) ] in
  { text; routed = [ (grid, pi, sched, cached) ]; map_ms = None }

(* One route_batch item as the server's pool runs it, on whichever domain
   picks it up; timings come back with the result and are recorded on the
   main domain.  The workspace is the request path's, so, as on the
   server, only the domain that owns it reuses its buffers. *)
type item_times = {
  wait_ns : int;
  key_ns : int;
  find_ns : int;
  route_ns : int option;
  add_ns : int option;
  task_ns : int;
}

let route_item st grid ~map_start pi =
  let t0 = now_ns () in
  let key = Plan_cache.key ~grid ~pi ~engine:st.engine.Router_intf.name ~config:st.config in
  let t1 = now_ns () in
  let hit = Plan_cache.find st.cache key in
  let t2 = now_ns () in
  match hit with
  | Some sched ->
      ( sched,
        true,
        { wait_ns = t0 - map_start; key_ns = t1 - t0; find_ns = t2 - t1;
          route_ns = None; add_ns = None; task_ns = t2 - t0 } )
  | None ->
      let sched =
        Router_intf.route ~ws:st.ws ~config:st.config st.engine
          (Router_intf.Grid_input (grid, pi))
      in
      let t3 = now_ns () in
      Plan_cache.add st.cache key sched;
      let t4 = now_ns () in
      ( sched,
        false,
        { wait_ns = t0 - map_start; key_ns = t1 - t0; find_ns = t2 - t1;
          route_ns = Some (t3 - t2); add_ns = Some (t4 - t3); task_ns = t4 - t0 } )

let request_batch st pool text =
  span "request" @@ fun () ->
  let req, grid, perms =
    decode text ~params:(fun grid params ->
        match member_or_fail "perms" params with
        | Json.List l ->
            List.map
              (fun j -> ok_or_fail "perm" (P.perm_of_json ~expect_size:(Grid.size grid) j))
              l
        | _ -> failwith "perms: expected a list")
  in
  let map_start = now_ns () in
  let results =
    span "worker_pool.map" (fun () ->
        Worker_pool.map_tasks pool (route_item st grid ~map_start) perms)
  in
  let map_ms = ms_of_ns (now_ns () - map_start) in
  List.iter
    (fun (_, _, t) ->
      let ms = ms_of_ns in
      sample "worker_pool.queue_wait" (ms t.wait_ns);
      sample "worker_pool.task" (ms t.task_ns);
      sample "plan_cache.key" (ms t.key_ns);
      sample "plan_cache.find" (ms t.find_ns);
      Option.iter (fun v -> sample "router_intf.route" (ms v)) t.route_ns;
      Option.iter (fun v -> sample "plan_cache.add" (ms v)) t.add_ns)
    results;
  let sjs =
    span "schedule.to_json" (fun () ->
        List.map (fun (s, _, _) -> Schedule.to_json s) results)
  in
  let text =
    render st req
      [
        ("schedules", Json.List sjs);
        ("cached", Json.List (List.map (fun (_, c, _) -> Json.Bool c) results));
        ("completed", Json.Int (List.length results));
      ]
  in
  {
    text;
    routed = List.map2 (fun pi (s, c, _) -> (grid, pi, s, c)) perms results;
    map_ms = Some map_ms;
  }

(* ----------------------------------------------------- kernel breakdown *)

(* Algorithm 1 as the [local] engine runs it with the default
   configuration (transpose race on), one public call per layer. *)
let kernel st grid pi expected =
  span "kernel" @@ fun () ->
  let input = Router_intf.Grid_input (grid, pi) in
  let planned =
    Router_intf.execute_plan
      (span "router_intf.plan" (fun () ->
           st.engine.Router_intf.plan (Some st.kws) st.config input))
  in
  let discovery = st.config.Router_config.discovery
  and assignment = st.config.Router_config.assignment in
  let orient g p =
    let cg =
      span "column_graph.build" (fun () ->
          Column_graph.build ?reuse:(Router_workspace.reusable_cg (Some st.kws)) g p)
    in
    Router_workspace.remember_cg st.kws cg;
    let matchings =
      span "local_grid_route.discover" (fun () ->
          Local_grid_route.discover_matchings
            ?hk:(Router_workspace.hk (Some st.kws))
            discovery cg)
    in
    let assigned_rows =
      span "local_grid_route.assign" (fun () ->
          Local_grid_route.assign_rows assignment cg matchings)
    in
    let sigmas =
      span "grid_route.sigmas" (fun () ->
          Grid_route.sigmas_of_assignment cg ~matchings ~assigned_rows)
    in
    span "grid_route.rounds" (fun () -> Grid_route.route_with_sigmas g p sigmas)
  in
  let direct = span "local_grid_route.direct" (fun () -> orient grid pi) in
  let transposed =
    span "local_grid_route.transposed" (fun () ->
        orient (Grid.transpose grid) (Grid_perm.transpose grid pi))
  in
  let lifted = Schedule.map_vertices (Grid_perm.untranspose_vertex grid) transposed in
  let best = if Schedule.depth lifted < Schedule.depth direct then lifted else direct in
  ignore
    (span "schedule.compact" (fun () -> Schedule.compact ~n:(Grid.size grid) best));
  sample "schedule.depth" (float_of_int (Schedule.depth expected));
  if planned <> expected || best <> expected then
    problem st "line %d: the kernel breakdown's schedule differs from the served one"
      tr.line

(* ------------------------------------------------------- worker pool *)

(* Serial time over the pool's wall time for one group of permutations
   routed as fresh plans, the base of worker_pool.speedup. *)
let pool_probe st pool perms =
  let input pi = Router_intf.Grid_input (st.grid, pi) in
  let t0 = now_ns () in
  List.iter
    (fun pi -> ignore (Router_intf.route ~ws:st.ws ~config:st.config st.engine (input pi)))
    perms;
  let serial = now_ns () - t0 in
  let map_start = now_ns () in
  let times =
    span "worker_pool.map" (fun () ->
        Worker_pool.map_tasks pool
          (fun pi ->
            let s0 = now_ns () in
            ignore (Router_intf.route ~ws:st.ws ~config:st.config st.engine (input pi));
            (s0 - map_start, now_ns () - s0))
          perms)
  in
  let map = now_ns () - map_start in
  List.iter
    (fun (wait, task) ->
      sample "worker_pool.queue_wait" (ms_of_ns wait);
      sample "worker_pool.task" (ms_of_ns task))
    times;
  sample "worker_pool.serial" (ms_of_ns serial);
  sample "worker_pool.speedup" (float_of_int serial /. float_of_int map)

(* ------------------------------------------------------------- replay *)

type result = {
  replayed : int;  (** Timed lines replayed. *)
  unattributed_ms : float;
  overhead_pct : float;
  problems : string list;
  trace_file : string;
}

let strip_server_ms text =
  let r = Served.split_server_ms text in
  Served.body_text r

(* Lines are replayed while [budget_s] lasts, all set-up lines and at
   least [min_timed] timed ones regardless. *)
let min_timed = 8

let run (r : Served.run) ~seed ~budget_s =
  let w = r.Served.workload in
  Metrics.enable ();
  let pool =
    match w with
    | W.Batch16_pool -> Some (Worker_pool.create ~workers:(W.workers w) ())
    | W.Route32_miss | W.Route32_hit -> None
  in
  let st =
    {
      grid = W.grid w;
      engine = Router_registry.get "local";
      config = Router_config.default;
      ws = Router_workspace.create ();
      kws = Router_workspace.create ();
      cache = Plan_cache.create ~capacity:Server_session.default_config.cache_capacity ();
      untraced = Server_session.create ?pool ();
      pool;
      problems = [];
    }
  in
  let deadline = now_ns () + int_of_float (budget_s *. 1e9) in
  let traced_ns = ref 0 and untraced_ns = ref 0 in
  let unattributed = ref [] and replayed = ref 0 in
  let replay ~timed ~served (line : W.line) k =
    tr.line <- line.W.id;
    tr.timed <- timed;
    let text = W.text line in
    let untraced () =
      let t0 = now_ns () in
      let resp = Server_session.handle_line st.untraced text in
      (now_ns () - t0, strip_server_ms resp)
    in
    let first_span = tr.next_id in
    let traced () =
      let t0 = now_ns () in
      let out =
        match st.pool with
        | Some pool -> request_batch st pool text
        | None -> request_route st text
      in
      (now_ns () - t0, out)
    in
    (* Alternate which runs first, so neither always finds the caches
       warmed by the other. *)
    let (u_ns, u_text), (t_ns, out) =
      if k mod 2 = 0 then
        let u = untraced () in
        (u, traced ())
      else
        let t = traced () in
        (untraced (), t)
    in
    let request_spans =
      let rec since acc = function
        | s :: rest when s.id >= first_span -> since (s :: acc) rest
        | _ -> acc
      in
      since [] tr.spans
    in
    (match served with
    | None -> ()
    | Some (served : Served.sample) ->
        let served_text = Served.body_text served.Served.reply in
        if out.text <> served_text then
          problem st "line %d: replayed response differs from the served one" line.W.id;
        if u_text <> served_text then
          problem st "line %d: in-process session response differs from the served one"
            line.W.id;
        traced_ns := !traced_ns + t_ns;
        untraced_ns := !untraced_ns + u_ns;
        incr replayed;
        let attributed =
          List.fold_left
            (fun acc s ->
              if in_server_window s.name then acc +. ms_of_ns (s.stop_ns - s.start_ns)
              else acc)
            0. request_spans
        in
        unattributed := (served.Served.reply.Served.server_ms -. attributed) :: !unattributed);
    (* Serial pass and kernel breakdown for every permutation routed. *)
    let fresh = List.filter (fun (_, _, _, cached) -> not cached) out.routed in
    (match out.map_ms with
    | Some map_ms when fresh <> [] ->
        let t0 = now_ns () in
        List.iter
          (fun (grid, pi, _, _) ->
            ignore
              (gc_sampled (fun () ->
                   Router_intf.route ~ws:st.ws ~config:st.config st.engine
                     (Router_intf.Grid_input (grid, pi)))))
          fresh;
        let serial = now_ns () - t0 in
        sample "worker_pool.serial" (ms_of_ns serial);
        sample "worker_pool.speedup" (ms_of_ns serial /. map_ms)
    | _ -> ());
    List.iter (fun (grid, pi, sched, _) -> kernel st grid pi sched) fresh
  in
  List.iteri (fun k l -> replay ~timed:false ~served:None l k) r.Served.setup_lines;
  let samples = r.Served.samples in
  let hits0 = Plan_cache.hits st.cache and misses0 = Plan_cache.misses st.cache in
  let rec timed i =
    if i < Array.length samples && (i < min_timed || now_ns () < deadline) then begin
      let s = samples.(i) in
      replay ~timed:true ~served:(Some s) s.Served.line i;
      timed (i + 1)
    end
  in
  timed 0;
  (* The replay's own cache must have answered the timed lines as the
     server's counters say the server's did. *)
  let ratio hits misses = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let replay_ratio =
    ratio (Plan_cache.hits st.cache - hits0) (Plan_cache.misses st.cache - misses0)
  and server_ratio =
    ratio (r.after.hits - r.before.hits) (r.after.misses - r.before.misses)
  in
  if replay_ratio <> server_ratio then
    problem st "replayed plan-cache hit ratio %.3f, server's %.3f" replay_ratio server_ratio;
  (match pool with
  | Some p -> Worker_pool.shutdown p
  | None ->
      (* route32-* serve on one worker; the pool layer is probed with one
         group of nproc permutations, routed as fresh plans. *)
      let workers = Domain.recommended_domain_count () in
      let perms =
        List.filteri (fun i _ -> i < workers)
          (List.concat_map (fun (l : W.line) -> l.W.perms) r.Served.setup_lines)
      in
      let pool = Worker_pool.create ~workers () in
      Fun.protect ~finally:(fun () -> Worker_pool.shutdown pool) @@ fun () ->
      tr.timed <- true;
      tr.line <- -1;
      for _ = 1 to 3 do
        pool_probe st pool perms
      done);
  let trace_file =
    Printf.sprintf "%s/trace-%s-seed%d.json" Served.out_dir (W.name w) seed
  in
  write_chrome_trace trace_file;
  let median l = match l with [] -> Float.nan | l -> Stats.median (Array.of_list l) in
  {
    replayed = !replayed;
    unattributed_ms = median !unattributed;
    overhead_pct =
      100. *. float_of_int (!traced_ns - !untraced_ns) /. float_of_int (max 1 !untraced_ns);
    problems = List.rev st.problems;
    trace_file;
  }
