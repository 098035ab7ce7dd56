(* Benchmark harness regenerating the paper's evaluation.

   The paper (an extended abstract) has two figures and no tables:

     Figure 4 — depth of computed swap networks, per grid size, workload
                class and algorithm;
     Figure 5 — time spent finding the swap networks, same sweep.

   Modes (first CLI argument):

     fig4      print the Figure-4 depth series
     fig5      print the Figure-5 runtime series
     phases    per-strategy phase-cost breakdown (Qr_obs spans + counters);
               writes BENCH_phases.json
     parallel  route_batch throughput at 1/2/4/8 worker domains;
               writes BENCH_parallel.json
     overload  cancellation-checkpoint overhead and adaptive-admission
               behavior under a burst; writes BENCH_overload.json
     evloop    readiness-loop behavior over a live socket server: idle
               wakeups/sec, round-trip latency under idle connections
               and under a never-reading slow client;
               writes BENCH_evloop.json
     ablation  isolate each design choice of LocalGridRoute
     circuits  end-to-end transpilation of the motivating workloads
     realistic depth on permutations harvested from real transpilations
     micro     Bechamel micro-benchmarks (one Test.make per figure/ablation)
     all       everything above (default)

   Optional second argument: comma-separated square grid sides for the
   sweeps (default "4,8,12,16,20,24").  With QROUTE_CSV=<dir> in the
   environment, fig4/fig5 additionally write machine-readable CSV files
   (one row per grid x workload x strategy x seed) for plotting.  Every
   schedule produced anywhere in this harness is checked to realize its
   permutation. *)

open Qroute

(* Module aliases alone do not force the umbrella's initializer; complete
   the engine registry explicitly (idempotent). *)
let () = Token_engines.register ()

let default_sides = [ 4; 8; 12; 16; 20; 24 ]

let seeds = 5

(* One measured cell of the sweep: mean depth and mean seconds over seeds,
   with the correctness of each schedule asserted. *)
let measure ?on_sample grid kind engine =
  let depths = Array.make seeds 0. in
  let times = Array.make seeds 0. in
  for seed = 0 to seeds - 1 do
    let pi = Generators.generate grid kind (Rng.create (1000 + seed)) in
    let sched, seconds =
      Timer.time (fun () -> Router_intf.route_grid engine grid pi)
    in
    assert (Schedule.realizes ~n:(Grid.size grid) sched pi);
    depths.(seed) <- float_of_int (Schedule.depth sched);
    times.(seed) <- seconds;
    match on_sample with
    | Some f -> f seed (Schedule.depth sched) (Schedule.size sched) seconds
    | None -> ()
  done;
  (Stats.mean depths, Stats.mean times)

let header title =
  Printf.printf "\n================ %s ================\n" title

(* Mean depth lower bound over the sweep's seeds, for the gap column. *)
let mean_lower_bound grid kind =
  let bounds = Array.make seeds 0. in
  for seed = 0 to seeds - 1 do
    let pi = Generators.generate grid kind (Rng.create (1000 + seed)) in
    bounds.(seed) <- float_of_int (Bounds.depth_lower_bound grid pi)
  done;
  Stats.mean bounds

let csv_dir () = Sys.getenv_opt "QROUTE_CSV"

(* Raw per-seed rows for external plotting. *)
let write_csv name rows =
  match csv_dir () with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            "grid_side,workload,strategy,seed,depth,swaps,seconds\n";
          List.iter
            (fun (side, kind, strategy, seed, depth, swaps, seconds) ->
              Out_channel.output_string oc
                (Printf.sprintf "%d,%s,%s,%d,%d,%d,%.9f\n" side kind strategy
                   seed depth swaps seconds))
            (List.rev rows));
      Printf.printf "(csv written to %s)\n" path

let csv_rows : (int * string * string * int * int * int * float) list ref =
  ref []

let record_csv side kind engine seed depth swaps seconds =
  if csv_dir () <> None then
    csv_rows :=
      (side, Generators.name kind, engine.Router_intf.name, seed, depth,
       swaps, seconds)
      :: !csv_rows

(* The sweep's engine set and column headers come from the registry, so a
   newly registered engine shows up in Figures 4 and 5 with no harness
   change. *)
let sweep sides pick render unit_label ~with_bound =
  let engines = Router_registry.all () in
  Printf.printf "%-6s %-13s" "grid" "workload";
  List.iter
    (fun e -> Printf.printf " %12s" e.Router_intf.name)
    engines;
  if with_bound then Printf.printf "        bound";
  print_newline ();
  List.iter
    (fun side ->
      let grid = Grid.make ~rows:side ~cols:side in
      List.iter
        (fun kind ->
          Printf.printf "%-6s %-13s"
            (Printf.sprintf "%dx%d" side side)
            (Generators.name kind);
          List.iter
            (fun engine ->
              let cell =
                pick
                  (measure
                     ~on_sample:(fun seed depth swaps seconds ->
                       record_csv side kind engine seed depth swaps seconds)
                     grid kind engine)
              in
              Printf.printf " %12s" (render cell))
            engines;
          if with_bound then
            Printf.printf " %12.2f" (mean_lower_bound grid kind);
          print_newline ())
        (Generators.paper_kinds grid))
    sides;
  Printf.printf "(%s; mean over %d seeds)\n" unit_label seeds

let fig4 sides =
  header "Figure 4: depth of computed swap networks";
  csv_rows := [];
  sweep sides fst
    (fun x -> Printf.sprintf "%.2f" x)
    "depth in matchings/SWAP layers; bound = displacement/cut lower bound"
    ~with_bound:true;
  write_csv "fig4" !csv_rows

let fig5 sides =
  header "Figure 5: time spent finding swap networks";
  csv_rows := [];
  sweep sides
    (fun (_, t) -> t)
    (fun x -> Printf.sprintf "%.6f" x)
    "seconds per routing call" ~with_bound:false;
  write_csv "fig5" !csv_rows

(* --------------------------------------------------------------- phases *)

(* Per-strategy phase-cost breakdown over the random workload: route with
   the span tracer and metrics registry on, print the per-phase summary,
   and write the whole sweep to BENCH_phases.json.  This is the yardstick
   for perf PRs: it attributes runtime to band search, MCBBM assignment,
   the three odd–even rounds, decomposition and ATS trials rather than one
   end-to-end wall clock. *)
let phases sides =
  header "Phase breakdown: where the routing time goes (random workload)";
  let engines = Router_registry.all () in
  let grids_json =
    List.map
      (fun side ->
        let grid = Grid.make ~rows:side ~cols:side in
        let per_strategy =
          List.map
            (fun engine ->
              Trace.start ();
              Metrics.reset ();
              Metrics.enable ();
              for seed = 0 to seeds - 1 do
                let pi =
                  Generators.generate grid Generators.Random
                    (Rng.create (1000 + seed))
                in
                let sched = Router_intf.route_grid engine grid pi in
                assert (Schedule.realizes ~n:(Grid.size grid) sched pi)
              done;
              let spans = Trace.stop () in
              Metrics.disable ();
              Printf.printf "\n-- %dx%d  %s  (%d seeds)\n%s" side side
                engine.Router_intf.name seeds (Trace.summary_table spans);
              Obs_json.Obj
                [
                  ("strategy", Obs_json.String engine.Router_intf.name);
                  ("phases", Trace.summary_json spans);
                  ("metrics", Metrics.to_json ());
                ])
            engines
        in
        Obs_json.Obj
          [
            ("grid_side", Obs_json.Int side);
            ("strategies", Obs_json.List per_strategy);
          ])
      sides
  in
  let doc =
    Obs_json.Obj
      [
        ("workload", Obs_json.String "random");
        ("seeds", Obs_json.Int seeds);
        ("grids", Obs_json.List grids_json);
      ]
  in
  let path = "BENCH_phases.json" in
  Out_channel.with_open_text path (fun oc -> Obs_json.to_channel oc doc);
  (* Self-check: what we wrote must parse back to the same document. *)
  let content = In_channel.with_open_text path In_channel.input_all in
  (match Obs_json.of_string content with
  | Ok parsed ->
      if not (Obs_json.equal parsed doc) then
        failwith "BENCH_phases.json did not round-trip"
  | Error msg -> failwith ("BENCH_phases.json is not well-formed: " ^ msg));
  Printf.printf "\n(phase breakdown written to %s)\n" path;
  (* The same registry in Prometheus text format (the last strategy's
     counts — the registry is reset per strategy above): an exemplar
     exposition for scrape-and-plot tooling, and a standing check that
     [to_prometheus] renders every instrument the routing stack
     registers. *)
  let prom_path = "BENCH_phases.prom" in
  Out_channel.with_open_text prom_path (fun oc ->
      output_string oc (Metrics.to_prometheus ()));
  Printf.printf "(prometheus exposition written to %s)\n" prom_path

(* ------------------------------------------------------------- parallel *)

(* Multicore scaling of route_batch-style fan-out: route the same bag of
   random permutations through a {!Worker_pool} of 1/2/4/8 domains and
   report throughput, speedup over the single-worker run and the
   per-item latency tail.  This is the yardstick for the [serve
   --workers N] mode: the pool and the per-item task closure here are
   exactly what the server's [route_batch] handler submits.  Writes
   BENCH_parallel.json.  On a single-core container the speedups will
   hover near 1.0 — the interesting numbers come from a multi-core
   runner (CI). *)
let parallel () =
  header "Parallel: route_batch throughput vs worker count (16x16, random)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  let n = Grid.size grid in
  let engine = Router_registry.get "local" in
  let perm_count = 64 in
  let perms =
    List.init perm_count (fun i ->
        Generators.generate grid Generators.Random (Rng.create (11000 + i)))
  in
  let run workers =
    let pool = Worker_pool.create ~workers () in
    (* Warm-up pass so domain spawn cost and first-touch allocation stay
       out of the measured run. *)
    ignore
      (Worker_pool.map_tasks pool
         (fun pi -> Schedule.depth (Router_intf.route_grid engine grid pi))
         perms);
    let latencies, wall =
      Timer.time (fun () ->
          Worker_pool.map_tasks pool
            (fun pi ->
              let sched, seconds =
                Timer.time (fun () -> Router_intf.route_grid engine grid pi)
              in
              assert (Schedule.realizes ~n sched pi);
              seconds)
            perms)
    in
    Worker_pool.shutdown pool;
    let lat = Array.of_list latencies in
    Array.sort compare lat;
    ( float_of_int perm_count /. wall,
      wall,
      Stats.percentile lat 50.,
      Stats.percentile lat 99. )
  in
  let worker_counts = [ 1; 2; 4; 8 ] in
  let results = List.map (fun w -> (w, run w)) worker_counts in
  let base_throughput =
    match results with (_, (t, _, _, _)) :: _ -> t | [] -> nan
  in
  Printf.printf "%-8s %14s %10s %12s %12s\n" "workers" "perms/s" "speedup"
    "p50 (ms)" "p99 (ms)";
  let rows =
    List.map
      (fun (w, (throughput, wall, p50, p99)) ->
        let speedup = throughput /. base_throughput in
        Printf.printf "%-8d %14.1f %10.2f %12.3f %12.3f\n" w throughput
          speedup (p50 *. 1e3) (p99 *. 1e3);
        Obs_json.Obj
          [
            ("workers", Obs_json.Int w);
            ("throughput_per_s", Obs_json.Float throughput);
            ("wall_s", Obs_json.Float wall);
            ("speedup", Obs_json.Float speedup);
            ("p50_ms", Obs_json.Float (p50 *. 1e3));
            ("p99_ms", Obs_json.Float (p99 *. 1e3));
          ])
      results
  in
  let doc =
    Obs_json.Obj
      [
        ("workload", Obs_json.String "random");
        ("grid_side", Obs_json.Int 16);
        ("strategy", Obs_json.String "local");
        ("perms", Obs_json.Int perm_count);
        ("rows", Obs_json.List rows);
      ]
  in
  let path = "BENCH_parallel.json" in
  Out_channel.with_open_text path (fun oc -> Obs_json.to_channel oc doc);
  let content = In_channel.with_open_text path In_channel.input_all in
  (match Obs_json.of_string content with
  | Ok parsed ->
      if not (Obs_json.equal parsed doc) then
        failwith "BENCH_parallel.json did not round-trip"
  | Error msg ->
      failwith ("BENCH_parallel.json is not well-formed: " ^ msg));
  Printf.printf "(parallel scaling written to %s)\n" path

(* ------------------------------------------------------------- overload *)

(* The supervision plane under pressure, and the cost of being
   supervisable.  Two measurements:

   - {e checkpoint overhead}: the same routing workload with no cancel
     token vs a live (never-fired) ambient token — the per-poll cost of
     the cooperative-cancellation checkpoints, which DESIGN.md §14
     promises is noise;
   - {e burst behavior}: a burst several times the pool's queue bound is
     pushed through a worker pool under a supervisor with an adaptive
     queue-delay target; we record how many requests completed vs were
     shed, the retry hints handed out, and the completed requests'
     latency tail.  This is the shape of the serve-loop's admission
     logic ([Server.run_socket --workers N --queue-delay-ms T]) without
     the sockets.

   Writes BENCH_overload.json. *)
let overload () =
  header "Overload: cancellation overhead and adaptive admission";
  let grid = Grid.make ~rows:16 ~cols:16 in
  let n = Grid.size grid in
  let engine = Router_registry.get "local" in
  let perms =
    List.init 48 (fun i ->
        Generators.generate grid Generators.Random (Rng.create (23000 + i)))
  in
  let route pi = Router_intf.route_grid engine grid pi in
  let time_all label f =
    ignore (List.map f perms);
    (* warm-up *)
    let _, seconds = Timer.time (fun () -> ignore (List.map f perms)) in
    let per_route_ms = seconds /. float_of_int (List.length perms) *. 1e3 in
    Printf.printf "%-24s %10.3f ms/route\n" label per_route_ms;
    per_route_ms
  in
  let bare_ms = time_all "no cancel token" route in
  let watched_ms =
    time_all "live ambient token" (fun pi ->
        Cancel.with_ambient (Cancel.create ()) (fun () -> route pi))
  in
  let overhead_pct = (watched_ms -. bare_ms) /. bare_ms *. 100. in
  Printf.printf "checkpoint overhead: %+.1f%%\n" overhead_pct;
  (* Burst: queue bound 16, 4 workers, 160 submissions.  The supervisor
     sheds on queue-delay EWMA; the pool's hard bound sheds the rest. *)
  let workers = 4 and queue_bound = 16 and burst = 160 in
  let sup = Supervisor.create ~queue_delay_target_ms:2 ~workers () in
  let pool = Worker_pool.create ~queue_bound ~workers () in
  let completed = ref 0 and shed = ref 0 and hints = ref [] in
  let mutex = Mutex.create () in
  let latencies = ref [] in
  let submit i =
    let pi = List.nth perms (i mod List.length perms) in
    let submitted_ns = Timer.now_ns () in
    match Supervisor.should_shed sup with
    | Some hint ->
        Mutex.lock mutex;
        incr shed;
        hints := hint :: !hints;
        Mutex.unlock mutex
    | None ->
        let job () =
          Supervisor.note_queue_delay sup
            (Int64.sub (Timer.now_ns ()) submitted_ns);
          let sched, seconds = Timer.time (fun () -> route pi) in
          assert (Schedule.realizes ~n sched pi);
          Mutex.lock mutex;
          incr completed;
          latencies := seconds :: !latencies;
          Mutex.unlock mutex
        in
        if not (Worker_pool.submit pool job) then begin
          Mutex.lock mutex;
          incr shed;
          hints := Supervisor.retry_hint_ms sup :: !hints;
          Mutex.unlock mutex
        end
  in
  let _, wall = Timer.time (fun () ->
      for i = 0 to burst - 1 do
        submit i
      done;
      Worker_pool.shutdown pool)
  in
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let p50 = if Array.length lat = 0 then nan else Stats.percentile lat 50. in
  let p99 = if Array.length lat = 0 then nan else Stats.percentile lat 99. in
  let mean_hint =
    match !hints with
    | [] -> 0.
    | l ->
        float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  Printf.printf
    "burst %d through %d workers (bound %d): %d completed, %d shed, mean \
     retry hint %.0f ms, p50 %.3f ms, p99 %.3f ms\n"
    burst workers queue_bound !completed !shed mean_hint (p50 *. 1e3)
    (p99 *. 1e3);
  if !completed + !shed <> burst then
    failwith "overload bench lost requests: completed + shed <> burst";
  let doc =
    Obs_json.Obj
      [
        ("grid_side", Obs_json.Int 16);
        ("strategy", Obs_json.String "local");
        ("cancel_overhead_pct", Obs_json.Float overhead_pct);
        ("bare_ms_per_route", Obs_json.Float bare_ms);
        ("watched_ms_per_route", Obs_json.Float watched_ms);
        ( "burst",
          Obs_json.Obj
            [
              ("submissions", Obs_json.Int burst);
              ("workers", Obs_json.Int workers);
              ("queue_bound", Obs_json.Int queue_bound);
              ("queue_delay_target_ms", Obs_json.Int 2);
              ("completed", Obs_json.Int !completed);
              ("shed", Obs_json.Int !shed);
              ("mean_retry_hint_ms", Obs_json.Float mean_hint);
              ("wall_s", Obs_json.Float wall);
              ("p50_ms", Obs_json.Float (p50 *. 1e3));
              ("p99_ms", Obs_json.Float (p99 *. 1e3));
            ] );
      ]
  in
  let path = "BENCH_overload.json" in
  Out_channel.with_open_text path (fun oc -> Obs_json.to_channel oc doc);
  let content = In_channel.with_open_text path In_channel.input_all in
  (match Obs_json.of_string content with
  | Ok parsed ->
      if not (Obs_json.equal parsed doc) then
        failwith "BENCH_overload.json did not round-trip"
  | Error msg ->
      failwith ("BENCH_overload.json is not well-formed: " ^ msg));
  Printf.printf "(overload behavior written to %s)\n" path

(* --------------------------------------------------------------- evloop *)

(* Readiness-loop behavior over a live Unix-domain socket server
   (DESIGN.md §15), measured from the outside:

   - {e idle wakeups}: the [server_loop_wakeups] counter delta over a
     quiet window — the old loop ticked every second even with nothing
     to do; the event loop arms no timer and must sit at ~0/s;
   - {e connection scaling}: round-trip latency of a busy connection
     while dozens of idle connections are parked in the poll set;
   - {e slow reader}: the same round-trips while one client floods
     pipelined requests and never reads a byte.  The historical
     blocking write_all wedged the accept loop on that client; the
     write-queued loop must keep the healthy tail close to baseline and
     close the staller at its outbox cap ([server_slow_client_closes]).

   Writes BENCH_evloop.json. *)
let evloop () =
  header "Event loop: idle wakeups, connection scaling, slow reader";
  (* The staller's descriptor is closed server-side mid-flood; writes
     into it must surface as EPIPE, not kill the harness. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let module Session = Server_session in
  let module P = Server_protocol in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qr_bench_evloop_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let outbox_cap = 65_536 in
  let config =
    { Session.default_config with Session.max_outbox_bytes = outbox_cap }
  in
  (* The child would otherwise replay the parent's buffered stdout. *)
  flush stdout;
  match Unix.fork () with
  | 0 ->
      (try Server.run_socket ~config ~path () with _ -> ());
      exit 0
  | child ->
      let finally () =
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      let rec await tries =
        if tries = 0 then failwith "evloop bench: server socket never appeared";
        if not (Sys.file_exists path) then begin
          Unix.sleepf 0.02;
          await (tries - 1)
        end
      in
      await 250;
      let connect () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
      (* One blocking request/response round trip on a persistent
         connection; every response envelope is validated. *)
      let route_line id =
        Printf.sprintf
          {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": [8,7,6,5,4,3,2,1,0], "engine": "local"}}|}
          id
      in
      let chunk = Bytes.create 4096 in
      let inbox = Buffer.create 512 in
      let round_trip fd line =
        let line = line ^ "\n" in
        let len = String.length line in
        let rec send off =
          if off < len then send (off + Unix.write_substring fd line off (len - off))
        in
        send 0;
        let rec recv () =
          match String.index_opt (Buffer.contents inbox) '\n' with
          | Some i ->
              let data = Buffer.contents inbox in
              let response = String.sub data 0 i in
              Buffer.clear inbox;
              Buffer.add_substring inbox data (i + 1)
                (String.length data - i - 1);
              response
          | None -> (
              match Unix.read fd chunk 0 4096 with
              | 0 -> failwith "evloop bench: server closed the busy connection"
              | k ->
                  Buffer.add_subbytes inbox chunk 0 k;
                  recv ())
        in
        let response = recv () in
        (match P.response_result (Obs_json.of_string_exn response) with
        | Ok _ -> ()
        | Error err ->
            failwith ("evloop bench: error response: " ^ err.P.message));
        response
      in
      let counter_rpc fd name =
        let reply =
          round_trip fd (Printf.sprintf {|{"id": 0, "method": "metrics"}|})
        in
        match P.response_result (Obs_json.of_string_exn reply) with
        | Ok metrics -> (
            match Obs_json.member "counters" metrics with
            | Some (Obs_json.Obj fields) -> (
                match List.assoc_opt name fields with
                | Some (Obs_json.Int n) -> n
                | _ -> 0)
            | _ -> 0)
        | Error err -> failwith ("evloop bench: metrics: " ^ err.P.message)
      in
      let busy = connect () in
      Fun.protect ~finally:(fun () -> close busy) @@ fun () ->
      (* Warm-up: plan cache filled, steady state. *)
      for i = 1 to 10 do
        ignore (round_trip busy (route_line i))
      done;
      (* Idle wakeups: calibrate the cost of the probe itself with two
         back-to-back reads, then measure a quiet window. *)
      let w_a = counter_rpc busy "server_loop_wakeups" in
      let w_b = counter_rpc busy "server_loop_wakeups" in
      let probe_cost = w_b - w_a in
      let window_s = 3.0 in
      Unix.sleepf window_s;
      let w_c = counter_rpc busy "server_loop_wakeups" in
      let idle_wakeups_per_s =
        Float.max 0. (float_of_int (w_c - w_b - probe_cost) /. window_s)
      in
      Printf.printf
        "idle wakeups: %.2f/s over a %.0fs window (probe costs %d wakeups)\n"
        idle_wakeups_per_s window_s probe_cost;
      let requests = 200 in
      let timed_run label ~before_each =
        let samples = Array.make requests 0. in
        for i = 0 to requests - 1 do
          before_each ();
          let _, seconds =
            Timer.time (fun () -> round_trip busy (route_line (100 + i)))
          in
          samples.(i) <- seconds *. 1e3
        done;
        Array.sort compare samples;
        let p50 = Stats.percentile samples 50. in
        let p99 = Stats.percentile samples 99. in
        Printf.printf "%-28s p50 %8.3f ms   p99 %8.3f ms\n" label p50 p99;
        (p50, p99)
      in
      (* Baseline with a pile of idle connections parked in the poll
         set: scaling in fd count, not in work. *)
      let idle_conns = List.init 64 (fun _ -> connect ()) in
      Fun.protect ~finally:(fun () -> List.iter close idle_conns) @@ fun () ->
      let base_p50, base_p99 =
        timed_run "64 idle connections" ~before_each:(fun () -> ())
      in
      (* Slow reader: flood without ever reading, topped up nonblocking
         before every timed round trip so the stall persists through the
         measurement. *)
      let staller = connect () in
      Fun.protect ~finally:(fun () -> close staller) @@ fun () ->
      Unix.set_nonblock staller;
      let flood_line = route_line 7777 ^ "\n" in
      let flood = String.concat "" (List.init 64 (fun _ -> flood_line)) in
      let staller_open = ref true in
      let top_up () =
        if !staller_open then
          try ignore (Unix.write_substring staller flood 0 (String.length flood))
          with
          | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              staller_open := false
      in
      for _ = 1 to 50 do
        top_up ()
      done;
      let stall_p50, stall_p99 = timed_run "one never-reading client" ~before_each:top_up in
      (* The staller must be closed at the cap once its backlog passes
         the kernel buffer plus the outbox bound. *)
      let rec await_close tries =
        if tries = 0 then 0
        else
          let n = counter_rpc busy "server_slow_client_closes" in
          if n >= 1 then n
          else begin
            top_up ();
            Unix.sleepf 0.1;
            await_close (tries - 1)
          end
      in
      let slow_closes = await_close 100 in
      Printf.printf "slow clients closed at the %d-byte cap: %d\n" outbox_cap
        slow_closes;
      if slow_closes < 1 then
        failwith "evloop bench: staller was never closed at the outbox cap";
      let ratio = if base_p99 > 0. then stall_p99 /. base_p99 else nan in
      Printf.printf "p99 under stall / p99 baseline: %.2fx\n" ratio;
      let doc =
        Obs_json.Obj
          [
            ("workers", Obs_json.Int 1);
            ( "idle",
              Obs_json.Obj
                [
                  ("window_s", Obs_json.Float window_s);
                  ("probe_cost_wakeups", Obs_json.Int probe_cost);
                  ("wakeups_per_s", Obs_json.Float idle_wakeups_per_s);
                ] );
            ( "baseline",
              Obs_json.Obj
                [
                  ("idle_connections", Obs_json.Int 64);
                  ("requests", Obs_json.Int requests);
                  ("p50_ms", Obs_json.Float base_p50);
                  ("p99_ms", Obs_json.Float base_p99);
                ] );
            ( "slow_reader",
              Obs_json.Obj
                [
                  ("requests", Obs_json.Int requests);
                  ("max_outbox_bytes", Obs_json.Int outbox_cap);
                  ("p50_ms", Obs_json.Float stall_p50);
                  ("p99_ms", Obs_json.Float stall_p99);
                  ("p99_ratio", Obs_json.Float ratio);
                  ("slow_client_closes", Obs_json.Int slow_closes);
                ] );
          ]
      in
      let out = "BENCH_evloop.json" in
      Out_channel.with_open_text out (fun oc -> Obs_json.to_channel oc doc);
      let content = In_channel.with_open_text out In_channel.input_all in
      (match Obs_json.of_string content with
      | Ok parsed ->
          if not (Obs_json.equal parsed doc) then
            failwith "BENCH_evloop.json did not round-trip"
      | Error msg -> failwith ("BENCH_evloop.json is not well-formed: " ^ msg));
      Printf.printf "(event-loop behavior written to %s)\n" out

(* ------------------------------------------------------------- ablations *)

let ablation_discovery_assignment () =
  header "Ablation A: banded discovery x MCBBM assignment (LocalGridRoute)";
  let side = 16 in
  let grid = Grid.make ~rows:side ~cols:side in
  Printf.printf "%-13s %14s %14s %14s %14s %14s\n" "workload" "doubling+mcbbm"
    "doubling+arb" "whole+mcbbm" "whole+arb" "band4+mcbbm";
  (* Each cell is the [local1] engine under a different configuration —
     the knobs travel through Router_config rather than ad-hoc labels. *)
  let configurations =
    List.map
      (fun spec -> Router_config.of_string_exn spec)
      [ "discovery=doubling,assignment=mcbbm";
        "discovery=doubling,assignment=arbitrary";
        "discovery=whole,assignment=mcbbm";
        "discovery=whole,assignment=arbitrary";
        "discovery=fixed:4,assignment=mcbbm" ]
  in
  let local1 = Router_registry.get "local1" in
  List.iter
    (fun kind ->
      let mean_depth config =
        let depths = Array.make seeds 0. in
        for seed = 0 to seeds - 1 do
          let pi = Generators.generate grid kind (Rng.create (2000 + seed)) in
          let sched = Router_intf.route_grid ~config local1 grid pi in
          assert (Schedule.realizes ~n:(Grid.size grid) sched pi);
          depths.(seed) <- float_of_int (Schedule.depth sched)
        done;
        Stats.mean depths
      in
      let cells = List.map mean_depth configurations in
      Printf.printf "%-13s %14.2f %14.2f %14.2f %14.2f %14.2f\n"
        (Generators.name kind) (List.nth cells 0) (List.nth cells 1)
        (List.nth cells 2) (List.nth cells 3) (List.nth cells 4))
    (Generators.paper_kinds grid)

let ablation_transpose () =
  header "Ablation B: transpose trick (Algorithm 1 vs Algorithm 2 alone)";
  Printf.printf "%-8s %-13s %14s %13s\n" "grid" "workload" "transpose=off"
    "transpose=on";
  let local = Router_registry.get "local" in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      List.iter
        (fun kind ->
          let mean config =
            let depths = Array.make seeds 0. in
            for seed = 0 to seeds - 1 do
              let pi = Generators.generate grid kind (Rng.create (3000 + seed)) in
              let sched = Router_intf.route_grid ~config local grid pi in
              depths.(seed) <- float_of_int (Schedule.depth sched)
            done;
            Stats.mean depths
          in
          Printf.printf "%-8s %-13s %14.2f %13.2f\n"
            (Printf.sprintf "%dx%d" m n)
            (Generators.name kind)
            (mean { Router_config.default with transpose = false })
            (mean Router_config.default))
        (Generators.paper_kinds grid))
    [ (8, 24); (24, 8); (16, 16) ]

let ablation_compaction () =
  header "Ablation C: ASAP compaction post-pass";
  let side = 16 in
  let grid = Grid.make ~rows:side ~cols:side in
  let n = Grid.size grid in
  Printf.printf "%-13s %-11s %10s %12s\n" "workload" "strategy" "depth"
    "compacted";
  List.iter
    (fun kind ->
      List.iter
        (fun name ->
          let engine = Router_registry.get name in
          let before = Array.make seeds 0. and after = Array.make seeds 0. in
          for seed = 0 to seeds - 1 do
            let pi = Generators.generate grid kind (Rng.create (4000 + seed)) in
            let sched = Router_intf.route_grid engine grid pi in
            let compacted =
              Router_intf.route_grid
                ~config:{ Router_config.default with compaction = true }
                engine grid pi
            in
            assert (Schedule.realizes ~n compacted pi);
            before.(seed) <- float_of_int (Schedule.depth sched);
            after.(seed) <- float_of_int (Schedule.depth compacted)
          done;
          Printf.printf "%-13s %-11s %10.2f %12.2f\n" (Generators.name kind)
            name (Stats.mean before) (Stats.mean after))
        [ "local"; "naive" ])
    (Generators.paper_kinds grid)

let ablation_decompose () =
  header "Ablation D: regular-multigraph decomposition strategy (naive router)";
  Printf.printf "%-8s %18s %18s\n" "grid" "extraction (s)" "euler-split (s)";
  List.iter
    (fun side ->
      let grid = Grid.make ~rows:side ~cols:side in
      let time strategy =
        let times = Array.make seeds 0. in
        for seed = 0 to seeds - 1 do
          let pi =
            Generators.generate grid Generators.Random (Rng.create (5000 + seed))
          in
          let sched, seconds =
            Timer.time (fun () -> Grid_route.route_naive ~strategy grid pi)
          in
          assert (Schedule.realizes ~n:(Grid.size grid) sched pi);
          times.(seed) <- seconds
        done;
        Stats.mean times
      in
      Printf.printf "%-8s %18.5f %18.5f\n"
        (Printf.sprintf "%dx%d" side side)
        (time Grid_route.Extraction)
        (time Grid_route.Euler_split))
    [ 8; 16; 24 ]

let ablation_ats_trials () =
  header "Ablation E: randomized trials in parallel ATS";
  let side = 16 in
  let grid = Grid.make ~rows:side ~cols:side in
  let ats = Router_registry.get "ats" in
  Printf.printf "%-13s %12s %12s %12s\n" "workload" "trials=1" "trials=4"
    "trials=8";
  List.iter
    (fun kind ->
      let mean trials =
        let config = { Router_config.default with ats_trials = trials } in
        let depths = Array.make seeds 0. in
        for seed = 0 to seeds - 1 do
          let pi = Generators.generate grid kind (Rng.create (6000 + seed)) in
          let sched = Router_intf.route_grid ~config ats grid pi in
          depths.(seed) <- float_of_int (Schedule.depth sched)
        done;
        Stats.mean depths
      in
      Printf.printf "%-13s %12.2f %12.2f %12.2f\n" (Generators.name kind)
        (mean 1) (mean 4) (mean 8))
    (Generators.paper_kinds grid)

let workload_characterization () =
  header "Workload characterization (Perm_stats, 16x16, seed 1000)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  Printf.printf "%-13s %s\n" "workload" "statistics";
  List.iter
    (fun kind ->
      let pi = Generators.generate grid kind (Rng.create 1000) in
      let stats = Perm_stats.compute grid pi in
      let boxes = Perm_stats.cycle_bounding_boxes grid pi in
      let max_box =
        List.fold_left (fun acc (h, w) -> max acc (max h w)) 0 boxes
      in
      Format.printf "%-13s %a max_box=%d@." (Generators.name kind)
        Perm_stats.pp stats max_box)
    (Generators.paper_kinds grid @ [ Generators.Reversal ])

let ablation_noise () =
  header "Ablation F: estimated success probability of the routed circuit";
  let grid = Grid.make ~rows:8 ~cols:8 in
  let n = Grid.size grid in
  Printf.printf "%-13s %-11s %10s %10s %14s\n" "workload" "strategy" "depth"
    "swaps" "log10(success)";
  List.iter
    (fun kind ->
      List.iter
        (fun engine ->
          let pi = Generators.generate grid kind (Rng.create 7000) in
          let sched = route ~engine grid pi in
          let circuit = Circuit.of_schedule ~num_qubits:n sched in
          Printf.printf "%-13s %-11s %10d %10d %14.3f\n"
            (Generators.name kind) engine
            (Schedule.depth sched) (Schedule.size sched)
            (Noise.log_success Noise.default circuit /. log 10.))
        [ "local"; "ats"; "snake" ])
    [ Generators.Random; Generators.Block_local 2 ]

let ablation_partial () =
  header "Ablation G: don't-care extension policies (partial permutations)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  let n = Grid.size grid in
  let dist u v = Grid.manhattan grid u v in
  Printf.printf "%-12s %10s %14s %12s\n" "constrained" "stay" "greedy-near"
    "min-total";
  List.iter
    (fun k ->
      let mean policy =
        let depths = Array.make seeds 0. in
        for seed = 0 to seeds - 1 do
          let rng = Rng.create (8000 + seed) in
          (* k random source/destination pairs, rest don't-care. *)
          let srcs = Rng.sample_distinct rng k n in
          let dsts = Rng.sample_distinct rng k n in
          let partial = Partial_perm.make ~n (List.combine srcs dsts) in
          let sched, _ = route_partial ~policy grid partial in
          depths.(seed) <- float_of_int (Schedule.depth sched)
        done;
        Stats.mean depths
      in
      Printf.printf "%-12d %10.2f %14.2f %12.2f\n" k
        (mean Partial_perm.Stay)
        (mean (Partial_perm.Greedy_nearest dist))
        (mean (Partial_perm.Min_total dist)))
    [ 8; 32; 96 ]

let circuits () =
  header "End-to-end transpilation of the motivating workloads (6x6 grid)";
  let grid = Grid.make ~rows:6 ~cols:6 in
  let n = Grid.size grid in
  let rng = Rng.create 42 in
  let workloads =
    [ ("qft", Library.qft n);
      ("trotter-2d x3", Library.ising_trotter_2d grid ~steps:3 ~theta:0.2);
      ("random-global", Library.random_two_qubit rng ~num_qubits:n ~gates:150);
      ("random-local r2",
       Library.random_local_two_qubit rng ~grid ~radius:2 ~gates:150) ]
  in
  Printf.printf "%-15s %-7s %7s %7s %7s %9s %9s %10s\n" "circuit" "router"
    "size" "depth" "swaps" "opt-size" "opt-depth" "log10(p)";
  let transpilers =
    List.map
      (fun engine ->
        (engine, fun logical -> transpile ~engine ~place:true grid logical))
      [ "local"; "ats"; "snake" ]
    @ [ ("sabre",
         fun logical ->
           let initial =
             Placement.place ~graph:(Grid.graph grid)
               ~dist:(Distance.of_grid grid) logical
           in
           Sabre_lite.run_grid ~initial grid logical) ]
  in
  List.iter
    (fun (label, logical) ->
      List.iter
        (fun (router_name, run) ->
          let result = run logical in
          assert (Transpile.verify_feasible (Grid.graph grid) result);
          let optimized = Optimize.run result.physical in
          Printf.printf "%-15s %-7s %7d %7d %7d %9d %9d %10.2f\n" label
            router_name
            (Circuit.size result.physical)
            (Circuit.depth result.physical)
            (Circuit.swap_count result.physical)
            (Circuit.size optimized) (Circuit.depth optimized)
            (Noise.log_success Noise.default optimized /. log 10.))
        transpilers;
      Printf.printf "%-15s logical %6d %7d %7d\n" label
        (Circuit.size logical) (Circuit.depth logical)
        (Circuit.swap_count logical))
    workloads

(* Harvest the permutations a real transpilation asks its router to
   realize, then race the routers on exactly those instances. *)
let realistic () =
  header "Realistic workloads: permutations harvested from transpilations (8x8)";
  let grid = Grid.make ~rows:8 ~cols:8 in
  let n = Grid.size grid in
  let harvest circuit =
    let bag = ref [] in
    ignore
      (Transpile.run_grid ~on_route:(fun rho _ -> bag := rho :: !bag) grid
         circuit);
    List.rev !bag
  in
  let sources =
    [ ("qft-slices", harvest (Library.qft n));
      ("trotter-scrambled",
       (* Trotter steps from a scrambled layout: the router fixes up a
          block-local permutation before a feasible circuit. *)
       harvest
         (Circuit.map_qubits
            (fun q ->
              (Generators.generate grid (Generators.Block_local 4)
                 (Rng.create 99)).(q))
            (Library.ising_trotter_2d grid ~steps:1 ~theta:0.1)));
      ("random-circuit",
       harvest
         (Library.random_two_qubit (Rng.create 5) ~num_qubits:n ~gates:80)) ]
  in
  Printf.printf "%-18s %6s %12s %12s %12s %12s\n" "source" "perms" "local"
    "naive" "ats" "bound";
  List.iter
    (fun (label, perms) ->
      let nonzero = List.filter (fun pi -> not (Perm.is_identity pi)) perms in
      if nonzero = [] then Printf.printf "%-18s %6d (all identity)\n" label 0
      else begin
        let mean engine =
          let depths =
            List.map
              (fun pi -> float_of_int (Schedule.depth (route ~engine grid pi)))
              nonzero
          in
          Stats.mean (Array.of_list depths)
        in
        let bound =
          Stats.mean
            (Array.of_list
               (List.map
                  (fun pi -> float_of_int (Bounds.depth_lower_bound grid pi))
                  nonzero))
        in
        Printf.printf "%-18s %6d %12.2f %12.2f %12.2f %12.2f\n" label
          (List.length nonzero) (mean "local") (mean "naive") (mean "ats")
          bound
      end)
    sources

let ablation_rounds () =
  header "Ablation H: where the depth goes (3-round breakdown, 16x16)";
  let grid = Grid.make ~rows:16 ~cols:16 in
  Printf.printf "%-13s %-8s %8s %8s %8s\n" "workload" "sigmas" "round1"
    "round2" "round3";
  List.iter
    (fun kind ->
      let pi = Generators.generate grid kind (Rng.create 9000) in
      List.iter
        (fun (label, sigmas) ->
          let r1, r2, r3 = Grid_route.round_depths grid pi sigmas in
          Printf.printf "%-13s %-8s %8d %8d %8d\n" (Generators.name kind)
            label r1 r2 r3)
        [ ("local", Local_grid_route.sigmas grid pi);
          ("naive", Grid_route.naive_sigmas grid pi) ])
    (Generators.paper_kinds grid)

let ablations () =
  workload_characterization ();
  ablation_discovery_assignment ();
  ablation_rounds ();
  ablation_transpose ();
  ablation_compaction ();
  ablation_decompose ();
  ablation_ats_trials ();
  ablation_noise ();
  ablation_partial ()

(* ------------------------------------------------------------------ micro *)

let micro () =
  header "Bechamel micro-benchmarks (fixed 16x16 instances)";
  let open Bechamel in
  let grid = Grid.make ~rows:16 ~cols:16 in
  let g = Grid.graph grid and oracle = Distance.of_grid grid in
  let pi_random = Generators.generate grid Generators.Random (Rng.create 1) in
  let pi_block =
    Generators.generate grid (Generators.Block_local 4) (Rng.create 1)
  in
  let cg = Column_graph.build grid pi_random in
  let hk_edges = Column_graph.hk_edges cg in
  let dests = Rng.permutation (Rng.create 2) 64 in
  let tests =
    [
      (* One Test.make per figure series. *)
      Test.make ~name:"fig4+5/local/random"
        (Staged.stage (fun () -> route ~engine:"local" grid pi_random));
      Test.make ~name:"fig4+5/naive/random"
        (Staged.stage (fun () -> route ~engine:"naive" grid pi_random));
      Test.make ~name:"fig4+5/ats/random"
        (Staged.stage (fun () -> Parallel_ats.route ~trials:1 g oracle pi_random));
      Test.make ~name:"fig4+5/local/block"
        (Staged.stage (fun () -> route ~engine:"local" grid pi_block));
      Test.make ~name:"fig4+5/ats/block"
        (Staged.stage (fun () -> Parallel_ats.route ~trials:1 g oracle pi_block));
      (* One per ablation. *)
      Test.make ~name:"ablation/decompose-extraction"
        (Staged.stage (fun () ->
             Decompose.by_extraction ~nl:16 ~nr:16 ~edges:hk_edges));
      Test.make ~name:"ablation/decompose-euler"
        (Staged.stage (fun () ->
             Decompose.by_euler_split ~nl:16 ~nr:16 ~edges:hk_edges));
      Test.make ~name:"ablation/mcbbm-assignment"
        (Staged.stage (fun () ->
             let matchings =
               Local_grid_route.discover_matchings Local_grid_route.Doubling cg
             in
             Local_grid_route.assign_rows Local_grid_route.Mcbbm cg matchings));
      (* Substrate primitives. *)
      Test.make ~name:"substrate/hopcroft-karp"
        (Staged.stage (fun () ->
             Hopcroft_karp.solve ~nl:16 ~nr:16 ~edges:hk_edges));
      Test.make ~name:"substrate/odd-even-path-64"
        (Staged.stage (fun () -> Path_route.route dests));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"qroute" ~fmt:"%s/%s" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let nanos =
          match Analyze.OLS.estimates ols_result with
          | Some (estimate :: _) -> estimate
          | _ -> nan
        in
        (name, nanos) :: acc)
      results []
  in
  Printf.printf "%-40s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, nanos) -> Printf.printf "%-40s %16.0f\n" name nanos)
    (List.sort compare rows)

let parse_sides s =
  match
    String.split_on_char ',' s |> List.map String.trim
    |> List.map int_of_string_opt
  with
  | sides
    when List.for_all (function Some k -> k > 0 | None -> false) sides
         && sides <> [] ->
      List.map Option.get sides
  | _ ->
      Printf.eprintf "bad sides %S; using defaults\n" s;
      default_sides

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let sides =
    if Array.length Sys.argv > 2 then parse_sides Sys.argv.(2)
    else default_sides
  in
  match mode with
  | "fig4" -> fig4 sides
  | "fig5" -> fig5 sides
  | "phases" -> phases sides
  | "parallel" -> parallel ()
  | "overload" -> overload ()
  | "evloop" -> evloop ()
  | "ablation" -> ablations ()
  | "circuits" -> circuits ()
  | "realistic" -> realistic ()
  | "micro" -> micro ()
  | "all" ->
      fig4 sides;
      fig5 sides;
      phases sides;
      parallel ();
      overload ();
      evloop ();
      ablations ();
      circuits ();
      realistic ();
      micro ()
  | other ->
      Printf.eprintf "unknown mode %S (expected fig4|fig5|phases|parallel|overload|evloop|ablation|circuits|realistic|micro|all)\n"
        other;
      exit 1
