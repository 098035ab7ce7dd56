module Metrics = Qr_obs.Metrics
module Log = Qr_obs.Log
module Json = Qr_obs.Json
module Timer = Qr_util.Timer
module Cancel = Qr_util.Cancel
module Fault = Qr_fault.Fault

let c_connections = Metrics.counter "server_connections"
let c_shed = Metrics.counter "server_shed_requests"
let c_crashed = Metrics.counter "server_crashed_requests"
let c_budget_closes = Metrics.counter "server_error_budget_closes"

let c_oversized =
  Metrics.counter "server_oversized_lines"
    ~help:"Connections closed for exceeding max-line-bytes."

let c_slow_closes =
  Metrics.counter "server_slow_client_closes"
    ~help:
      "Connections closed because their queued responses exceeded \
       max-outbox-bytes (client stopped reading)."

let g_workers =
  Metrics.gauge "server_workers"
    ~help:
      "Worker domains serving requests (1 = requests run inline on the \
       loop's own domain)."

(* How long the post-signal drain keeps trying to flush response bytes a
   slow client has not read yet.  The requests themselves are always
   answered into the outboxes; this only bounds the goodbye. *)
let drain_flush_ns = 5_000_000_000L

(* ------------------------------------------------- metrics-file snapshots *)

(* Periodic Prometheus snapshots for file-based scraping: written
   atomically (tmp + rename) so a concurrent reader never sees a torn
   exposition.  A failing write warns once and never disturbs serving. *)
let write_metrics_file path =
  try
    Session.refresh_process_gauges ();
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (Metrics.to_prometheus ());
    close_out oc;
    Sys.rename tmp path
  with exn ->
    Log.warn_once ~key:"metrics_file" "failed to write metrics file"
      [
        ("path", Json.String path);
        ("error", Json.String (Printexc.to_string exn));
      ]

let metrics_interval_ns = 2_000_000_000L

(* A rate-limited writer: [tick] writes at most every ~2s, [flush] always
   (startup, shutdown, EOF).  The socket loop drives [tick] from an
   event-loop timer instead of a poll-timeout cadence, so a server with
   no metrics file armed never wakes for it at all. *)
let metrics_writer metrics_file =
  match metrics_file with
  | None -> ((fun () -> ()), fun () -> ())
  | Some path ->
      let last = ref Int64.min_int in
      let flush () =
        last := Timer.now_ns ();
        write_metrics_file path
      in
      let tick () =
        if Int64.sub (Timer.now_ns ()) !last >= metrics_interval_ns then
          flush ()
      in
      (tick, flush)

(* Arm the snapshot cadence on the event loop — only when there is a
   file to write. *)
let add_metrics_timer loop metrics_file tick =
  match metrics_file with
  | None -> ()
  | Some _ ->
      ignore
        (Event_loop.add_timer loop ~period_ns:metrics_interval_ns
           ~delay_ns:metrics_interval_ns tick)

(* ---------------------------------------------------------- channel loop *)

let serve_channels ?config ?metrics_file ic oc =
  let session = Session.create ?config () in
  let tick_metrics, flush_metrics = metrics_writer metrics_file in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let reply =
           try Session.handle_line session line
           with exn ->
             Metrics.incr c_crashed;
             Session.crashed_response_line line exn
         in
         output_string oc reply;
         output_char oc '\n';
         flush oc;
         tick_metrics ()
       end
     done
   with End_of_file -> ());
  flush_metrics ()

let run_stdio ?config ?metrics_file () =
  Metrics.enable ();
  serve_channels ?config ?metrics_file stdin stdout

(* ------------------------------------------------------------ executors *)

(* Where request jobs run (DESIGN.md §13).  [Inline] is a bounded queue
   the loop drains on its own domain at the top of every cycle — no
   extra domain, no self-pipe.  [Pool] hands jobs to worker domains,
   which poke a self-pipe when a reply is ready. *)
type executor = Inline of (unit -> unit) Queue.t | Pool of Worker_pool.t

(* ------------------------------------------------------------ connections *)

(* [`Errored] counts toward the connection's consecutive-error budget,
   [`Ok] resets it, and [`Shed] leaves it alone: an [overloaded] reply
   is the server's condition, not evidence of a misbehaving client — a
   polite client honouring retry_after_ms through a long brownout must
   neither be disconnected for it nor have its garbage streak forgiven
   by it. *)
type standing = [ `Ok | `Errored | `Shed ]

type phase =
  | Open  (* reading requests *)
  | Draining
      (* read side done (EOF, oversized line, shutdown): answer what is
         in flight, flush, close — the half-closed one-shot client
         pattern still gets its responses *)
  | Tripped  (* error budget spent: drop later replies, flush, close *)
  | Dead  (* write failed or slow-client cap: close now, bytes discarded *)

(* One nonblocking connection in the readiness loop.  Each request is
   stamped with a sequence number at arrival; finished responses land
   in the outbox (a mutex-guarded seq -> reply table the executor
   fills), and the loop moves consecutive sequence numbers into the
   bounded {!Write_queue} — responses leave in arrival order however
   jobs interleave, shed [overloaded] replies included.  The write
   queue is flushed on writability: a client that stops reading grows
   only its own queue, and past the byte cap the connection is closed
   ([server_slow_client_closes]). *)
type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* bytes read, possibly ending mid-line *)
  mutex : Mutex.t;  (* guards outbox *)
  outbox : (int, string * standing) Hashtbl.t;
  wq : Write_queue.t;
  mutable handle : Event_loop.handle option;
  mutable next_seq : int;
  mutable next_write : int;
  mutable inflight : int;  (* stamped, not yet moved to the wq *)
  mutable errors : int;  (* consecutive [`Errored] replies *)
  mutable phase : phase;
}

(* Everything below runs on the loop's domain except job bodies, which
   touch only the outbox (under its mutex), their own session and the
   supervisor. *)
type server = {
  config : Session.config;
  loop : Event_loop.t;
  exec : executor;
  notify : unit -> unit;  (* wake the loop after a job delivers *)
  stop_exec : unit -> unit;
  sup : Supervisor.t;
  cache : Plan_cache.t;
  (* One session per executor slot: one for [Inline], one per worker for
     [Pool], created lazily on the slot's domain so its router
     workspace is domain-owned there.  All share the one plan cache. *)
  sessions : Session.t option array;
  chunk : Bytes.t;
  close_fds : bool;  (* [false]: the caller owns the descriptors *)
  mutable conns : conn list;
}

let pending srv =
  match srv.exec with
  | Inline q -> Queue.length q
  | Pool pool -> Worker_pool.pending pool

let session_for srv k =
  match srv.sessions.(k) with
  | Some s -> s
  | None ->
      let pool, worker =
        match srv.exec with
        | Inline _ -> (None, None)
        | Pool pool -> (Some pool, Some (k + 1))
      in
      let s =
        Session.create ~config:srv.config ~cache:srv.cache ?pool ?worker
          ~inflight_probe:(fun () -> pending srv)
          ()
      in
      srv.sessions.(k) <- Some s;
      s

let deliver conn seq reply =
  Mutex.lock conn.mutex;
  Hashtbl.replace conn.outbox seq reply;
  Mutex.unlock conn.mutex

let stamp conn =
  let seq = conn.next_seq in
  conn.next_seq <- seq + 1;
  conn.inflight <- conn.inflight + 1;
  seq

(* Park a ready-made reply at the next arrival slot — shed and
   oversized replies ride the same ordered outbox as real responses, so
   they never jump the queue. *)
let park conn reply = deliver conn (stamp conn) reply

let stop_reading conn = if conn.phase = Open then conn.phase <- Draining

(* The job for one request line, the same on both executors: a fresh
   cancel token becomes ambient for the request (engines poll it), the
   supervisor ticket lets the watchdog's abort park the [internal_error]
   reply if the worker is declared lost, and the settle CAS guarantees
   exactly one of job and watchdog answers.  Any exception becomes an
   [internal_error] reply, never a dead loop. *)
let job srv conn seq line ~submitted_ns () =
  let k = Option.value ~default:0 (Worker_pool.worker_index ()) in
  Supervisor.note_queue_delay srv.sup (Int64.sub (Timer.now_ns ()) submitted_ns);
  let cancel = Cancel.create () in
  let ticket =
    Supervisor.enter srv.sup ~worker:k ~cancel ~abort:(fun () ->
        deliver conn seq (Session.hung_response_line line, `Errored);
        srv.notify ())
  in
  let reply =
    try
      let line, errored =
        Cancel.with_ambient cancel (fun () ->
            Fault.point "worker.hang" ~f:(fun () ->
                Session.handle_line_status (session_for srv k) line))
      in
      (line, if errored then `Errored else `Ok)
    with
    | Cancel.Cancelled Cancel.Killed ->
        (Session.hung_response_line line, `Errored)
    | exn ->
        Metrics.incr c_crashed;
        (Session.crashed_response_line line exn, `Errored)
  in
  let won = Supervisor.settle ticket in
  Supervisor.leave srv.sup ticket;
  if won then deliver conn seq reply

(* Stamp the line and hand it to the executor.  Adaptive admission sheds
   before the queue is even tried; a refused job (queue at its
   [max_inflight] bound) sheds into its own slot so ordering holds. *)
let submit_line srv conn line =
  match Supervisor.should_shed srv.sup with
  | Some retry_after_ms ->
      Metrics.incr c_shed;
      park conn (Session.overloaded_response_line ~retry_after_ms line, `Shed)
  | None ->
      let seq = stamp conn in
      let job = job srv conn seq line ~submitted_ns:(Timer.now_ns ()) in
      let accepted =
        match srv.exec with
        | Inline q ->
            Queue.length q < srv.config.Session.max_inflight
            && (Queue.add job q;
                true)
        | Pool pool -> Worker_pool.submit pool job
      in
      if not accepted then begin
        Metrics.incr c_shed;
        deliver conn seq
          ( Session.overloaded_response_line
              ~retry_after_ms:(Supervisor.retry_hint_ms srv.sup) line,
            `Shed )
      end

let run_inline srv =
  match srv.exec with
  | Inline q ->
      while not (Queue.is_empty q) do
        (Queue.pop q) ()
      done
  | Pool _ -> ()

(* Move complete lines out of an input buffer; the trailing fragment
   (no newline yet) stays for the next read.  Stops at the first line
   longer than [limit] — the in-bound lines before it are returned for
   normal processing and [`Oversized] tells the caller to answer
   [invalid_request] and close.  A trailing fragment past the limit
   trips the same way: the buffer must never grow without bound while
   waiting for a newline that may never come. *)
let take_lines inbuf ~limit =
  let data = Buffer.contents inbuf in
  Buffer.clear inbuf;
  let n = String.length data in
  let lines = ref [] in
  let start = ref 0 in
  let oversized = ref false in
  (try
     while not !oversized do
       let i = String.index_from data !start '\n' in
       if i - !start > limit then oversized := true
       else begin
         let line = String.sub data !start (i - !start) in
         start := i + 1;
         if String.trim line <> "" then lines := line :: !lines
       end
     done
   with Not_found -> ());
  if (not !oversized) && n - !start > limit then oversized := true;
  if not !oversized then Buffer.add_substring inbuf data !start (n - !start);
  if !oversized then `Oversized (List.rev !lines) else `Lines (List.rev !lines)

(* Pull whatever is readable off a connection and submit its complete
   lines.  [Would_block] is the normal end of a readiness-sized burst on
   a nonblocking fd — wait until poll reports the fd readable again.
   An oversized line parks the [invalid_request] goodbye behind the
   lines before it and stops reading; queued replies still flush. *)
let read_conn srv conn =
  let rec go () =
    if conn.phase = Open then
      match Io_util.read_chunk ~fault:"server.read" conn.fd srv.chunk with
      | Io_util.Would_block -> ()
      | Io_util.Eof | Io_util.Closed -> stop_reading conn
      | Io_util.Read k ->
          Buffer.add_subbytes conn.inbuf srv.chunk 0 k;
          go ()
      | exception Fault.Injected _ -> stop_reading conn
  in
  go ();
  match take_lines conn.inbuf ~limit:srv.config.Session.max_line_bytes with
  | `Lines lines -> List.iter (submit_line srv conn) lines
  | `Oversized lines ->
      List.iter (submit_line srv conn) lines;
      Metrics.incr c_oversized;
      park conn (Session.oversized_response_line (), `Errored);
      stop_reading conn

(* Move finished replies into the write queue in sequence order; stop at
   the first slot not filled yet.  The reply that brings the
   consecutive-error count to [error_budget] is the last one queued:
   reading stops, later replies are dropped, and the connection closes
   once the queue has flushed.  A queue overflow is the slow-client
   verdict.  A closing connection keeps consuming its slots, so
   [inflight] reaches 0 and it can close. *)
let flush_outbox srv conn =
  let rec go () =
    Mutex.lock conn.mutex;
    let next = Hashtbl.find_opt conn.outbox conn.next_write in
    if next <> None then Hashtbl.remove conn.outbox conn.next_write;
    Mutex.unlock conn.mutex;
    match next with
    | None -> ()
    | Some (line, standing) ->
        conn.inflight <- conn.inflight - 1;
        conn.next_write <- conn.next_write + 1;
        if conn.phase = Open || conn.phase = Draining then begin
          (match Write_queue.enqueue conn.wq line with
          | `Ok -> ()
          | `Overflow ->
              Metrics.incr c_slow_closes;
              conn.phase <- Dead);
          match standing with
          | `Errored ->
              conn.errors <- conn.errors + 1;
              let budget = srv.config.Session.error_budget in
              if budget > 0 && conn.errors >= budget && conn.phase <> Dead
              then begin
                Metrics.incr c_budget_closes;
                conn.phase <- Tripped
              end
          | `Ok -> conn.errors <- 0
          | `Shed -> ()
        end;
        go ()
  in
  go ()

(* Flush whatever the kernel will take and keep write interest armed
   exactly while bytes remain.  The [server.writable] fault point covers
   the flush as a whole (a chaos plan can stall or kill the writable
   path); per-write faults stay on [server.write] inside the queue. *)
let flush_wq srv conn =
  if conn.phase <> Dead then
    let set writable =
      Option.iter
        (fun h -> Event_loop.set_interest srv.loop h ~writable ())
        conn.handle
    in
    match
      Fault.point "server.writable" ~f:(fun () -> Write_queue.flush conn.wq)
    with
    | `Idle -> set false
    | `Pending -> set true
    | `Closed | (exception Fault.Injected _) -> conn.phase <- Dead

let add_conn srv fd =
  let conn =
    {
      fd;
      inbuf = Buffer.create 256;
      mutex = Mutex.create ();
      outbox = Hashtbl.create 8;
      wq =
        Write_queue.create ~fault:"server.write"
          ~cap_bytes:srv.config.Session.max_outbox_bytes fd;
      handle = None;
      next_seq = 0;
      next_write = 0;
      inflight = 0;
      errors = 0;
      phase = Open;
    }
  in
  let h =
    Event_loop.watch srv.loop fd (fun ~readable ~writable ->
        if readable then read_conn srv conn;
        if writable then flush_wq srv conn)
  in
  conn.handle <- Some h;
  srv.conns <- conn :: srv.conns

let release srv conn =
  Option.iter (Event_loop.unwatch srv.loop) conn.handle;
  if srv.close_fds then try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* The cycle seam: run the inline jobs staged this cycle (the queue is
   empty again before the next poll, so a SIGTERM between cycles never
   abandons accepted work), move finished replies into the write
   queues, flush, and reap connections that are done. *)
let on_cycle srv =
  run_inline srv;
  srv.conns <-
    List.filter
      (fun conn ->
        flush_outbox srv conn;
        flush_wq srv conn;
        if conn.phase <> Open then
          Option.iter
            (fun h -> Event_loop.set_interest srv.loop h ~readable:false ())
            conn.handle;
        let done_ =
          conn.phase <> Open && conn.inflight = 0
          && (conn.phase = Dead || Write_queue.is_empty conn.wq)
        in
        if done_ then release srv conn;
        not done_)
      srv.conns

(* One watchdog/brownout pass.  A pool worker declared lost gets its
   slot respawned; its session is dropped first so the replacement
   builds a fresh one (the zombie may still be mutating the old
   workspace) — the write happens before [replace]'s spawn, so the new
   domain sees it.  An inline job starts and finishes inside one
   [on_cycle], so the watchdog never finds one running. *)
let supervise srv =
  List.iter
    (fun k ->
      match srv.exec with
      | Pool pool ->
          srv.sessions.(k) <- None;
          Worker_pool.replace pool k
      | Inline _ -> ())
    (Supervisor.monitor srv.sup);
  Supervisor.check_memory srv.sup ~cache:srv.cache

(* Self-pipe: workers poke the write end after each finished job; the
   read end sits in the interest set like any connection.  Both ends
   nonblocking — a full pipe already means a wake-up is pending — and
   CLOEXEC, like every fd this loop mints. *)
let self_pipe loop =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock rd;
  Unix.set_nonblock wr;
  let poke = Bytes.make 1 '!' in
  let notify () =
    try ignore (Unix.write wr poke 0 1) with Unix.Unix_error _ -> ()
  in
  let buf = Bytes.create 512 in
  let rec drain () =
    match Unix.read rd buf 0 512 with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  ignore
    (Event_loop.watch loop rd (fun ~readable ~writable:_ ->
         if readable then drain ()));
  let close () =
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ rd; wr ]
  in
  (notify, close)

(* The executor is the only thing the worker count picks. *)
let create_server ~config ~workers ~close_fds =
  let workers = max 1 workers in
  let loop = Event_loop.create () in
  let exec, notify, stop_exec =
    if workers = 1 then (Inline (Queue.create ()), ignore, ignore)
    else begin
      let notify, close_pipe = self_pipe loop in
      let pool =
        Worker_pool.create ~queue_bound:config.Session.max_inflight ~notify
          ~workers ()
      in
      ( Pool pool,
        notify,
        fun () ->
          Worker_pool.shutdown pool;
          close_pipe () )
    end
  in
  let sup =
    Supervisor.create ?hung_ms:config.Session.hung_request_ms
      ?queue_delay_target_ms:config.Session.queue_delay_target_ms
      ?max_rss_mb:config.Session.max_rss_mb ~workers ()
  in
  let srv =
    {
      config;
      loop;
      exec;
      notify;
      stop_exec;
      sup;
      cache = Plan_cache.create ~capacity:config.Session.cache_capacity ();
      sessions = Array.make workers None;
      chunk = Bytes.create 65536;
      close_fds;
      conns = [];
    }
  in
  (* The watchdog/brownout cadence: armed only when there is something
     to supervise, so an idle server without either makes no timer
     wakeups at all. *)
  if config.Session.hung_request_ms <> None || config.Session.max_rss_mb <> None
  then begin
    let period_ns = Supervisor.poll_interval_ns sup in
    ignore
      (Event_loop.add_timer loop ~period_ns ~delay_ns:period_ns (fun () ->
           supervise srv))
  end;
  srv

(* ------------------------------------------------------ one connection *)

let serve_fd ?(config = Session.default_config) fd =
  let srv = create_server ~config ~workers:1 ~close_fds:false in
  Unix.set_nonblock fd;
  add_conn srv fd;
  let finally () =
    List.iter (release srv) srv.conns;
    srv.stop_exec ();
    (* The caller owns the fd; hand it back in the blocking state it
       arrived in. *)
    try Unix.clear_nonblock fd with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  Event_loop.run srv.loop
    ~on_cycle:(fun () -> on_cycle srv)
    ~stop:(fun () -> srv.conns = [])

(* ------------------------------------------------------------ socket loop *)

let remove_stale_socket path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> failwith (Printf.sprintf "%s exists and is not a socket" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Signals and the listening socket (CLOEXEC + nonblocking: the forked
   chaos tests and respawned worker domains must not inherit serving
   fds, and the accept burst must end in [EWOULDBLOCK], not a block). *)
let with_signals_and_listener ~path f =
  let stop = ref false in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
  in
  let prev_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
  in
  (* A client closing mid-write must surface as EPIPE, not kill the
     process. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  remove_stale_socket path;
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let restore () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    ignore (Sys.signal Sys.sigint prev_int);
    ignore (Sys.signal Sys.sigterm prev_term);
    ignore (Sys.signal Sys.sigpipe prev_pipe)
  in
  f ~stop ~listener ~restore

(* Accept everything pending this wakeup.  An injected accept fault
   skips one accept; the client sees a connection that was never picked
   up and retries. *)
let accept_burst listener ~on_fd =
  let continue = ref true in
  while !continue do
    match
      Fault.point "server.accept" ~f:(fun () ->
          Unix.accept ~cloexec:true listener)
    with
    | fd, _ ->
        Unix.set_nonblock fd;
        Metrics.incr c_connections;
        on_fd fd
    | exception (Unix.Unix_error _ | Fault.Injected _) ->
        (* EAGAIN: the backlog is drained. *)
        continue := false
  done

let run_socket ?(config = Session.default_config) ?metrics_file
    ?(workers = 1) ~path () =
  Metrics.enable ();
  Metrics.set g_workers (float_of_int (max 1 workers));
  let tick_metrics, flush_metrics = metrics_writer metrics_file in
  with_signals_and_listener ~path @@ fun ~stop ~listener ~restore ->
  let srv = create_server ~config ~workers ~close_fds:true in
  add_metrics_timer srv.loop metrics_file tick_metrics;
  let cleanup () =
    srv.stop_exec ();
    List.iter (release srv) srv.conns;
    restore ();
    (* Final snapshot so the last requests before shutdown are visible
       to scrapers. *)
    flush_metrics ()
  in
  let listener_h =
    Event_loop.watch srv.loop listener (fun ~readable ~writable:_ ->
        if readable then accept_burst listener ~on_fd:(add_conn srv))
  in
  let on_cycle () = on_cycle srv in
  Fun.protect ~finally:cleanup @@ fun () ->
  flush_metrics ();
  Event_loop.run srv.loop ~on_cycle ~stop:(fun () -> !stop);
  (* Graceful drain: stop accepting and reading; everything already
     submitted gets its reply moved into a write queue before the
     executor stops and the sockets close.  The watchdog keeps a fast
     cadence so a wedged worker cannot hold the drain hostage — its
     request is answered by the abort reply.  Slow readers get a
     bounded grace; a client that never reads is cut off at the
     deadline. *)
  Event_loop.unwatch srv.loop listener_h;
  List.iter stop_reading srv.conns;
  let deadline = Int64.add (Timer.now_ns ()) drain_flush_ns in
  ignore (Event_loop.add_timer srv.loop ~delay_ns:drain_flush_ns ignore);
  ignore
    (Event_loop.add_timer srv.loop ~period_ns:50_000_000L ~delay_ns:50_000_000L
       (fun () -> supervise srv));
  (* Reap already-flushed connections before the first poll so an idle
     shutdown returns without blocking. *)
  on_cycle ();
  Event_loop.run srv.loop ~on_cycle
    ~stop:(fun () ->
      srv.conns = [] || Int64.compare (Timer.now_ns ()) deadline > 0)
