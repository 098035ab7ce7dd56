(** The routing service's serving loops.

    Two transports share one request pipeline ({!Session.handle_line}):

    - {!run_stdio} serves newline-delimited JSON on stdin/stdout — the
      mode scripts and CI pipe through, and the transport a transpiler
      pipeline would spawn as a subprocess.  It is a blocking
      line-at-a-time loop over channels ({!serve_channels});
    - one readiness-driven {!Event_loop} ([poll(2)], [select]
      fallback) serves sockets: {!run_socket} runs it over a
      Unix-domain listener, {!serve_fd} over one already-connected
      descriptor (the loop the chaos harness drives).

    {b One loop, two executors.}  Every connection is the same state
    machine: complete lines are stamped with a per-connection sequence
    number and handed to an executor as jobs; replies land in the
    connection's ordered outbox and leave in arrival order through its
    write queue.  The executor is the only thing the worker count
    picks (DESIGN.md §13):

    - [Inline] ([workers = 1], and always for {!serve_fd}): a bounded
      job queue the loop drains on its own domain at the top of every
      cycle.  One session serves every connection;
    - [Pool] ([workers > 1]): a {!Worker_pool} of that many domains, one
      session per worker.  A finished job pokes a self-pipe that is
      just another readable fd in the loop's interest set.

    Either way all sessions share one {!Plan_cache}, so any client can
    hit plans another client warmed, and the same job wrapper (cancel
    token, supervisor ticket, settle) and supervisor timer (watchdog
    scan, memory brownout) run on both.

    All accepted descriptors are nonblocking and close-on-exec.
    Responses go through a per-connection bounded write queue
    ({!Write_queue}) flushed on writability: a client that stops
    reading blocks {e only itself}, and once its outbox exceeds
    [max_outbox_bytes] the connection is closed
    ([server_slow_client_closes] metric) rather than letting the queue
    grow without bound (DESIGN.md §15).  An idle server with no timers
    armed makes zero wakeups ([server_loop_wakeups] counter); the
    metrics-snapshot cadence and the supervisor's scan are event-loop
    timers, armed only when their feature is on.

    Robustness (DESIGN.md §11): every request runs under per-request
    exception isolation — a crashing handler produces an
    [internal_error] response ([server_crashed_requests] metric), never
    a dead loop.  A peer vanishing mid-response ([EPIPE]/[ECONNRESET])
    closes that connection only.  The reply that brings a connection's
    consecutive-error count to [error_budget] is its last: reading
    stops, later replies are dropped, and the connection closes once
    everything up to that reply has flushed
    ([server_error_budget_closes] metric).  Fault points [server.read],
    [server.write], [server.accept], [server.poll] and
    [server.writable] let a chaos plan exercise all of these
    deterministically.  Inline jobs run on the main domain, so they
    draw from fault stream 0 — the historical single-threaded stream.

    Backpressure: at most [max_inflight] jobs wait in the executor's
    queue; further pipelined requests are answered with the
    [overloaded] error (with a [retry_after_ms] hint), parked at their
    own slot so ordering holds.

    Capacity: on the poll backend the fd limit is the only bound; on
    the select fallback the loop stops accepting (one-time warning) at
    the FD_SETSIZE guard instead of dying in the multiplexer.

    Shutdown: SIGINT/SIGTERM flip a flag; the loop stops accepting
    (listener unwatched) and reading, answers everything already
    submitted, flushes write queues under a bounded (5s) grace for slow
    readers, closes and removes the socket file before returning
    (graceful drain).  The stdio and socket loops enable
    {!Qr_obs.Metrics} so the [metrics] method and the plan-cache
    counters are live.

    Telemetry (DESIGN.md §12): with [metrics_file] set, the loops write
    the Prometheus exposition ({!Qr_obs.Metrics.to_prometheus}, process
    gauges refreshed) to that path atomically (tmp + rename) about every
    2 seconds and at shutdown/EOF — file-based scraping without an HTTP
    listener.  Access-log records are emitted per request by
    {!Session.handle_line}; their [session] field names the serving
    session (the inline one, or a worker's), not the connection. *)

val serve_channels :
  ?config:Session.config ->
  ?metrics_file:string ->
  in_channel ->
  out_channel ->
  unit
(** Serve one connection's worth of requests: read lines until EOF,
    answer each on [oc] (flushed per response).  Blank lines are skipped.
    The loop {!run_stdio} wraps, and the seam tests drive over an
    in-memory channel pair.  [metrics_file] snapshots are written at most
    every ~2s after a response, plus once at EOF. *)

val run_stdio : ?config:Session.config -> ?metrics_file:string -> unit -> unit
(** {!serve_channels} on stdin/stdout with metrics enabled. *)

val serve_fd : ?config:Session.config -> Unix.file_descr -> unit
(** Serve one connected descriptor until EOF, peer reset, an injected
    read fault, or the error budget trips — the socket loop with one
    connection, no listener and the inline executor.  Reads go through
    the [server.read] fault point and writes through [server.write], so
    chaos plans reach the real descriptor I/O (unlike {!serve_channels},
    whose buffered channels bypass it).  The fd is switched to
    nonblocking for the duration and restored on exit.  Does not close
    [fd] and does not enable metrics; the caller owns both. *)

val run_socket :
  ?config:Session.config ->
  ?metrics_file:string ->
  ?workers:int ->
  path:string ->
  unit ->
  unit
(** Bind, listen and serve [path] until SIGINT/SIGTERM, then drain.  A
    stale socket file left by a crashed server is replaced; any other
    existing file is an error ([Failure]).  The socket file is removed on
    exit.  Sessions report the executor's backlog as their [health]
    [inflight] count.  [metrics_file] snapshots are written at startup,
    about every 2s, and at shutdown.

    [workers] (default 1) picks the executor and nothing else: 1 runs
    requests inline on the loop's domain, [> 1] on that many worker
    domains, where [route_batch] items additionally fan out across the
    pool.  Response order, shedding, error budgets, oversized-line
    refusal, the supervisor timer and the drain are the same code at
    every width.  The watchdog ([hung_request_ms]) can only preempt a
    request on a worker domain; inline, the loop is the one running it.
    The [server_workers] gauge reports the width; [server_queue_depth]
    tracks the pool's backlog. *)
