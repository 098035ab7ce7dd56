(** Request processing for one serving domain.

    A session owns everything its domain reuses across requests: a
    {!Qr_route.Router_workspace.t} (so every request after the first rides
    the batched [route_many] allocation profile), a {!Plan_cache.t}
    (optionally shared between sessions by the server), and the request
    counter behind the [health] report.  The socket server keeps one
    session per executor slot — the inline one, or one per worker —
    serving every connection, so connection state (ordering, error
    budget) lives in {!Server}, not here.  {!handle_line} is the whole
    request pipeline — parse, dispatch, route, serialize — and is pure
    string-to-string, so tests and the [serve_session] example drive it
    without sockets or channels.

    Every request runs inside a [serve_request] trace span (method name
    and outcome as attributes) and bumps the [server_requests] /
    [server_errors] counters and the [server_request_ms] histogram.

    {b Telemetry plane} (DESIGN.md §12): a request carrying a [trace]
    context has its trace_id adopted for the duration — every span in
    the request's tree, including engine phases and degradations, is
    stamped with it — and the response echoes the context plus a
    [server_ms] timing field.  {!handle_line} emits one Info-level
    access-log record per request (method, status, bytes, ms, trace_id,
    cache outcome, degradation) through {!Qr_obs.Log}. *)

type config = {
  cache_capacity : int;  (** {!Plan_cache} bound (default 128). *)
  max_batch : int;
      (** Largest accepted [route_batch]; bigger batches get the
          [overloaded] error (default 64). *)
  max_inflight : int;
      (** Requests the server's executor queues before answering
          [overloaded] (default 32; enforced by {!Server}). *)
  verify : bool;
      (** Verified routing ([--verify-schedules]): every schedule —
          freshly planned or a cache hit — is checked against the
          routing invariant; bad engines degrade through the
          {!Qr_route.Router_registry.verified} fallback chain, and
          cache hits that fail re-verification are evicted and
          replanned (default [false]). *)
  error_budget : int;
      (** Consecutive error responses a connection may accumulate: the
          reply that reaches it is the connection's last, and the server
          closes once it has flushed (default 32; 0 disables; enforced
          by {!Server}). *)
  max_line_bytes : int;
      (** Largest request line (and largest partial line buffered while
          waiting for its newline) a connection may send; past it the
          server replies [invalid_request] and closes — a stuck or
          malicious client cannot grow a connection buffer without
          bound (default 1 MiB; enforced by {!Server}). *)
  max_outbox_bytes : int;
      (** Response bytes the server will queue for a connection whose
          client is not reading them; past it the connection is closed
          ([server_slow_client_closes]) — a stalled reader blocks only
          itself, never the serving loop, and cannot hold unbounded
          response memory (default 4 MiB; enforced by {!Server}'s
          per-connection {!Write_queue}). *)
  hung_request_ms : int option;
      (** Watchdog budget ([--hung-request-ms]): a pool request running
          longer is cancelled, and a worker that then stops making
          progress is declared lost and its domain respawned (default
          [None] = watchdog off; enforced by {!Server}/{!Supervisor}). *)
  queue_delay_target_ms : int option;
      (** Adaptive-admission target ([--queue-delay-ms]): when the EWMA
          of job queue delay exceeds it, new requests are shed with
          [overloaded] plus a [retry_after_ms] hint (default [None] =
          off; enforced by {!Server}/{!Supervisor}). *)
  max_rss_mb : int option;
      (** Memory brownout threshold ([--max-rss-mb]): past this max-RSS
          high-water mark the plan cache is shrunk and batch requests
          rejected (default [None] = off). *)
  breaker : Qr_route.Breaker.config option;
      (** Per-engine circuit breakers for verified routing
          ([--breaker-threshold]/[--breaker-cooldown-ms]): repeated
          engine failures trip the breaker open and requests skip
          straight to the degradation chain until half-open probes
          succeed.  Only effective with [verify] (the breaker watches
          the verified ladder's outcomes; default [None] = off). *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?cache:Plan_cache.t ->
  ?inflight_probe:(unit -> int) ->
  ?pool:Worker_pool.t ->
  ?worker:int ->
  unit ->
  t
(** A fresh session with its own workspace.  [cache] shares a cache
    between sessions (the socket server passes one cache to every
    session); by default the session creates its own with
    [config.cache_capacity].  [inflight_probe] supplies the [health]
    report's [inflight] count (the socket server passes its executor's
    backlog; defaults to [fun () -> 0]).  [pool] lets
    [route_batch] fan its items across worker domains
    ({!Worker_pool.map_tasks}); without it batches run serially as
    before.  [worker] stamps the owning worker's index into every
    access-log record ([worker=N]) in pool mode.  Creation completes
    the engine registry (registers the token-swapping engines), so a
    bare [qr_server] link serves the full engine set.

    {b Domain safety} (DESIGN.md §13): a session is {e single-owner}
    mutable state — create it on (or dedicate it to) the one domain
    that calls [handle_line]; the socket server keeps one session
    per executor slot.  The cache shared between sessions is safe
    ({!Plan_cache} locks internally); the workspace is per-session and
    ownership-checked. *)

val config : t -> config

val cache : t -> Plan_cache.t

val requests_served : t -> int

val handle_request : t -> Protocol.request -> Protocol.Json.t
(** Dispatch one parsed request to its method handler; always returns a
    response envelope (errors are encoded, never raised).  The envelope
    echoes the request's trace context and carries [server_ms]. *)

val stats : t -> Protocol.Json.t
(** The [stats] method's result: health, plan-cache counters and the
    full metrics registry (process gauges refreshed) in one snapshot. *)

val refresh_process_gauges : unit -> unit
(** Update the [process_uptime_seconds] / [process_max_rss_kb] /
    [process_gc_major_words] gauges from the live process.  Called by
    the [metrics] and [stats] methods and the [--metrics-file]
    writer. *)

val handle_line : t -> string -> string
(** One request line to one response line (no trailing newline): parse,
    validate, {!handle_request}, render. *)

val handle_line_status : t -> string -> string * bool
(** {!handle_line} plus whether the response was an error — the signal
    {!Server} counts each connection's consecutive-error budget from
    (sessions are shared between connections, so the budget lives on
    the connection, not here). *)

val overloaded_response_line : ?retry_after_ms:int -> string -> string
(** The [overloaded] error response for a request line that was shed
    before parsing — echoes the line's id when one can be recovered.
    [retry_after_ms] adds the adaptive-admission backpressure hint.
    Used by {!Server}'s bounded in-flight queue. *)

val oversized_response_line : unit -> string
(** The [invalid_request] response sent just before closing a
    connection whose request line exceeded [max_line_bytes] (the line
    itself is not parsed, so no id is echoed). *)

val hung_response_line : string -> string
(** The [internal_error] response the watchdog parks for a request
    whose worker was declared lost — echoes the line's id when one can
    be recovered. *)

val crashed_response_line : string -> exn -> string
(** The [internal_error] response the serving loops substitute when the
    request pipeline itself raised — the last line of per-request
    exception isolation (one bad request can never kill the loop). *)
