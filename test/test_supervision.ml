(* Tests for the supervision & overload-control plane (DESIGN.md §14):
   cooperative cancellation tokens and their bit-transparency, the
   worker watchdog's kill → lost escalation, per-engine circuit
   breakers, adaptive admission and memory brownout, the oversized-line
   cap — plus the two acceptance chaos demos: a hung worker answered by
   the watchdog and respawned mid-service, and a breaker tripping under
   a plan that breaks exactly one engine, then recovering through
   half-open probes. *)

module Json = Qr_obs.Json
module Metrics = Qr_obs.Metrics
module Log = Qr_obs.Log
module Rng = Qr_util.Rng
module Timer = Qr_util.Timer
module Cancel = Qr_util.Cancel
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Schedule = Qr_route.Schedule
module Router_intf = Qr_route.Router_intf
module Router_registry = Qr_route.Router_registry
module Breaker = Qr_route.Breaker
module Fault = Qr_fault.Fault
module Io_util = Qr_server.Io_util
module P = Qr_server.Protocol
module Deadline = Qr_server.Deadline
module Plan_cache = Qr_server.Plan_cache
module Supervisor = Qr_server.Supervisor
module Session = Qr_server.Session
module Server = Qr_server.Server
module Client = Qr_server.Client

let () = Qr_token.Engines.register ()
let () = ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let with_plan ?(seed = 0) plan f =
  (match Fault.parse_plan plan with
  | Ok specs -> Fault.arm ~seed specs
  | Error msg -> Alcotest.failf "bad test plan %S: %s" plan msg);
  Fun.protect ~finally:Fault.disarm f

let rev9 = Perm.check [| 8; 7; 6; 5; 4; 3; 2; 1; 0 |]

let route_line ?(id = 1) ?(engine = "local") pi =
  Printf.sprintf
    {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": %s, "engine": "%s"}}|}
    id
    (Json.to_string (P.perm_to_json pi))
    engine

let result_of line =
  match P.response_result (Json.of_string_exn line) with
  | Ok result -> result
  | Error err -> Alcotest.failf "error response: %s" err.P.message

let member_exn name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s in %s" name (Json.to_string doc)

(* -------------------------------------------------------------- deadline *)

let test_deadline_saturates () =
  (* A huge budget must saturate at the far future, not wrap past the
     monotonic clock into the instantly-expired past. *)
  let d = Deadline.after_ms max_int in
  checkb "huge budget not expired" false (Deadline.expired d);
  checkb "huge budget has an instant" true (Deadline.absolute_ns d <> None);
  let d2 = Deadline.after_ms (max_int / 1_000) in
  checkb "near-overflow budget not expired" false (Deadline.expired d2);
  checkb "zero budget expired" true (Deadline.expired (Deadline.after_ms 0));
  checkb "negative budget expired" true
    (Deadline.expired (Deadline.after_ms (-5)));
  checkb "none never expires" false (Deadline.expired Deadline.none);
  checkb "none has no instant" true (Deadline.absolute_ns Deadline.none = None)

(* ---------------------------------------------------------- cancel token *)

let test_cancel_kill_and_deadline () =
  (* poll on the shared [none] token is free and never raises. *)
  for _ = 1 to 1_000 do
    Cancel.poll Cancel.none
  done;
  (* A killed token aborts within one polling stride. *)
  let t = Cancel.create () in
  Cancel.kill t;
  (match
     for _ = 1 to 200 do
       Cancel.poll t
     done
   with
  | () -> Alcotest.fail "killed token never fired"
  | exception Cancel.Cancelled Cancel.Killed -> ());
  (* An expired deadline aborts within one clock-check stride. *)
  let t2 = Cancel.create ~deadline_ns:(Timer.now_ns ()) () in
  (match
     for _ = 1 to 1_000 do
       Cancel.poll t2
     done
   with
  | () -> Alcotest.fail "expired token never fired"
  | exception Cancel.Cancelled Cancel.Deadline -> ());
  (* The progress word advances while a live token is polled. *)
  let t3 = Cancel.create () in
  let before = Cancel.progress t3 in
  for _ = 1 to 1_000 do
    Cancel.poll t3
  done;
  checkb "progress advanced" true (Cancel.progress t3 > before);
  (* with_ambient restores the previous token even on exceptions. *)
  checkb "ambient defaults to none" true (Cancel.ambient () == Cancel.none);
  (try
     Cancel.with_ambient t3 (fun () ->
         checkb "ambient installed" true (Cancel.ambient () == t3);
         failwith "boom")
   with Failure _ -> ());
  checkb "ambient restored" true (Cancel.ambient () == Cancel.none)

(* The checkpoints must be pure observation: for every registry engine,
   routing under a live (but never-cancelled) ambient token returns a
   bit-identical schedule to routing with no token at all. *)
let cancellation_is_transparent =
  QCheck.Test.make ~name:"cancellation checkpoints never change schedules"
    ~count:30
    QCheck.(triple (int_range 2 5) (int_range 2 5) (int_range 0 10_000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation (Rng.create seed) (m * n)) in
      List.for_all
        (fun engine ->
          let bare = Router_intf.route_grid engine grid pi in
          let watched =
            Cancel.with_ambient (Cancel.create ()) (fun () ->
                Router_intf.route_grid engine grid pi)
          in
          Json.to_string (Schedule.to_json bare)
          = Json.to_string (Schedule.to_json watched))
        (Router_registry.all ()))

(* ------------------------------------------------------------ hardened IO *)

let socketpair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let drain fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let test_write_all_truncate_terminates () =
  (* Regression: a truncate fault shortening every attempted write must
     never stall the write_all loop — the attempted length is clamped to
     at least one byte, so the payload always lands whole.  The payload
     fits the kernel socket buffer, so no concurrent reader is needed. *)
  let client, server = socketpair () in
  let payload = String.init 4_096 (fun i -> Char.chr (33 + (i mod 90))) in
  with_plan "server.write=truncate" (fun () ->
      (match Io_util.write_all ~fault:"server.write" server payload with
      | Ok () -> ()
      | Error `Closed -> Alcotest.fail "peer vanished under truncate");
      checkb "truncate actually fired" true (Fault.fires "server.write" > 0));
  Unix.shutdown server Unix.SHUTDOWN_SEND;
  Unix.close server;
  let received = drain client in
  Unix.close client;
  checkb "payload byte-identical" true (received = payload)

(* --------------------------------------------------------------- breaker *)

let breaker_cfg =
  {
    Breaker.window = 4;
    threshold = 2;
    cooldown_ns = 30_000_000L (* 30ms *);
    probes = 2;
  }

let test_breaker_state_machine () =
  let b = Breaker.create ~config:breaker_cfg "unit" in
  checkb "starts closed" true (Breaker.state b = Breaker.Closed);
  checkb "admits closed" true (Breaker.admit b = `Admit);
  Breaker.record b ~ok:true;
  checkb "still closed after success" true (Breaker.state b = Breaker.Closed);
  (* Two failures in the window trip it open. *)
  ignore (Breaker.admit b);
  Breaker.record b ~ok:false;
  ignore (Breaker.admit b);
  Breaker.record b ~ok:false;
  checkb "tripped open" true (Breaker.state b = Breaker.Open);
  checki "one trip" 1 (Breaker.trips b);
  checkb "open rejects" true (Breaker.admit b = `Reject);
  checki "rejection tallied" 1 (Breaker.rejections b);
  (* Cooldown elapses: half-open, one probe slot. *)
  Unix.sleepf 0.04;
  checkb "probe offered" true (Breaker.admit b = `Probe);
  checkb "second caller rejected while probe in flight" true
    (Breaker.admit b = `Reject);
  Breaker.record_probe b ~ok:true;
  checkb "one probe is not enough" true (Breaker.state b = Breaker.Half_open);
  checkb "next probe offered" true (Breaker.admit b = `Probe);
  Breaker.record_probe b ~ok:true;
  checkb "closed again" true (Breaker.state b = Breaker.Closed);
  checki "recovery tallied" 1 (Breaker.recoveries b);
  (* A probe failure re-opens immediately. *)
  ignore (Breaker.admit b);
  Breaker.record b ~ok:false;
  ignore (Breaker.admit b);
  Breaker.record b ~ok:false;
  checkb "tripped again" true (Breaker.state b = Breaker.Open);
  Unix.sleepf 0.04;
  checkb "probe offered again" true (Breaker.admit b = `Probe);
  Breaker.record_probe b ~ok:false;
  checkb "probe failure re-opens" true (Breaker.state b = Breaker.Open);
  checki "re-trip tallied" 3 (Breaker.trips b);
  (* An abandoned probe (the request was cancelled) releases the slot
     without a verdict: still half-open, the next caller probes. *)
  Unix.sleepf 0.04;
  checkb "probe offered after re-trip" true (Breaker.admit b = `Probe);
  Breaker.abandon_probe b;
  checkb "abandon keeps half-open" true (Breaker.state b = Breaker.Half_open);
  checkb "slot released for next caller" true (Breaker.admit b = `Probe);
  checki "abandon records nothing" 3 (Breaker.trips b)

let test_breaker_trips_and_recovers_in_session () =
  (* Acceptance demo: a chaos plan breaks exactly one engine
     ([engine.plan.local]); verified routing degrades every request, the
     breaker trips after [threshold] failures so the broken engine stops
     being invoked at all, and once the plan is disarmed the half-open
     probes close it again.  Distinct permutations per request keep the
     plan cache out of the loop. *)
  Breaker.clear_all ();
  let finally () = Breaker.clear_all () in
  Fun.protect ~finally @@ fun () ->
  let config =
    {
      Session.default_config with
      Session.verify = true;
      breaker = Some { breaker_cfg with probes = 1 };
    }
  in
  let session = Session.create ~config () in
  let perm k = Perm.check (Rng.permutation (Rng.create k) 9) in
  let route k =
    let r = result_of (Session.handle_line session (route_line ~id:k (perm k))) in
    match Schedule.of_json (member_exn "schedule" r) with
    | Ok sched ->
        checkb
          (Printf.sprintf "request %d realizes" k)
          true
          (Schedule.realizes ~n:9 sched (perm k))
    | Error msg -> Alcotest.failf "request %d: bad schedule: %s" k msg
  in
  with_plan "engine.plan.local=raise" (fun () ->
      (* threshold failures: both answered by the degradation chain. *)
      route 1;
      route 2;
      let b = Breaker.get_or_create "local" in
      checkb "tripped open" true (Breaker.state b = Breaker.Open);
      checki "one trip" 1 (Breaker.trips b);
      (* While open the primary is never invoked: the fault point's
         firing count freezes even though requests keep succeeding. *)
      let fires_before = Fault.fires "engine.plan.local" in
      route 3;
      route 4;
      checki "broken engine not invoked while open" fires_before
        (Fault.fires "engine.plan.local");
      checkb "rejections recorded" true (Breaker.rejections b >= 2));
  (* Plan disarmed: after the cooldown the probe succeeds and the
     breaker closes — the engine serves again. *)
  Unix.sleepf 0.04;
  route 5;
  let b = Breaker.get_or_create "local" in
  checkb "closed after probe" true (Breaker.state b = Breaker.Closed);
  checki "recovery recorded" 1 (Breaker.recoveries b);
  route 6;
  checkb "still closed" true (Breaker.state b = Breaker.Closed)

(* ------------------------------------------------------------ supervisor *)

let test_watchdog_escalation () =
  (* kill at hung_ms, lost after another hung_ms of frozen progress;
     the watchdog wins the settle race and fires the abort. *)
  let sup = Supervisor.create ~hung_ms:30 ~workers:2 () in
  let cancel = Cancel.create () in
  let aborted = ref false in
  let tk =
    Supervisor.enter sup ~worker:1 ~cancel ~abort:(fun () -> aborted := true)
  in
  checkb "fresh request not hung" true (Supervisor.monitor sup = []);
  checkb "not killed yet" false (Cancel.killed cancel);
  Unix.sleepf 0.045;
  checkb "kill is not yet lost" true (Supervisor.monitor sup = []);
  checkb "token killed" true (Cancel.killed cancel);
  checki "hung tallied" 1 (Supervisor.hung sup);
  Unix.sleepf 0.045;
  (match Supervisor.monitor sup with
  | [ 1 ] -> ()
  | l -> Alcotest.failf "expected worker 1 lost, got %d" (List.length l));
  checkb "abort fired" true !aborted;
  checkb "worker's late settle loses" false (Supervisor.settle tk);
  Supervisor.leave sup tk;
  checkb "slot cleared" true (Supervisor.monitor sup = [])

let test_watchdog_settle_race_protects_worker () =
  (* A slow-but-alive worker notices the kill flag at its next poll and
     aborts through its normal error plumbing — settling first.  The
     watchdog's later settle attempt loses the CAS, so the worker is
     never declared lost and its domain survives, however long the
     grace period has been over. *)
  let sup = Supervisor.create ~hung_ms:30 ~workers:1 () in
  let cancel = Cancel.create () in
  let tk =
    Supervisor.enter sup ~worker:0 ~cancel ~abort:(fun () ->
        Alcotest.fail "self-aborting worker must not be aborted")
  in
  Unix.sleepf 0.045;
  ignore (Supervisor.monitor sup);
  checkb "killed" true (Cancel.killed cancel);
  (match Cancel.poll cancel with
  | () -> Alcotest.fail "poll must honor the kill flag"
  | exception Cancel.Cancelled Cancel.Killed -> ());
  (* The worker's abort path: claim the reply slot, clear the slot. *)
  checkb "worker settles first" true (Supervisor.settle tk);
  Supervisor.leave sup tk;
  Unix.sleepf 0.045;
  checkb "never declared lost" true (Supervisor.monitor sup = []);
  checki "kill still tallied" 1 (Supervisor.hung sup)

let test_adaptive_admission () =
  let sup = Supervisor.create ~queue_delay_target_ms:5 ~workers:1 () in
  checkb "no shed before samples" true (Supervisor.should_shed sup = None);
  for _ = 1 to 10 do
    Supervisor.note_queue_delay sup 80_000_000L (* 80ms *)
  done;
  checkb "ewma above target" true (Supervisor.queue_delay_ms sup > 5.);
  (match Supervisor.should_shed sup with
  | Some hint ->
      checkb "hint within bounds" true (hint >= 1 && hint <= 60_000);
      checkb "hint tracks ewma" true
        (float_of_int hint >= Supervisor.queue_delay_ms sup)
  | None -> Alcotest.fail "overloaded supervisor must shed");
  checkb "hint exposed alone" true (Supervisor.retry_hint_ms sup >= 1);
  (* Once the backlog drains (no further samples), the EWMA must decay
     and admission reopen — a burst's spike cannot shed forever. *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec recovers () =
    match Supervisor.should_shed sup with
    | None -> true
    | Some _ ->
        if Unix.gettimeofday () > deadline then false
        else begin
          Unix.sleepf 0.021 (* > 4x the 5ms target between consults *);
          recovers ()
        end
  in
  checkb "ewma decays once idle" true (recovers ());
  checkb "ewma back under target" true (Supervisor.queue_delay_ms sup <= 5.);
  (* A supervisor without a target never sheds, whatever the delays. *)
  let off = Supervisor.create ~workers:1 () in
  for _ = 1 to 10 do
    Supervisor.note_queue_delay off 80_000_000L
  done;
  checkb "no target, no shed" true (Supervisor.should_shed off = None)

let test_memory_brownout () =
  (* Any live OCaml process has a max RSS far beyond 1 MB, so the
     brownout trips deterministically: the cache limit shrinks and
     batch requests are rejected with [overloaded]. *)
  let finally () = Supervisor.reset_brownout () in
  Fun.protect ~finally @@ fun () ->
  Supervisor.reset_brownout ();
  let cache = Plan_cache.create ~capacity:64 () in
  let sup = Supervisor.create ~max_rss_mb:1 ~workers:1 () in
  checkb "not active before check" false (Supervisor.brownout_active ());
  Supervisor.check_memory sup ~cache;
  checkb "brownout active" true (Supervisor.brownout_active ());
  checki "cache limit shrunk" 8 (Plan_cache.limit cache);
  let session = Session.create () in
  let batch =
    {|{"id": 9, "method": "route_batch", "params": {"grid": {"rows": 2, "cols": 2}, "perms": [[3,2,1,0]]}}|}
  in
  (match P.response_result (Json.of_string_exn (Session.handle_line session batch)) with
  | Error err -> checkb "batch rejected overloaded" true (err.P.code = P.Overloaded)
  | Ok _ -> Alcotest.fail "brownout must reject batch work");
  (* Plain routes still serve during a brownout. *)
  ignore (result_of (Session.handle_line session (route_line rev9)))

let test_poll_interval () =
  let sup = Supervisor.create ~hung_ms:100 ~workers:1 () in
  checkb "interval is hung/4" true
    (abs_float (Supervisor.poll_interval_s sup -. 0.025) < 1e-9);
  let fast = Supervisor.create ~hung_ms:1 ~workers:1 () in
  checkb "clamped below" true (Supervisor.poll_interval_s fast >= 0.01);
  let off = Supervisor.create ~workers:1 () in
  checkb "1s when off" true (Supervisor.poll_interval_s off = 1.0)

(* ----------------------------------------------------- protocol plumbing *)

let test_retry_after_ms_round_trips () =
  let line = Session.overloaded_response_line ~retry_after_ms:250 {|{"id": 7}|} in
  let doc = Json.of_string_exn line in
  checkb "id recovered" true (Json.member "id" doc = Some (Json.Int 7));
  (match P.response_result doc with
  | Error err ->
      checkb "overloaded" true (err.P.code = P.Overloaded);
      checkb "hint on the wire" true (err.P.retry_after_ms = Some 250)
  | Ok _ -> Alcotest.fail "expected an error envelope");
  (* Without the hint the field is absent, not null. *)
  let bare = Session.overloaded_response_line {|{"id": 8}|} in
  match P.response_result (Json.of_string_exn bare) with
  | Error err -> checkb "no hint" true (err.P.retry_after_ms = None)
  | Ok _ -> Alcotest.fail "expected an error envelope"

(* -------------------------------------------------------- oversized lines *)

let serve_fd_script ?(config = Session.default_config) lines =
  let client, server = socketpair () in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  (match Io_util.write_all client payload with
  | Ok () -> ()
  | Error `Closed -> Alcotest.fail "test harness could not write requests");
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Server.serve_fd ~config server;
  Unix.close server;
  let out = drain client in
  Unix.close client;
  String.split_on_char '\n' out |> List.filter (fun s -> String.trim s <> "")

let test_oversized_line_closes_connection () =
  let config = { Session.default_config with Session.max_line_bytes = 512 } in
  let big = String.make 600 'x' in
  let responses =
    serve_fd_script ~config [ route_line ~id:1 rev9; big; route_line ~id:3 rev9 ]
  in
  (* The in-bound line before the oversized one is answered, then the
     goodbye — and nothing after. *)
  checki "two responses" 2 (List.length responses);
  checkb "first request served" true
    (Json.member "schedule" (result_of (List.nth responses 0)) <> None);
  match P.response_result (Json.of_string_exn (List.nth responses 1)) with
  | Error err ->
      checkb "invalid_request goodbye" true (err.P.code = P.Invalid_request)
  | Ok _ -> Alcotest.fail "oversized line must be refused"

let test_oversized_fragment_closes_connection () =
  (* No newline at all: the buffered fragment alone must trip the cap —
     a stuck client cannot grow the buffer without bound. *)
  let config = { Session.default_config with Session.max_line_bytes = 256 } in
  let client, server = socketpair () in
  let fragment = String.make 1_000 'y' in
  (match Io_util.write_all client fragment with
  | Ok () -> ()
  | Error `Closed -> Alcotest.fail "harness write failed");
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Server.serve_fd ~config server;
  Unix.close server;
  let out = drain client in
  Unix.close client;
  match
    String.split_on_char '\n' out |> List.filter (fun s -> String.trim s <> "")
  with
  | [ goodbye ] -> (
      match P.response_result (Json.of_string_exn goodbye) with
      | Error err ->
          checkb "invalid_request goodbye" true
            (err.P.code = P.Invalid_request)
      | Ok _ -> Alcotest.fail "fragment must be refused")
  | l -> Alcotest.failf "expected exactly the goodbye, got %d lines" (List.length l)

(* ------------------------------------------------- watchdog chaos demo *)

let await_socket path =
  let rec go tries =
    if tries = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Unix.sleepf 0.02;
      go (tries - 1)
    end
  in
  go 250

let fast_retry attempts =
  { Client.attempts; base_delay_ms = 1.; max_delay_ms = 2.; budget_ms = 500. }

let counter_of stats name =
  match Json.member "counters" (member_exn "metrics" stats) with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt name fields with
      | Some (Json.Int n) -> n
      | Some _ -> Alcotest.failf "counter %s not an int" name
      | None -> 0)
  | _ -> Alcotest.fail "stats carries no metrics.counters"

let test_hung_worker_answered_and_respawned () =
  (* The acceptance scenario: a pool worker wedges (worker.hang delays
     the whole job past the watchdog budget, no polling).  The watchdog
     cancels, declares the worker lost, answers that client with a typed
     internal_error, and respawns the domain — while the server keeps
     serving correct schedules on the same socket.  The oversized-line
     cap is exercised against the same live server. *)
  let tag = Printf.sprintf "qr_supervision_%d" (Unix.getpid ()) in
  let path = Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock") in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let config =
    {
      Session.default_config with
      Session.hung_request_ms = Some 100;
      max_line_bytes = 4_096;
    }
  in
  with_plan "worker.hang=delay(1200)#1" @@ fun () ->
  match Unix.fork () with
  | 0 ->
      (try Server.run_socket ~config ~workers:2 ~path () with _ -> ());
      Unix._exit 0
  | child ->
      let finally () =
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      await_socket path;
      (* Request 1 hangs its worker; the watchdog answers. *)
      let req id pi =
        P.request ~id:(Json.Int id) ~meth:"route"
          (Json.Obj
             [
               ("grid", P.grid_to_json (Grid.make ~rows:3 ~cols:3));
               ("perm", P.perm_to_json pi);
               ("engine", Json.String "local");
             ])
      in
      (match Client.rpc_retry ~retry:(fast_retry 2) ~path (req 1 rev9) with
      | Client.Server_error (err, _) ->
          checkb "typed internal_error from the watchdog" true
            (err.P.code = P.Internal_error)
      | Client.Response _ -> Alcotest.fail "hung request cannot succeed"
      | Client.Transport_failure msg ->
          Alcotest.failf "transport failure: %s" msg);
      (* The same socket keeps serving correct schedules. *)
      let pi2 = Perm.check (Rng.permutation (Rng.create 42) 9) in
      (match Client.rpc_retry ~retry:(fast_retry 4) ~path (req 2 pi2) with
      | Client.Response envelope -> (
          match P.response_result envelope with
          | Ok result -> (
              match Schedule.of_json (member_exn "schedule" result) with
              | Ok sched ->
                  checkb "post-hang schedule realizes" true
                    (Schedule.realizes ~n:9 sched pi2)
              | Error msg -> Alcotest.failf "bad schedule: %s" msg)
          | Error err -> Alcotest.failf "error after respawn: %s" err.P.message)
      | Client.Server_error (err, _) ->
          Alcotest.failf "error after respawn: %s" err.P.message
      | Client.Transport_failure msg ->
          Alcotest.failf "transport failure after respawn: %s" msg);
      (* The supervision events are visible in the metrics. *)
      (match
         Client.rpc_retry ~retry:(fast_retry 4) ~path
           (P.request ~id:(Json.Int 3) ~meth:"stats" (Json.Obj []))
       with
      | Client.Response envelope -> (
          match P.response_result envelope with
          | Ok stats ->
              checkb "hung request counted" true
                (counter_of stats "server_hung_requests" >= 1);
              checkb "worker respawned" true
                (counter_of stats "server_worker_restarts" >= 1)
          | Error err -> Alcotest.failf "stats error: %s" err.P.message)
      | _ -> Alcotest.fail "stats request failed");
      (* Oversized line against the live pool server: typed refusal. *)
      match Client.call ~path (String.make 8_192 'z') with
      | Ok goodbye -> (
          match P.response_result (Json.of_string_exn goodbye) with
          | Error err ->
              checkb "pool oversized goodbye" true
                (err.P.code = P.Invalid_request)
          | Ok _ -> Alcotest.fail "oversized line must be refused")
      | Error msg -> Alcotest.failf "oversized call failed: %s" msg

let test_brownout_single_worker () =
  (* The supervisor timer runs at every worker count: a one-worker
     server past its max-RSS limit rejects batch work within one poll
     interval, as the pool does. *)
  let tag = Printf.sprintf "qr_brownout_%d" (Unix.getpid ()) in
  let path = Filename.concat (Filename.get_temp_dir_name ()) (tag ^ ".sock") in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let config = { Session.default_config with Session.max_rss_mb = Some 1 } in
  match Unix.fork () with
  | 0 ->
      (try Server.run_socket ~config ~workers:1 ~path () with _ -> ());
      Unix._exit 0
  | child ->
      let finally () =
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Supervisor.reset_brownout ()
      in
      Fun.protect ~finally @@ fun () ->
      await_socket path;
      let interval =
        Supervisor.poll_interval_s (Supervisor.create ~max_rss_mb:1 ~workers:1 ())
      in
      Unix.sleepf (interval +. 0.3);
      let batch =
        {|{"id": 9, "method": "route_batch", "params": {"grid": {"rows": 2, "cols": 2}, "perms": [[3,2,1,0]]}}|}
      in
      match Client.call ~path batch with
      | Ok reply -> (
          match P.response_result (Json.of_string_exn reply) with
          | Error err ->
              checkb "batch shed as overloaded" true (err.P.code = P.Overloaded);
              checkb "shed by the memory brownout" true
                (String.starts_with ~prefix:"memory brownout" err.P.message)
          | Ok _ -> Alcotest.fail "a browned-out server must reject batch work")
      | Error msg -> Alcotest.failf "batch call failed: %s" msg

(* ------------------------------------------------------------------ run *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "supervision"
    [
      ( "deadline",
        [ Alcotest.test_case "after_ms saturates" `Quick test_deadline_saturates ] );
      ( "cancel",
        [
          Alcotest.test_case "kill and deadline fire" `Quick
            test_cancel_kill_and_deadline;
          qc cancellation_is_transparent;
        ] );
      ( "io",
        [
          Alcotest.test_case "write_all survives truncate storms" `Quick
            test_write_all_truncate_terminates;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
          Alcotest.test_case "trips and recovers in session" `Quick
            test_breaker_trips_and_recovers_in_session;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "watchdog escalation" `Quick
            test_watchdog_escalation;
          Alcotest.test_case "settle race protects workers" `Quick
            test_watchdog_settle_race_protects_worker;
          Alcotest.test_case "adaptive admission" `Quick
            test_adaptive_admission;
          Alcotest.test_case "memory brownout" `Quick test_memory_brownout;
          Alcotest.test_case "poll interval" `Quick test_poll_interval;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "retry_after_ms round-trips" `Quick
            test_retry_after_ms_round_trips;
        ] );
      ( "oversized",
        [
          Alcotest.test_case "line cap closes connection" `Quick
            test_oversized_line_closes_connection;
          Alcotest.test_case "fragment cap closes connection" `Quick
            test_oversized_fragment_closes_connection;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "hung worker answered and respawned" `Quick
            test_hung_worker_answered_and_respawned;
          Alcotest.test_case "brownout at one worker" `Quick
            test_brownout_single_worker;
        ] );
    ]
