(* Tests for the readiness-driven serving loop (DESIGN.md §15): the
   event loop's timers (ordering, periodic coalescing), fd interest
   (readable and writable on one descriptor), wakeup accounting, the
   select backend's FD_SETSIZE capacity guard, the bounded
   per-connection write queue — and the two regression scenarios the
   loop exists for: a slow client is closed at its outbox cap instead
   of buffering without bound, and a client that never reads its
   responses no longer head-of-line-blocks every other connection. *)

module Json = Qr_obs.Json
module Metrics = Qr_obs.Metrics
module Grid = Qr_graph.Grid
module Perm = Qr_perm.Perm
module Sys_poll = Qr_util.Sys_poll
module P = Qr_server.Protocol
module Session = Qr_server.Session
module Server = Qr_server.Server
module Client = Qr_server.Client
module Event_loop = Qr_server.Event_loop
module Write_queue = Qr_server.Write_queue

let () = Qr_token.Engines.register ()
let () = ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A watchdog for tests that would hang forever under the historical
   blocking-write loop: fail loudly instead of wedging the suite. *)
let with_test_deadline seconds f =
  let prev =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> Alcotest.fail "test deadline expired"))
  in
  ignore (Unix.alarm seconds);
  let finally () =
    ignore (Unix.alarm 0);
    ignore (Sys.signal Sys.sigalrm prev)
  in
  Fun.protect ~finally f

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:(fun () -> close a; close b) (fun () -> f a b)

let counter_value name =
  match Metrics.find_counter name with
  | Some c -> Metrics.value c
  | None -> Alcotest.failf "counter %s not registered" name

(* ---------------------------------------------------------------- timers *)

let test_timer_ordering () =
  let loop = Event_loop.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  (* Registration order is the reverse of due order. *)
  ignore (Event_loop.add_timer loop ~delay_ns:30_000_000L (note "slow"));
  ignore (Event_loop.add_timer loop ~delay_ns:10_000_000L (note "fast"));
  Event_loop.run loop ~stop:(fun () -> List.length !fired >= 2);
  checkb "due order, not registration order" true
    (List.rev !fired = [ "fast"; "slow" ])

let test_timer_coalescing () =
  let loop = Event_loop.create () in
  let ticks = ref 0 in
  let t =
    Event_loop.add_timer loop ~period_ns:20_000_000L ~delay_ns:20_000_000L
      (fun () -> incr ticks)
  in
  (* Miss several periods before the loop first runs: a coalescing timer
     fires once and reschedules from now — never burst-fires to catch
     up. *)
  Unix.sleepf 0.1;
  Event_loop.run_once loop;
  checki "missed periods coalesce into one tick" 1 !ticks;
  (* The period keeps ticking from now. *)
  Event_loop.run_once loop;
  checki "periodic timer re-arms" 2 !ticks;
  (* A cancelled timer never fires again; a one-shot bounds the wait. *)
  Event_loop.cancel_timer loop t;
  ignore (Event_loop.add_timer loop ~delay_ns:30_000_000L (fun () -> ()));
  Event_loop.run_once loop;
  checki "cancelled timer is silent" 2 !ticks

let test_wakeup_accounting () =
  let loop = Event_loop.create () in
  checki "no wakeups before running" 0 (Event_loop.wakeups loop);
  ignore (Event_loop.add_timer loop ~delay_ns:1_000_000L (fun () -> ()));
  Event_loop.run_once loop;
  checki "one kernel return, one wakeup" 1 (Event_loop.wakeups loop)

(* ----------------------------------------------------------- fd interest *)

let test_readable_and_writable () =
  with_socketpair @@ fun a b ->
  Unix.set_nonblock a;
  let loop = Event_loop.create () in
  let got = ref (false, false) in
  let h =
    Event_loop.watch loop ~readable:true ~writable:true a
      (fun ~readable ~writable -> got := (readable, writable))
  in
  checki "one fd watched" 1 (Event_loop.fd_count loop);
  ignore (Unix.write_substring b "ping\n" 0 5);
  Event_loop.run_once loop;
  checkb "readable and writable fire together" true (!got = (true, true));
  (* Dropping write interest leaves only the readable report. *)
  Event_loop.set_interest loop h ~writable:false ();
  got := (false, false);
  ignore (Unix.write_substring b "more\n" 0 5);
  Event_loop.run_once loop;
  checkb "writable interest disarmed" true (!got = (true, false));
  Event_loop.unwatch loop h;
  checki "unwatch forgets the fd" 0 (Event_loop.fd_count loop)

let test_select_capacity_guard () =
  (* The select fallback must refuse to watch past FD_SETSIZE instead of
     letting Unix.select die with EINVAL mid-serve. *)
  let loop = Event_loop.create ~backend:Event_loop.Select () in
  (match Event_loop.capacity loop with
  | Some cap -> checki "select capacity is FD_SETSIZE" 1024 cap
  | None -> Alcotest.fail "select backend must report a capacity");
  let pairs = ref [] in
  let finally () =
    List.iter
      (fun (a, b) ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      !pairs
  in
  Fun.protect ~finally @@ fun () ->
  (try
     while not (Event_loop.at_capacity loop) do
       let a, b =
         Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
       in
       pairs := (a, b) :: !pairs;
       ignore (Event_loop.watch loop a (fun ~readable:_ ~writable:_ -> ()));
       if not (Event_loop.at_capacity loop) then
         ignore (Event_loop.watch loop b (fun ~readable:_ ~writable:_ -> ()))
     done
   with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
     Alcotest.fail "fd limit below FD_SETSIZE; raise ulimit -n");
  checki "guard trips exactly at capacity" 1024 (Event_loop.fd_count loop);
  with_socketpair @@ fun extra _ ->
  checkb "watch past capacity refuses" true
    (try
       ignore (Event_loop.watch loop extra (fun ~readable:_ ~writable:_ -> ()));
       false
     with Invalid_argument _ -> true)

(* ----------------------------------------------------------- write queue *)

let read_all_nonblock fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let test_write_queue_round_trip () =
  with_socketpair @@ fun a b ->
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  let wq = Write_queue.create ~cap_bytes:1024 a in
  checkb "fresh queue is empty" true (Write_queue.is_empty wq);
  checkb "enqueue under cap" true (Write_queue.enqueue wq "hello" = `Ok);
  checki "newline counted" 6 (Write_queue.pending_bytes wq);
  checkb "flush drains" true (Write_queue.flush wq = `Idle);
  checkb "drained" true (Write_queue.is_empty wq);
  Alcotest.check Alcotest.string "bytes arrive with the newline" "hello\n"
    (read_all_nonblock b)

let test_write_queue_cap () =
  with_socketpair @@ fun a _b ->
  Unix.set_nonblock a;
  let wq = Write_queue.create ~cap_bytes:100 a in
  let line = String.make 40 'x' in
  checkb "first line fits" true (Write_queue.enqueue wq line = `Ok);
  checkb "second line fits" true (Write_queue.enqueue wq line = `Ok);
  (* 82 bytes queued; a third 41-byte line would cross the cap — it is
     refused and NOT queued. *)
  checkb "cap refuses the overflowing line" true
    (Write_queue.enqueue wq line = `Overflow);
  checki "refused line not queued" 82 (Write_queue.pending_bytes wq)

let test_write_queue_peer_gone () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.close b;
  Fun.protect ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
  @@ fun () ->
  let wq = Write_queue.create ~cap_bytes:1024 a in
  checkb "enqueue still accepts" true (Write_queue.enqueue wq "late" = `Ok);
  checkb "flush reports the dead peer" true (Write_queue.flush wq = `Closed)

(* ------------------------------------------------------ slow-client close *)

let route_line ?(id = 1) () =
  Printf.sprintf
    {|{"id": %d, "method": "route", "params": {"grid": {"rows": 3, "cols": 3}, "perm": [8,7,6,5,4,3,2,1,0], "engine": "local"}}|}
    id

let test_slow_client_closed_at_cap () =
  (* serve_fd with a tiny outbox cap and a shrunken kernel send buffer:
     the peer writes a pipeline of requests and never reads a byte.
     Once the kernel buffer is full the responses accumulate in the
     write queue; at the cap the connection is declared slow and closed
     — serve_fd returns instead of buffering (or blocking) forever. *)
  with_test_deadline 30 @@ fun () ->
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable ())
  @@ fun () ->
  let before = counter_value "server_slow_client_closes" in
  with_socketpair @@ fun server_fd client_fd ->
  Unix.setsockopt_int server_fd Unix.SO_SNDBUF 4096;
  (* Queue the whole pipeline up front as one contiguous write (well
     within the request-side kernel buffer), then let the server
     discover the stalled reader.  150 responses comfortably exceed the
     4KB send buffer plus the 2KB outbox cap. *)
  let pipeline =
    String.concat ""
      (List.init 150 (fun i -> route_line ~id:(i + 1) () ^ "\n"))
  in
  let rec write_all off =
    if off < String.length pipeline then
      let k =
        Unix.write_substring client_fd pipeline off
          (String.length pipeline - off)
      in
      write_all (off + k)
  in
  write_all 0;
  let config = { Session.default_config with Session.max_outbox_bytes = 2048 } in
  Server.serve_fd ~config server_fd;
  checki "slow client counted" (before + 1)
    (counter_value "server_slow_client_closes")

(* --------------------------------------------------- slow-reader isolation *)

let await_socket path =
  let rec go tries =
    if tries = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Unix.sleepf 0.02;
      go (tries - 1)
    end
  in
  go 250

let counter_of stats name =
  match Json.member "counters" stats with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt name fields with
      | Some (Json.Int n) -> n
      | Some _ -> Alcotest.failf "counter %s not an int" name
      | None -> 0)
  | _ -> Alcotest.fail "metrics carries no counters"

let member_exn name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" name

let with_forked_server ?(config = Session.default_config) ?workers tag f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d.sock" tag (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match Unix.fork () with
  | 0 ->
      (try Server.run_socket ~config ?workers ~path () with _ -> ());
      Unix._exit 0
  | child ->
      let finally () =
        (try Unix.kill child Sys.sigterm with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally @@ fun () ->
      await_socket path;
      f path

let test_slow_reader_does_not_block_others () =
  (* The head-of-line-blocking regression (satellite of DESIGN.md §15):
     one client floods the server with pipelined requests and never
     reads a response.  Under the historical blocking write_all the
     accept loop wedged inside write(2) to that client, so every other
     connection starved.  The readiness loop keeps serving: the healthy
     client is answered within the test deadline and the staller is
     closed at its outbox cap. *)
  with_test_deadline 60 @@ fun () ->
  let config =
    { Session.default_config with Session.max_outbox_bytes = 32_768 }
  in
  with_forked_server ~config "qr_evloop_stall" @@ fun path ->
  let staller = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close staller with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect staller (Unix.ADDR_UNIX path);
  (* Elicit far more response bytes than kernel buffer + cap can hold.
     The server closes the staller mid-pipeline, so the remaining
     writes fail — that is the success condition, not an error. *)
  let closed_early = ref false in
  (try
     for id = 1 to 4000 do
       let line = route_line ~id () ^ "\n" in
       ignore (Unix.write_substring staller line 0 (String.length line))
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
     closed_early := true);
  (* A healthy client on the same server answers while the staller's
     backlog is still queued. *)
  let req id meth = P.request ~id:(Json.Int id) ~meth (Json.Obj []) in
  (match Client.rpc_retry ~path (req 1 "health") with
  | Client.Response envelope -> (
      match P.response_result envelope with
      | Ok health ->
          checkb "healthy client served alongside the staller" true
            (member_exn "status" health = Json.String "ok")
      | Error err -> Alcotest.failf "health errored: %s" err.P.message)
  | Client.Server_error (err, _) ->
      Alcotest.failf "health errored: %s" err.P.message
  | Client.Transport_failure msg -> Alcotest.failf "transport failure: %s" msg);
  (* The staller was (or is about to be) closed at the cap. *)
  let rec await_close tries =
    if tries = 0 then Alcotest.fail "staller never closed at the cap";
    match Client.rpc_retry ~path (req 2 "metrics") with
    | Client.Response envelope -> (
        match P.response_result envelope with
        | Ok metrics ->
            if counter_of metrics "server_slow_client_closes" >= 1 then ()
            else begin
              Unix.sleepf 0.05;
              await_close (tries - 1)
            end
        | Error err -> Alcotest.failf "metrics errored: %s" err.P.message)
    | _ -> Alcotest.fail "metrics request failed"
  in
  await_close 100;
  checkb "staller observed the close or was closed after its burst" true
    (!closed_early
    ||
    (* Drain whatever was flushed before the close; EOF/reset follows. *)
    (Unix.shutdown staller Unix.SHUTDOWN_SEND;
     let chunk = Bytes.create 65536 in
     let rec drain () =
       match Unix.read staller chunk 0 65536 with
       | 0 -> true
       | _ -> drain ()
       | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
     in
     drain ()))

(* ------------------------------------------------- many-connection scaling *)

let test_beyond_select_capacity () =
  (* The poll backend serves more concurrent connections than
     FD_SETSIZE allows — the scenario that killed the select loop with
     EINVAL.  Gated on the fd limit: a constrained environment skips
     rather than fails. *)
  if not Sys_poll.available then
    checkb "poll unavailable; nothing to test" true true
  else
    with_test_deadline 120 @@ fun () ->
    with_forked_server "qr_evloop_many" @@ fun path ->
    let conns = ref [] in
    let finally () =
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !conns
    in
    Fun.protect ~finally @@ fun () ->
    let target = 1100 in
    let opened =
      try
        for _ = 1 to target do
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          conns := fd :: !conns;
          Unix.connect fd (Unix.ADDR_UNIX path)
        done;
        target
      with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        List.length !conns
    in
    if opened < target then
      (* fd limit too low to exercise the scenario; connections close in
         [finally], the server just drains. *)
      checkb "skipped: fd limit below the 1100-connection target" true true
    else begin
      (* Every connection is idle-open; the newest one still gets
         answered — the server is past FD_SETSIZE and serving. *)
      let fd = List.hd !conns in
      let line = route_line ~id:9999 () ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec read_line () =
        if String.contains (Buffer.contents buf) '\n' then ()
        else
          match Unix.read fd chunk 0 4096 with
          | 0 -> Alcotest.fail "server closed the 1100th connection"
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              read_line ()
      in
      read_line ();
      let data = Buffer.contents buf in
      let response = String.sub data 0 (String.index data '\n') in
      match P.response_result (Json.of_string_exn response) with
      | Ok _ -> checkb "served beyond FD_SETSIZE" true true
      | Error err ->
          Alcotest.failf "route failed at 1100 connections: %s" err.P.message
    end

(* ----------------------------------------------------- one serving loop *)

(* The same connection machine serves [serve_fd] and [run_socket] at
   every worker count, so the same script must get the same replies
   through all of them. *)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* A line reader over a blocking descriptor: [next ()] is the next
   reply line, [None] at EOF (or a reset peer). *)
let reply_reader fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec next () =
    let data = Buffer.contents buf in
    match String.index_opt data '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf
          (String.sub data (i + 1) (String.length data - i - 1));
        Some (String.sub data 0 i)
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            next ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None)
  in
  next

let rec replies_to_eof next =
  match next () with None -> [] | Some line -> line :: replies_to_eof next

let error_code line =
  match P.response_result (Json.of_string_exn line) with
  | Error err -> Some err.P.code
  | Ok _ -> None

(* Three junk lines against a budget of 2: the second reply trips the
   budget, so exactly two [parse_error] replies leave, then EOF — the
   client never half-closes, so a budget that does not close hangs the
   test into its deadline. *)
let junk_lines = "junk one\njunk two\njunk three\n"
let budget_config = { Session.default_config with Session.error_budget = 2 }

let check_budget_trip label replies =
  checki (label ^ ": two replies, then EOF") 2 (List.length replies);
  List.iter
    (fun line ->
      checkb (label ^ ": parse_error") true
        (error_code line = Some P.Parse_error))
    replies

let test_budget_trip_is_exact () =
  with_test_deadline 30 @@ fun () ->
  let client, server =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  send_all client junk_lines;
  Server.serve_fd ~config:budget_config server;
  Unix.close server;
  let replies = replies_to_eof (reply_reader client) in
  Unix.close client;
  check_budget_trip "serve_fd" replies;
  List.iter
    (fun workers ->
      with_forked_server ~config:budget_config ~workers
        (Printf.sprintf "qr_evloop_budget%d" workers)
      @@ fun path ->
      let fd = connect path in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd junk_lines;
      check_budget_trip
        (Printf.sprintf "run_socket ~workers:%d" workers)
        (replies_to_eof (reply_reader fd)))
    [ 1; 2 ]

let without_server_ms line =
  match Json.of_string_exn line with
  | Json.Obj fields ->
      Json.to_string (Json.Obj (List.remove_assoc "server_ms" fields))
  | json -> Json.to_string json

(* Lock-step (each reply read before the next line goes out), so the
   cache hit is a hit on every worker count.  Under a budget of 3 the
   oversized-line goodbye is the third consecutive error: it trips the
   budget and must still be delivered before the close. *)
let differential_script =
  let grid = {|{"rows": 3, "cols": 3}|} in
  [
    route_line ~id:1 ();
    route_line ~id:2 ();
    Printf.sprintf
      {|{"id": 3, "method": "route_batch", "params": {"grid": %s, "perms": [[8,7,6,5,4,3,2,1,0],[1,0,3,2,5,4,7,6,8],[3,4,5,0,1,2,6,7,8]], "engine": "local"}}|}
      grid;
    {|{"id": 4, "method": "no_such_method", "params": {}}|};
    Printf.sprintf
      {|{"id": 5, "method": "route", "params": {"grid": %s, "perm": [0,0,0]}}|}
      grid;
    String.make 8_192 'z';
  ]

let run_differential workers =
  let config =
    {
      Session.default_config with
      Session.max_line_bytes = 4_096;
      error_budget = 3;
    }
  in
  with_forked_server ~config ~workers
    (Printf.sprintf "qr_evloop_diff%d" workers)
  @@ fun path ->
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let next = reply_reader fd in
  let replies =
    List.concat_map
      (fun line ->
        send_all fd (line ^ "\n");
        match next () with Some reply -> [ reply ] | None -> [])
      differential_script
  in
  List.map without_server_ms (replies @ replies_to_eof next)

let test_differential_workers () =
  with_test_deadline 60 @@ fun () ->
  let inline = run_differential 1 in
  let pool = run_differential 2 in
  checki "every line answered" (List.length differential_script)
    (List.length inline);
  (match List.nth_opt inline 1 with
  | Some hit ->
      checkb "second route is a cache hit" true
        (Json.member "cached"
           (Option.get (Json.member "result" (Json.of_string_exn hit)))
        = Some (Json.Bool true))
  | None -> Alcotest.fail "no reply to the second route");
  Alcotest.(check (list string)) "same replies at 1 and 2 workers" inline pool

(* -------------------------------------------------------------------- run *)

let () =
  Alcotest.run "qr_evloop"
    [
      ( "timers",
        [
          Alcotest.test_case "due order" `Quick test_timer_ordering;
          Alcotest.test_case "periodic coalescing" `Quick test_timer_coalescing;
          Alcotest.test_case "wakeup accounting" `Quick test_wakeup_accounting;
        ] );
      ( "interest",
        [
          Alcotest.test_case "readable+writable on one fd" `Quick
            test_readable_and_writable;
          Alcotest.test_case "select capacity guard" `Slow
            test_select_capacity_guard;
        ] );
      ( "write_queue",
        [
          Alcotest.test_case "round trip" `Quick test_write_queue_round_trip;
          Alcotest.test_case "byte cap" `Quick test_write_queue_cap;
          Alcotest.test_case "peer gone" `Quick test_write_queue_peer_gone;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "slow client closed at cap" `Slow
            test_slow_client_closed_at_cap;
          Alcotest.test_case "slow reader does not block others" `Slow
            test_slow_reader_does_not_block_others;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "beyond FD_SETSIZE" `Slow
            test_beyond_select_capacity;
        ] );
      ( "one loop",
        [
          Alcotest.test_case "budget trip is exact" `Quick
            test_budget_trip_is_exact;
          Alcotest.test_case "same replies at 1 and 2 workers" `Quick
            test_differential_workers;
        ] );
    ]
