(* The served half of the benchmark: fork a real server through
   Server.run_socket (metrics on, as when served), drive one workload
   through a single closed-loop client on one persistent Unix-socket
   connection — the next request goes out only after the previous reply
   is read, as a transpiler waiting on each routing reply would — and
   check every returned schedule once the timed window has closed. *)

open Qroute
module P = Server_protocol
module Json = Obs_json
module W = Workload

let now_ns () = Int64.to_int (Timer.now_ns ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* Scratch directory for sockets, results and trace files, inside the
   checkout the benchmark runs from. *)
let out_dir = "perfbench/out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* ------------------------------------------------------------ server *)

type server = { pid : int; path : string }

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let fork_server w ~path =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* Standard output carries only the benchmark's own result lines. *)
      Unix.dup2 Unix.stderr Unix.stdout;
      (try Server.run_socket ~workers:(W.workers w) ~path ()
       with e -> prerr_endline ("perfbench server: " ^ Printexc.to_string e));
      Unix._exit 0
  | pid -> { pid; path }

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (waitpid_retry [] s.pid);
  try Unix.unlink s.path with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------ client *)

type conn = { fd : Unix.file_descr; chunk : Bytes.t; buf : Buffer.t }

let connect s =
  let give_up = now_ns () + 20_000_000_000 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match waitpid_retry [ Unix.WNOHANG ] s.pid with
        | 0, _ -> ()
        | _ -> failwith "server exited before accepting connections");
        if now_ns () > give_up then failwith "server socket never appeared";
        Unix.sleepf 0.0005;
        go ()
  in
  { fd = go (); chunk = Bytes.create 65536; buf = Buffer.create 262144 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c wire =
  let len = String.length wire in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd wire off (len - off))
  in
  go 0

(* A response line, split at its trailing [server_ms] field so that two
   replies to the same request compare byte for byte. *)
type reply = {
  body : string;  (** The line up to (not including) [,"server_ms":...}]. *)
  cut : bool;  (** Whether a [server_ms] field was split off. *)
  server_ms : float;
  bytes : int;  (** The whole line's length, newline included. *)
}

let marker = ",\"server_ms\":"

(* Where the trailing [,"server_ms":...}] field of a [len]-byte response
   line starts, if it has one. *)
let find_marker get len =
  let m = String.length marker in
  let matches i =
    let rec go k = k = m || (get (i + k) = marker.[k] && go (k + 1)) in
    go 0
  in
  let rec find i =
    if i < 0 || i < len - 64 then None else if matches i then Some i else find (i - 1)
  in
  find (len - m)

let reply_of ~sub ~bytes ~len marker_at =
  let m = String.length marker in
  match marker_at with
  | Some i ->
      let ms = sub (i + m) (len - i - m - 1) in
      {
        body = sub 0 i;
        cut = true;
        server_ms = Option.value (float_of_string_opt ms) ~default:Float.nan;
        bytes;
      }
  | None -> { body = sub 0 len; cut = false; server_ms = Float.nan; bytes }

(* A response line (without its newline) as a {!reply}. *)
let split_server_ms line =
  let len = String.length line in
  reply_of ~sub:(String.sub line) ~bytes:(len + 1) ~len
    (find_marker (String.get line) len)

(* Reads one response line into the connection's buffer.  JSON strings
   escape newlines, so the response ends at the first '\n', and in a
   closed loop nothing follows it. *)
let read_line c =
  Buffer.clear c.buf;
  let rec fill () =
    let k = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
    if k = 0 then failwith "server closed the connection";
    Buffer.add_subbytes c.buf c.chunk 0 k;
    if Bytes.get c.chunk (k - 1) <> '\n' then fill ()
  in
  fill ()

(* The line {!read_line} read, as a {!reply}. *)
let take_reply c =
  let bytes = Buffer.length c.buf in
  let len = bytes - 1 in
  reply_of ~sub:(Buffer.sub c.buf) ~bytes ~len (find_marker (Buffer.nth c.buf) len)

(* The reply as the document the server sent, minus [server_ms]. *)
let body_text r = if r.cut then r.body ^ "}" else r.body

let decode r = Json.of_string (body_text r)

let round_trip c wire =
  send c wire;
  read_line c;
  take_reply c

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

(* Counters read from the [stats] RPC, outside every timed window. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  wakeups : int;
  rss_kb : float;
}

let stats c =
  let r = round_trip c "{\"id\":\"stats\",\"method\":\"stats\"}\n" in
  let j =
    match decode r with
    | Ok j -> j
    | Error e -> failwith ("stats reply is not JSON: " ^ e)
  in
  let int path =
    match Option.bind (member_path ("result" :: path) j) Json.get_int with
    | Some v -> v
    | None -> failwith ("stats reply lacks " ^ String.concat "." path)
  in
  let rss =
    match
      Option.bind
        (member_path [ "result"; "metrics"; "gauges"; "process_max_rss_kb" ] j)
        Json.get_float
    with
    | Some v -> v
    | None -> failwith "stats reply lacks process_max_rss_kb"
  in
  {
    hits = int [ "plan_cache"; "hits" ];
    misses = int [ "plan_cache"; "misses" ];
    evictions = int [ "plan_cache"; "evictions" ];
    wakeups = int [ "metrics"; "counters"; "server_loop_wakeups" ];
    rss_kb = rss;
  }

(* ------------------------------------------------------------- setup *)

let setups = 9

type live = { server : server; conn : conn }

(* One set-up, timed from the fork to the end of warm-up: the workload's
   set-up lines are sent and must all succeed (for route32-hit this fills
   the cache with the 32 lines the timed phase cycles). *)
let set_up w ~setup_lines ~k =
  let t0 = now_ns () in
  let path = Printf.sprintf "%s/srv-%d-%d.sock" out_dir (Unix.getpid ()) k in
  let server = fork_server w ~path in
  match connect server with
  | exception e ->
      stop_server server;
      raise e
  | conn ->
      List.iter
        (fun (l : W.line) ->
          let r = round_trip conn l.wire in
          match Result.map P.response_result (decode r) with
          | Ok (Ok _) -> ()
          | _ -> failwith ("set-up request failed: " ^ body_text r))
        setup_lines;
      ({ server; conn }, ms_of_ns (now_ns () - t0) /. 1000.)

let shut_down live =
  close live.conn;
  stop_server live.server

(* --------------------------------------------------------- timed phase *)

type sample = {
  line : W.line;
  rtt_ms : float;
  reply : reply;
}

type run = {
  workload : W.t;
  setup_lines : W.line list;
  setup_s : float list;
  samples : sample array;  (** Timed requests in the order sent. *)
  wall_s : float;
  before : stats;
  after : stats;
}

(* Permutations depth_ratio averages over: a fixed prefix of the timed
   phase, so that the figure depends on the seed and never on timing, and
   long enough that it varies little from seed to seed.  route32-hit
   cycles 32 permutations, so more would only repeat them. *)
let depth_prefix = function
  | W.Route32_miss -> 512
  | W.Route32_hit -> 128
  | W.Batch16_pool -> 1024

(* Timed requests always reach this count, so p90 has at least ten
   samples beyond it and depth_ratio covers its whole prefix. *)
let min_requests w = max 100 (depth_prefix w / W.batch w)

let run w ~seed ~seconds =
  let s = W.stream w ~seed in
  let setup_lines = W.take s (W.setup_lines w) in
  let durations = ref [] in
  let rec setups_from k =
    let live, dt = set_up w ~setup_lines ~k in
    durations := dt :: !durations;
    if k + 1 < setups then begin
      shut_down live;
      setups_from (k + 1)
    end
    else live
  in
  let live = setups_from 0 in
  Fun.protect ~finally:(fun () -> shut_down live) @@ fun () ->
  (* Lines are rendered before the window opens; the pre-rendered count
     covers the timed phase at well above today's request rates. *)
  let next =
    match w with
    | W.Route32_hit ->
        let cycle = Array.of_list setup_lines in
        fun i -> cycle.(i mod Array.length cycle)
    | W.Route32_miss | W.Batch16_pool ->
        let rate = match w with W.Batch16_pool -> 40 | _ -> 120 in
        let ready = Array.of_list (W.take s (max (min_requests w) (seconds * rate))) in
        fun i -> if i < Array.length ready then ready.(i) else W.next_line s
  in
  let before = stats live.conn in
  let window = seconds * 1_000_000_000 in
  let t0 = now_ns () in
  let samples = ref [] in
  let first_body = Hashtbl.create 64 in
  let rec loop i =
    if now_ns () - t0 < window || i < min_requests w then begin
      let line = next i in
      let s0 = now_ns () in
      send live.conn line.W.wire;
      read_line live.conn;
      let s1 = now_ns () in
      let reply = take_reply live.conn in
      (* A reply byte-identical to an earlier reply for the same line
         shares that string, so route32-hit keeps 32 bodies, not one per
         request. *)
      let reply =
        match Hashtbl.find_opt first_body line.W.id with
        | Some b when String.equal b reply.body -> { reply with body = b }
        | Some _ -> reply
        | None ->
            Hashtbl.add first_body line.W.id reply.body;
            reply
      in
      samples := { line; rtt_ms = ms_of_ns (s1 - s0); reply } :: !samples;
      loop (i + 1)
    end
  in
  loop 0;
  let wall_s = ms_of_ns (now_ns () - t0) /. 1000. in
  let after = stats live.conn in
  {
    workload = w;
    setup_lines;
    setup_s = List.rev !durations;
    samples = Array.of_list (List.rev !samples);
    wall_s;
    before;
    after;
  }

(* ------------------------------------------------------- output check *)

type check = {
  attempted : int;  (** Permutations sent in the timed phase. *)
  failed : int;  (** Failed requests' permutations plus invalid schedules. *)
  invalid : int;  (** Returned schedules that do not route their permutation. *)
  valid : int;
  depth_ratio : float;
  problems : string list;  (** Benchmark self-test failures. *)
}

(* What one distinct reply body holds: per permutation, the depth ratio
   of a valid schedule or an error; and the reply's cached flags. *)
let judge_body w (line : W.line) r =
  let grid = W.grid w in
  let schedules, cached =
    match decode r with
    | Error e -> (Error ("reply is not JSON: " ^ e), [])
    | Ok j -> (
        match P.response_result j with
        | Error e -> (Error ("error reply: " ^ e.P.message), [])
        | Ok result -> (
            let flags key =
              match Json.member key result with
              | Some (Json.Bool b) -> [ b ]
              | Some (Json.List l) -> List.map (fun v -> Json.get_bool v = Some true) l
              | _ -> []
            in
            match w with
            | W.Route32_miss | W.Route32_hit -> (
                match Json.member "schedule" result with
                | Some s -> (Ok [ s ], flags "cached")
                | None -> (Error "reply has no schedule", []))
            | W.Batch16_pool -> (
                match Json.member "schedules" result with
                | Some (Json.List l) when List.length l = List.length line.perms
                  ->
                    (Ok l, flags "cached")
                | _ -> (Error "reply has no schedule list of the batch's size", []))))
  in
  let per_perm =
    match schedules with
    | Error e -> List.map (fun _ -> Error e) line.perms
    | Ok ss ->
        List.map2
          (fun pi sj ->
            match Schedule.of_json sj with
            | Error e -> Error ("undecodable schedule: " ^ e)
            | Ok sched -> (
                match Router_registry.validate (Router_intf.Grid_input (grid, pi)) sched with
                | Error e -> Error ("invalid schedule: " ^ e)
                | Ok () ->
                    let lb = max 1 (Bounds.depth_lower_bound grid pi) in
                    Ok (float_of_int (Schedule.depth sched) /. float_of_int lb)))
          line.perms ss
  in
  (per_perm, cached, Result.is_ok schedules)

let check (r : run) =
  let w = r.workload in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let judged = Hashtbl.create 64 in
  let attempted = ref 0 and failed = ref 0 and invalid = ref 0 in
  let ratios = ref [] and counted = ref 0 in
  let expect_cached = w = W.Route32_hit in
  let bad_flags = ref 0 in
  Array.iter
    (fun s ->
      let body = s.reply.body in
      let per_perm, cached, answered =
        match Hashtbl.find_opt judged body with
        | Some v -> v
        | None ->
            let v = judge_body w s.line s.reply in
            Hashtbl.add judged body v;
            v
      in
      if List.exists (fun c -> c <> expect_cached) cached
         || List.length cached <> List.length s.line.perms
      then incr bad_flags;
      List.iter
        (fun outcome ->
          incr attempted;
          (match outcome with
          | Ok ratio ->
              if !counted < depth_prefix w then begin
                ratios := ratio :: !ratios;
                incr counted
              end
          | Error msg ->
              incr failed;
              if answered then incr invalid;
              if !failed <= 3 then problem "request %d: %s" s.line.W.id msg))
        per_perm)
    r.samples;
  if !counted < depth_prefix w then
    problem "only %d valid schedules for depth_ratio (need %d)" !counted (depth_prefix w);
  if !bad_flags > 0 then
    problem "%d replies with cached flags other than %b" !bad_flags expect_cached;
  (* The server's own cache counters over the timed window. *)
  let hits = r.after.hits - r.before.hits
  and misses = r.after.misses - r.before.misses
  and evictions = r.after.evictions - r.before.evictions in
  let expect_hits, expect_misses =
    if expect_cached then (!attempted, 0) else (0, !attempted)
  in
  if hits <> expect_hits || misses <> expect_misses then
    problem "server plan_cache counted %d hits / %d misses, expected %d / %d" hits
      misses expect_hits expect_misses;
  (* Every plan the misses store evicts one once the cache is full. *)
  let cached_before = List.length r.setup_lines * W.batch w in
  let expect_evictions =
    if expect_cached then 0
    else max 0 (cached_before + !attempted - 128) - max 0 (cached_before - 128)
  in
  if evictions <> expect_evictions then
    problem "server evicted %d plans, expected %d" evictions expect_evictions;
  (* Permutations of the miss workloads never repeat. *)
  if w <> W.Route32_hit then begin
    let seen = Hashtbl.create 1024 in
    let dups = ref 0 in
    List.iter
      (fun (l : W.line) ->
        List.iter
          (fun p ->
            let d = W.perm_digest p in
            if Hashtbl.mem seen d then incr dups else Hashtbl.add seen d ())
          l.perms)
      (r.setup_lines @ List.map (fun s -> s.line) (Array.to_list r.samples));
    if !dups > 0 then problem "%d permutations repeat" !dups
  end;
  let ratios = Array.of_list !ratios in
  {
    attempted = !attempted;
    failed = !failed;
    invalid = !invalid;
    valid = !attempted - !failed;
    depth_ratio =
      (if Array.length ratios = 0 then Float.nan else Stats.mean ratios);
    problems = List.rev !problems;
  }
