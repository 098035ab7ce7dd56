(* The three workloads and their seeded request generator.

   Every workload draws permutations from one SplitMix64 stream seeded by
   [--seed], cycling the four classes of the paper's Figure 4
   (Generators.paper_kinds: random, block-local, overlapping, long-skinny)
   in that fixed order.  A permutation already drawn is redrawn, so within
   one stream no permutation repeats — the property that makes every
   route32-miss and batch16-pool request a plan-cache miss.  The server
   receives only the rendered request lines. *)

open Qroute
module P = Server_protocol
module Json = Obs_json

type t = Route32_miss | Route32_hit | Batch16_pool

let all = [ Route32_miss; Route32_hit; Batch16_pool ]

let name = function
  | Route32_miss -> "route32-miss"
  | Route32_hit -> "route32-hit"
  | Batch16_pool -> "batch16-pool"

let of_name s = List.find_opt (fun w -> name w = s) all

let why = function
  | Route32_miss ->
      "Fig. 5's operation as served: distinct 32x32 route requests, every \
       one a cache miss, so the routing kernel does most of the work"
  | Route32_hit ->
      "the same 32x32 requests reused: every timed request hits the plan \
       cache, so decode, cache reads, encoding and the socket do all the \
       work"
  | Batch16_pool ->
      "16x16 route_batch of 16 distinct permutations on nproc workers: the \
       only workload that runs Worker_pool fan-out and multi-domain GC"

let side = function Route32_miss | Route32_hit -> 32 | Batch16_pool -> 16

(* Permutations per request line. *)
let batch = function Route32_miss | Route32_hit -> 1 | Batch16_pool -> 16

let workers = function
  | Route32_miss | Route32_hit -> 1
  | Batch16_pool -> Domain.recommended_domain_count ()

let grid w = Grid.make ~rows:(side w) ~cols:(side w)

(* Request lines the server sees before the timed phase: a warm-up of one
   class cycle (route32-miss), the 32 lines the timed phase then cycles
   (route32-hit), or two batches (batch16-pool). *)
let setup_lines = function
  | Route32_miss -> 4
  | Route32_hit -> 32
  | Batch16_pool -> 2

type line = {
  id : int;
  wire : string;  (** The request line, newline included. *)
  perms : Perm.t list;
}

let text l = String.sub l.wire 0 (String.length l.wire - 1)

let perm_digest (p : Perm.t) =
  let b = Bytes.create (8 * Array.length p) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) p;
  Digest.bytes b

type stream = {
  w : t;
  grid : Grid.t;
  rng : Rng.t;
  kinds : Generators.kind array;
  seen : (Digest.t, unit) Hashtbl.t;
  mutable drawn : int;
  mutable next_id : int;
}

let stream w ~seed =
  let grid = grid w in
  {
    w;
    grid;
    rng = Rng.create seed;
    kinds = Array.of_list (Generators.paper_kinds grid);
    seen = Hashtbl.create 1024;
    drawn = 0;
    next_id = 0;
  }

let rec next_perm s =
  let kind = s.kinds.(s.drawn mod Array.length s.kinds) in
  let p = Generators.generate s.grid kind s.rng in
  let d = perm_digest p in
  if Hashtbl.mem s.seen d then next_perm s
  else begin
    Hashtbl.add s.seen d ();
    s.drawn <- s.drawn + 1;
    p
  end

let next_line s =
  let id = s.next_id in
  s.next_id <- id + 1;
  let grid_json = P.grid_to_json s.grid and engine = Json.String "local" in
  let perms, meth, params =
    match s.w with
    | Route32_miss | Route32_hit ->
        let p = next_perm s in
        ( [ p ],
          "route",
          [ ("grid", grid_json); ("perm", P.perm_to_json p); ("engine", engine) ]
        )
    | Batch16_pool ->
        let ps = List.init (batch s.w) (fun _ -> next_perm s) in
        ( ps,
          "route_batch",
          [
            ("grid", grid_json);
            ("perms", Json.List (List.map P.perm_to_json ps));
            ("engine", engine);
          ] )
  in
  let req = P.request ~id:(Json.Int id) ~meth (Json.Obj params) in
  { id; wire = Json.to_string (P.request_to_json req) ^ "\n"; perms }

let take s n = List.init n (fun _ -> next_line s)

(* Self-test: the same seed renders the same request bytes, another seed
   different ones. *)
let bytes_are_seeded w ~seed =
  let render seed = String.concat "" (List.map (fun l -> l.wire) (take (stream w ~seed) 4)) in
  let a = render seed in
  a = render seed && a <> render (seed + 1)
