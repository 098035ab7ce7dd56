module Perm = Qr_perm.Perm
module Metrics = Qr_obs.Metrics

let c_rounds = Metrics.counter "odd_even_rounds"

let route_from_parity start_parity dests =
  if not (Perm.is_permutation dests) then
    invalid_arg "Path_route.route: dests is not a permutation";
  let k = Array.length dests in
  let tokens = Array.copy dests in
  let layers = ref [] in
  let parity = ref start_parity in
  let rounds = ref 0 in
  let sorted () =
    let rec check i = i >= k || (tokens.(i) = i && check (i + 1)) in
    check 0
  in
  (* Odd-even transposition needs at most k rounds from either starting
     parity; k+1 leaves room for a wasted first round. *)
  while (not (sorted ())) && !rounds <= k + 1 do
    let swaps = ref [] in
    let p = ref !parity in
    while !p + 1 < k do
      if tokens.(!p) > tokens.(!p + 1) then begin
        let tmp = tokens.(!p) in
        tokens.(!p) <- tokens.(!p + 1);
        tokens.(!p + 1) <- tmp;
        swaps := (!p, !p + 1) :: !swaps
      end;
      p := !p + 2
    done;
    if !swaps <> [] then layers := List.rev !swaps :: !layers;
    parity := 1 - !parity;
    incr rounds
  done;
  (* One shared-counter update per call, not per round. *)
  Metrics.add c_rounds !rounds;
  assert (sorted ());
  List.rev !layers

let route dests = route_from_parity 0 dests

let route_min_parity dests =
  let even = route_from_parity 0 dests in
  let odd = route_from_parity 1 dests in
  if List.length odd < List.length even then odd else even

let depth_upper_bound k = k
