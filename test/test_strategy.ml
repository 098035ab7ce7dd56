(* Routing by registry name: every registered engine routes every grid
   shape, charges nothing for the identity, and realizes the requested
   permutation on grids and on generic graphs. *)

open Qroute

(* Module aliases alone do not force the umbrella's initializer; complete
   the registry explicitly (idempotent). *)
let () = Token_engines.register ()

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_every_engine_routes_every_shape () =
  let rng = Rng.create 1 in
  List.iter
    (fun (m, n) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation rng (m * n)) in
      List.iter
        (fun engine ->
          let name = engine.Router_intf.name in
          let sched = Router_intf.route_grid engine grid pi in
          checkb
            (Printf.sprintf "%s on %dx%d valid" name m n)
            true
            (Schedule.is_valid (Grid.graph grid) sched);
          checkb
            (Printf.sprintf "%s on %dx%d realizes" name m n)
            true
            (Schedule.realizes ~n:(m * n) sched pi))
        (Router_registry.all ()))
    [ (1, 1); (1, 8); (8, 1); (2, 2); (5, 7); (7, 5) ]

let test_every_engine_identity_free () =
  (* No engine may charge anything for the identity. *)
  let grid = Grid.make ~rows:5 ~cols:5 in
  List.iter
    (fun engine ->
      checki
        (engine.Router_intf.name ^ " identity depth")
        0
        (Schedule.depth
           (Router_intf.route_grid engine grid (Perm.identity 25))))
    (Router_registry.all ())

let test_default_route_is_best () =
  let grid = Grid.make ~rows:6 ~cols:6 in
  let pi = Generators.generate grid Generators.Random (Rng.create 3) in
  checki "default = best"
    (Schedule.depth (route ~engine:"best" grid pi))
    (Schedule.depth (route grid pi))

let test_generic_route_on_non_grid () =
  let graphs =
    [ Graph.cycle 7; Graph.star 6; Graph.complete 5;
      (Topology.heavy_hex ~rows:2 ~cols:3).graph ]
  in
  let rng = Rng.create 4 in
  List.iter
    (fun g ->
      let n = Graph.num_vertices g in
      let oracle = Distance.of_graph g in
      let pi = Perm.check (Rng.permutation rng n) in
      List.iter
        (fun name ->
          let sched =
            Router_registry.route_generic (Router_registry.get name) g oracle
              pi
          in
          checkb (name ^ " generic valid") true (Schedule.is_valid g sched);
          checkb (name ^ " generic realizes") true
            (Schedule.realizes ~n sched pi))
        [ "ats"; "ats-serial"; "best" ])
    graphs

let test_local_never_deeper_than_worst_case () =
  (* The structural guarantee behind Figure 4's y-axis: 2m + n (or the
     transposed bound) for every instance. *)
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let m = 1 + Rng.int rng 9 and n = 1 + Rng.int rng 9 in
    let grid = Grid.make ~rows:m ~cols:n in
    let pi = Perm.check (Rng.permutation rng (m * n)) in
    let depth = Schedule.depth (route ~engine:"local" grid pi) in
    checkb "worst-case bound" true (depth <= min ((2 * m) + n) ((2 * n) + m))
  done

let engine_agreement_property =
  QCheck.Test.make ~name:"all strategies realize the same permutation"
    ~count:40
    QCheck.(triple (int_range 1 5) (int_range 1 5) (int_range 0 100000))
    (fun (m, n, seed) ->
      let grid = Grid.make ~rows:m ~cols:n in
      let pi = Perm.check (Rng.permutation (Rng.create seed) (m * n)) in
      List.for_all
        (fun engine ->
          Schedule.realizes ~n:(m * n) (Router_intf.route_grid engine grid pi)
            pi)
        (Router_registry.all ()))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "strategy"
    [
      ( "strategy",
        [
          Alcotest.test_case "all shapes" `Quick
            test_every_engine_routes_every_shape;
          Alcotest.test_case "identity free" `Quick
            test_every_engine_identity_free;
          Alcotest.test_case "default = best" `Quick test_default_route_is_best;
          Alcotest.test_case "generic graphs" `Quick test_generic_route_on_non_grid;
          Alcotest.test_case "worst-case bound" `Quick
            test_local_never_deeper_than_worst_case;
          qc engine_agreement_property;
        ] );
    ]
