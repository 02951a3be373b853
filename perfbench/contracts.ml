(* Workload [contracts]: what `bolt contract` and `bolt topo` users wait
   for.  Each round derives the contract of every registry NF
   (Bolt.Pipeline.analyze) and of every built-in topology
   (Topo.Analysis.run) from a cold solver cache, with one job.  The loop
   is closed: a round starts when the previous one returns.  The seed
   shuffles the derivation order of each round, which moves the solver
   cache's sharing between derivations but must never move a contract:
   every round's contracts are compared byte for byte with the first
   round's. *)

type item = Nf of Nf.Registry.entry | Topo of Topo.Builtin.entry

let item_name = function
  | Nf e -> e.Nf.Registry.name
  | Topo t -> t.Topo.Builtin.graph.Topo.Graph.name

type derived = {
  name : string;
  unsolved : int;
  paths : int;
  pruned : int;
  contract : string;
  contract_s : float;  (** time spent building the contract from the analysis *)
}

let derive = function
  | Nf e ->
      let t =
        Bolt.Pipeline.analyze
          ~config:
            Bolt.Pipeline.Config.(
              default |> with_contracts e.Nf.Registry.contracts |> with_jobs 1)
          e.Nf.Registry.program
      in
      let c, contract_s =
        Timing.time (fun () ->
            Spans.with_ "pipeline.contract" (fun () ->
                Bolt.Pipeline.contract t ~classes:e.Nf.Registry.classes))
      in
      ( t.Bolt.Pipeline.unsolved,
        Bolt.Pipeline.path_count t,
        0,
        c,
        contract_s )
  | Topo te ->
      let a = Topo.Analysis.run ~jobs:1 te.Topo.Builtin.graph in
      (a.Topo.Analysis.unsolved, 0, a.infeasible_routes, Topo.Analysis.contract a, 0.)

(* One timed derivation; the contract is rendered outside the clock. *)
let run_item item =
  let name = item_name item in
  let (unsolved, paths, pruned, c, contract_s), dt =
    Timing.time (fun () ->
        Spans.with_ ("derive " ^ name) (fun () -> derive item))
  in
  ( { name; unsolved; paths; pruned; contract = Perf.Contract_io.contract_to_string c;
      contract_s },
    dt )

let shuffle rng items =
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Prng.below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Set-up builds the registry entries and the built-in topologies: about
   35 us, so a set-up sample is the mean of a batch of 200. *)
let setup_batch = 200

let setup_once () =
  List.map (fun e -> Nf e) (Nf.Registry.all ())
  @ List.map (fun t -> Topo t) (Topo.Builtin.all ())

(* Per-round layer times, seconds, from the library's spans of the NF
   derivations and the benchmark's own clock around the rest. *)
type layers = {
  mutable explore : float;
  mutable solve : float;
  mutable replay : float;
  mutable price : float;
  mutable other : float;  (** analyze/path glue outside the four phases *)
  mutable contract : float;
  mutable topo : float;
}

let run ~seed ~seconds ~trace =
  let setup, items = Timing.repeat_setup ~batch:setup_batch setup_once in
  let rng = Workload.Prng.create ~seed in
  let attempted = ref 0 and failed = ref 0 in
  let reference = Hashtbl.create 16 in
  let check (d : derived) =
    incr attempted;
    let bad_contract =
      match Hashtbl.find_opt reference d.name with
      | None ->
          Hashtbl.add reference d.name d.contract;
          false
      | Some c -> c <> d.contract
    in
    if d.unsolved > 0 || bad_contract then incr failed
  in
  (* warm-up round in canonical order: fills the heap, fixes the
     reference contracts *)
  Solver.Cache.reset ();
  List.iter (fun it -> check (fst (run_item it))) items;
  let nf_count = List.length (Nf.Registry.all ()) in
  let paths = ref 0 and pruned = ref 0 and hit_ratio = Timing.Samples.create () in
  let round ~on_item =
    let order = shuffle rng items in
    Solver.Cache.reset ();
    let total = ref 0. in
    paths := 0;
    pruned := 0;
    List.iter
      (fun it ->
        let d, dt = on_item it in
        total := !total +. dt;
        paths := !paths + d.paths;
        pruned := !pruned + d.pruned;
        check d)
      order;
    Timing.Samples.add hit_ratio (Solver.Cache.hit_rate (Solver.Cache.stats ()));
    !total
  in
  let loop ?(tick = ignore) ?(start_round = ignore) ~ops ~budget ~on_item () =
    let t0 = Timing.now () in
    while Timing.since t0 < budget || Timing.Samples.length ops < 3 do
      start_round ();
      Timing.Samples.add ops (Spans.with_ "round" (fun () -> round ~on_item));
      tick ()
    done
  in
  let items_per_round = List.length items in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  note
    (Printf.sprintf "contracts: %d NFs + %d topologies per round, jobs 1, cold solver cache"
       nf_count (items_per_round - nf_count));
  let metrics =
    if not trace then begin
      let r = Timing.resetup setup ~batch:setup_batch setup_once in
      let ops = Timing.Samples.create () in
      loop ~tick:(fun () -> Timing.tick r) ~ops ~budget:seconds ~on_item:run_item ();
      note (Metric.describe_ops "derivation round" ops);
      Metric.e2e ~setup ~ops ~items:(items_per_round * Timing.Samples.length ops)
    end
    else begin
      let per_round = ref [] and kept_obs = ref [] in
      let on_item it =
        let l = List.hd !per_round in
        Obs.reset ();
        let d, dt = run_item it in
        (match it with
        | Nf _ ->
            let spans = Obs.Span.dump () in
            if List.length !per_round = 1 then kept_obs := !kept_obs @ spans;
            let self = Spans.obs_self spans in
            l.explore <- l.explore +. self "explore";
            l.solve <- l.solve +. self "solve";
            l.replay <- l.replay +. self "replay";
            l.price <- l.price +. self "price";
            l.other <- l.other +. self "analyze" +. self "path";
            l.contract <- l.contract +. d.contract_s
        | Topo _ -> l.topo <- l.topo +. dt);
        (d, dt)
      in
      let start_round () =
        per_round :=
          { explore = 0.; solve = 0.; replay = 0.; price = 0.; other = 0.;
            contract = 0.; topo = 0. }
          :: !per_round
      in
      let plain = Timing.Samples.create () and ops = Timing.Samples.create () in
      Spans.alternate ~budget:seconds
        ~plain:(fun budget -> loop ~ops:plain ~budget ~on_item:run_item ())
        ~traced:(fun budget -> loop ~start_round ~ops ~budget ~on_item ());
      let rounds = Array.of_list (List.rev !per_round) in
      let med f = Timing.median (Array.map f rounds) in
      let ms x = 1e3 *. x in
      note (Metric.describe_ops "untraced round" plain);
      note (Metric.describe_ops "traced round" ops);
      let part f = (1., Array.map f rounds) in
      let check, check_failed, check_metrics =
        Metric.parts_sum
          ~what:
            "explore + solve + replay + price + pipeline glue + topology \
             analysis"
          ~whole:(Timing.Samples.to_array ops)
          ~parts:
            [
              part (fun l -> l.explore);
              part (fun l -> l.solve);
              part (fun l -> l.replay);
              part (fun l -> l.price);
              part (fun l -> l.other +. l.contract);
              part (fun l -> l.topo);
            ]
      in
      note check;
      incr attempted;
      failed := !failed + check_failed;
      note ("chrome trace: " ^ Spans.write_trace ~name:"contracts" ~obs:!kept_obs);
      [
        Metric.v "symbex.explore_ms" "ms" (ms (med (fun l -> l.explore)));
        Metric.v "solver.solve_ms" "ms" (ms (med (fun l -> l.solve)));
        Metric.v "exec.replay_ms" "ms" (ms (med (fun l -> l.replay)));
        Metric.v "bolt.price_ms" "ms" (ms (med (fun l -> l.price)));
        Metric.v "bolt.pipeline_other_ms" "ms"
          (ms (med (fun l -> l.other +. l.contract)));
        Metric.v "topo.analysis_ms" "ms" (ms (med (fun l -> l.topo)));
        Metric.v "symbex.paths" "count" (float_of_int !paths);
        Metric.v "topo.routes_pruned" "count" (float_of_int !pruned);
        Metric.v "solver.cache_hit_ratio" "ratio"
          (Timing.median (Timing.Samples.to_array hit_ratio));
        Metric.trace_overhead ~plain ~traced:ops;
      ]
      @ check_metrics
    end
  in
  {
    Metric.attempted = !attempted;
    failed = !failed;
    metrics;
    notes = List.rev !notes;
  }
