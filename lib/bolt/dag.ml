open Perf

type node = {
  label : string;
  program : Ir.Program.t;
  contracts : Ds_contract.library;
}

type sel = Any | Port of int
type target = To of int | Exit of string
type edge = { src : int; sel : sel; target : target }
type t = { nodes : node array; ingress : int; edges : edge list }

type egress =
  | Exited of { node : int; label : string }
  | Dropped of int
  | Flooded of int

let default_exit = "out"

type step = {
  step_node : int;
  step_path : Symbex.Path.t;
  step_in_port : Solver.Sym.t;
  step_now : Solver.Sym.t;
}

type route = {
  steps : step list;
  egress : egress;
  constraints : Solver.Constr.t list;
  cost : Cost_vec.t;
}

type result = {
  routes : route list;
  unsolved : int;
  infeasible_routes : int;
  input : Symbex.Spacket.input;
  ingress_engine : Symbex.Engine.result;
}

(* ---- Replay helpers (shared by every composition entry point) --------- *)

let replay_cost ~contracts ~program ~path ~packet ~stubs ~in_port ~now =
  let run, events =
    Pipeline.replay_witness ~path ~stubs ~in_port ~now program packet
  in
  (Pipeline.analyze_replay ~contracts ~path events, run)

let stub_values model (path : Symbex.Path.t) =
  List.map
    (fun c -> Solver.Model.eval model c.Symbex.Path.ret)
    path.Symbex.Path.calls

let concretize_packet model (input : Symbex.Spacket.input) =
  let len = Solver.Model.value model (Symbex.Spacket.len_sym input) in
  let packet = Net.Packet.create len in
  List.iter
    (fun (off, sym) ->
      if off < len then
        Net.Packet.set_u8 packet off (Solver.Model.value model sym land 0xff))
    (Symbex.Spacket.known_bytes input);
  packet

(* ---- Validation ------------------------------------------------------- *)

let invalid fmt = Fmt.kstr (fun s -> invalid_arg ("Dag: " ^ s)) fmt

let validate t =
  let n = Array.length t.nodes in
  if n = 0 then invalid "empty node set";
  if t.ingress < 0 || t.ingress >= n then
    invalid "ingress index %d out of range" t.ingress;
  List.iter
    (fun e ->
      if e.src < 0 || e.src >= n then
        invalid "edge source %d out of range" e.src;
      match e.target with
      | To d when d < 0 || d >= n -> invalid "edge target %d out of range" d
      | To _ | Exit _ -> ())
    t.edges;
  Array.iteri
    (fun i node ->
      let out = List.filter (fun e -> e.src = i) t.edges in
      let anys, ports =
        List.partition (fun e -> e.sel = Any) out
      in
      if anys <> [] && List.length out > 1 then
        invalid "node %s mixes an Any edge with other edges" node.label;
      let seen = Hashtbl.create 4 in
      List.iter
        (fun e ->
          match e.sel with
          | Any -> ()
          | Port p ->
              if Hashtbl.mem seen p then
                invalid "node %s declares port %d twice" node.label p;
              Hashtbl.add seen p ())
        ports)
    t.nodes;
  (* acyclicity: DFS over [To] edges, detecting a back edge *)
  let state = Array.make n `White in
  let rec dfs i =
    match state.(i) with
    | `Grey -> invalid "cycle through node %s" t.nodes.(i).label
    | `Black -> ()
    | `White ->
        state.(i) <- `Grey;
        List.iter
          (fun e ->
            if e.src = i then
              match e.target with To d -> dfs d | Exit _ -> ())
          t.edges;
        state.(i) <- `Black
  in
  for i = 0 to n - 1 do
    dfs i
  done

(* ---- The walk --------------------------------------------------------- *)

let analyze ?max_paths ?jobs ~models t =
  validate t;
  let gen = Solver.Sym.gen () in
  let input = Symbex.Spacket.input gen () in
  let view0 = Symbex.Spacket.view input in
  let ctx = Symbex.Value.ctx gen in
  let ingress_engine = ref None in
  let infeasible = ref 0 in
  (* (steps_rev, egress, joint constraints), reversed traversal order *)
  let pending = ref [] in
  let emit steps_rev egress cons =
    pending := (steps_rev, egress, cons) :: !pending
  in
  let out_edges i = List.filter (fun e -> e.src = i) t.edges in
  (* [cons] holds the route's joint constraints so far; its first
     [proven] members were decided [Sat] together, so exploration and
     port checks solve only slices against them. *)
  let rec descend steps_rev node view cons proven pin =
    let engine =
      Symbex.Engine.explore ?max_paths ~shared:(gen, view) ~initial:cons
        ~proven ?pin_port:pin ~models t.nodes.(node).program
    in
    if !ingress_engine = None then ingress_engine := Some engine;
    List.iter
      (fun (path : Symbex.Path.t) ->
        let steps_rev =
          {
            step_node = node;
            step_path = path;
            step_in_port = engine.Symbex.Engine.in_port;
            step_now = engine.Symbex.Engine.now;
          }
          :: steps_rev
        in
        match path.Symbex.Path.action with
        | Symbex.Path.Drop ->
            emit steps_rev (Dropped node) path.Symbex.Path.constraints
        | Symbex.Path.Flood ->
            emit steps_rev (Flooded node) path.Symbex.Path.constraints
        | Symbex.Path.Forward v -> route steps_rev node path v)
      engine.Symbex.Engine.paths
  and route steps_rev node (path : Symbex.Path.t) v =
    match out_edges node with
    | [] ->
        emit steps_rev
          (Exited { node; label = default_exit })
          path.Symbex.Path.constraints
    | [ { sel = Any; target; _ } ] ->
        follow steps_rev path path.Symbex.Path.constraints
          path.Symbex.Path.proven target None
    | edges ->
        (* every edge carries a [Port] selector (validated): constrain the
           forwarded value, prune infeasible (port, path) tuples, and send
           the complement — a port nobody declared — out of the topology *)
        let lin = Symbex.Value.to_lin ctx v in
        let side = Symbex.Value.take_side ctx in
        let proven, rest = Symbex.Path.split_proven path in
        (* the joint constraints with [extra] appended, and how many of
           them are proven; [None] when they are unsatisfiable *)
        let extend extra =
          let cons = path.Symbex.Path.constraints @ extra in
          match
            Solver.Cache.check ~max_conjuncts:512 ~max_nodes:4000
              (Solver.Solve.slice ~proven (rest @ extra))
          with
          | Solver.Solve.Sat _ -> Some (cons, List.length cons)
          | Solver.Solve.Unknown -> Some (cons, path.Symbex.Path.proven)
          | Solver.Solve.Unsat ->
              incr infeasible;
              None
        in
        List.iter
          (fun e ->
            match e.sel with
            | Any -> assert false (* validated: Any is exclusive *)
            | Port p ->
                let at_p = Solver.Constr.eq lin (Solver.Linexpr.const p) in
                Option.iter
                  (fun (cons, proven) ->
                    follow steps_rev path cons proven e.target (Some p))
                  (extend (at_p :: side)))
          edges;
        let ports =
          List.filter_map
            (function { sel = Port p; _ } -> Some p | _ -> None)
            edges
        in
        Option.iter
          (fun (cons, _) ->
            emit steps_rev (Exited { node; label = default_exit }) cons)
          (extend
             (List.map
                (fun p -> Solver.Constr.ne lin (Solver.Linexpr.const p))
                ports
             @ side))
  and follow steps_rev (path : Symbex.Path.t) cons proven target pin =
    match target with
    | Exit label ->
        let node =
          match steps_rev with s :: _ -> s.step_node | [] -> assert false
        in
        emit steps_rev (Exited { node; label }) cons
    | To next -> descend steps_rev next path.Symbex.Path.view cons proven pin
  in
  descend [] t.ingress view0 [] 0 None;
  let contracts_of i = t.nodes.(i).contracts in
  let program_of i = t.nodes.(i).program in
  (* Finalization is independent per route — witness solving and replay
     share no mutable state — so it runs on the pool; [Solver.Cache]
     verdicts are pure functions of the constraint set, keeping the
     result bit-identical at any jobs level. *)
  let finalize (steps_rev, egress, joint) =
    let steps = List.rev steps_rev in
    match Solver.Solve.check joint with
    | Solver.Solve.Unsat | Solver.Solve.Unknown -> None
    | Solver.Solve.Sat model -> (
        let packet = concretize_packet model input in
        match
          List.fold_left
            (fun acc st ->
              let cost, _ =
                replay_cost
                  ~contracts:(contracts_of st.step_node)
                  ~program:(program_of st.step_node)
                  ~path:st.step_path ~packet
                  ~stubs:(stub_values model st.step_path)
                  ~in_port:(Solver.Model.value model st.step_in_port)
                  ~now:(Solver.Model.value model st.step_now)
              in
              Cost_vec.add acc cost)
            Cost_vec.zero steps
        with
        | cost -> Some { steps; egress; constraints = joint; cost }
        | exception
            (Failure _ | Pipeline.Replay_divergence _ | Exec.Interp.Stuck _)
          ->
            None)
  in
  let finalized = Exec.Pool.map ?jobs finalize (List.rev !pending) in
  let routes = List.filter_map Fun.id finalized in
  let unsolved = List.length finalized - List.length routes in
  {
    routes;
    unsolved;
    infeasible_routes = !infeasible;
    input;
    ingress_engine = Option.get !ingress_engine;
  }

let worst result =
  Cost_vec.max_upper_list (List.map (fun r -> r.cost) result.routes)
