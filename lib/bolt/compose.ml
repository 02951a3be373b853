open Perf

(* Both entry points are thin wrappers over the general DAG walk in
   {!Dag}: a pair is a two-node line, a chain an n-node line, each linked
   by [Any] edges (no port constraint — exactly the historic semantics).
   The walk is run serially ([jobs:1]): these are small analyses and the
   wrappers are pinned bit-identical to the pre-refactor results. *)

type pair = { up : Symbex.Path.t; down : Symbex.Path.t; cost : Cost_vec.t }

type t = {
  pairs : pair list;
  up_only : (Symbex.Path.t * Cost_vec.t) list;
  unsolved : int;
  up_engine : Symbex.Engine.result;
}

let engine_up t = t.up_engine

let line_dag nodes =
  let nodes = Array.of_list nodes in
  let edges =
    List.init
      (Array.length nodes - 1)
      (fun i -> { Dag.src = i; sel = Dag.Any; target = Dag.To (i + 1) })
  in
  { Dag.nodes; ingress = 0; edges }

let analyze ?max_paths ~models ~up:(up_program, up_contracts)
    ~down:(down_program, down_contracts) () =
  let dag =
    line_dag
      [
        { Dag.label = "up"; program = up_program; contracts = up_contracts };
        {
          Dag.label = "down";
          program = down_program;
          contracts = down_contracts;
        };
      ]
  in
  let r = Dag.analyze ?max_paths ~jobs:1 ~models dag in
  let pairs, up_only =
    List.fold_left
      (fun (pairs, ups) (route : Dag.route) ->
        match route.Dag.steps with
        | [ u ] -> (pairs, (u.Dag.step_path, route.Dag.cost) :: ups)
        | [ u; d ] ->
            ( {
                up = u.Dag.step_path;
                down = d.Dag.step_path;
                cost = route.Dag.cost;
              }
              :: pairs,
              ups )
        | _ -> assert false)
      ([], []) r.Dag.routes
  in
  {
    pairs = List.rev pairs;
    up_only = List.rev up_only;
    unsolved = r.Dag.unsolved;
    up_engine = r.Dag.ingress_engine;
  }

let worst_case t =
  Cost_vec.max_upper_list
    (List.map (fun p -> p.cost) t.pairs @ List.map snd t.up_only)

let naive_add ~up ~down = Cost_vec.add up down

(* ---- Chains of arbitrary length --------------------------------------- *)

type stage = { program : Ir.Program.t; contracts : Ds_contract.library }
type tuple = { segments : Symbex.Path.t list; cost : Cost_vec.t }

type chain = {
  tuples : tuple list;
  chain_unsolved : int;
  input : Symbex.Spacket.input;
}

let analyze_chain ?max_paths ~models stages =
  if stages = [] then invalid_arg "Compose.analyze_chain: empty chain";
  let dag =
    line_dag
      (List.mapi
         (fun i (s : stage) ->
           {
             Dag.label = Fmt.str "stage%d" i;
             program = s.program;
             contracts = s.contracts;
           })
         stages)
  in
  let r = Dag.analyze ?max_paths ~jobs:1 ~models dag in
  {
    tuples =
      List.map
        (fun (route : Dag.route) ->
          {
            segments =
              List.map (fun s -> s.Dag.step_path) route.Dag.steps;
            cost = route.Dag.cost;
          })
        r.Dag.routes;
    chain_unsolved = r.Dag.unsolved;
    input = r.Dag.input;
  }

let chain_worst chain =
  Cost_vec.max_upper_list (List.map (fun t -> t.cost) chain.tuples)

(* Every tuple and pair is a finalized route, whose joint constraints
   have a witness: class predicates are solved as slices against them. *)
let chain_class_cost chain predicate =
  let pred = predicate chain.input in
  let members =
    List.filter
      (fun t ->
        match List.rev t.segments with
        | [] -> false
        | last :: _ ->
            Solver.Cache.is_sat ~max_conjuncts:512 ~max_nodes:4000
              (Solver.Solve.slice ~proven:last.Symbex.Path.constraints pred))
      chain.tuples
  in
  ( Cost_vec.max_upper_list (List.map (fun t -> t.cost) members),
    List.length members )

let class_cost t ~up_result (cls : Symbex.Iclass.t) =
  let pred = cls.Symbex.Iclass.predicate up_result in
  let matches_joint constraints (path_for_tags : Symbex.Path.t) =
    List.for_all
      (fun (r : Symbex.Iclass.requirement) ->
        match
          Symbex.Path.tags_of path_for_tags ~instance:r.Symbex.Iclass.instance
            ~meth:r.Symbex.Iclass.meth
        with
        | [] -> false
        | tags -> List.for_all (String.equal r.Symbex.Iclass.tag) tags)
      cls.Symbex.Iclass.requires
    && List.for_all
         (fun (instance, meth) ->
           Symbex.Path.tags_of path_for_tags ~instance ~meth = [])
         cls.Symbex.Iclass.forbids
    && Solver.Cache.is_sat ~max_conjuncts:512 ~max_nodes:4000
         (Solver.Solve.slice ~proven:constraints pred)
  in
  let member_costs =
    List.filter_map
      (fun p ->
        if matches_joint p.down.Symbex.Path.constraints p.up then Some p.cost
        else None)
      t.pairs
    @ List.filter_map
        (fun (path, cost) ->
          if matches_joint path.Symbex.Path.constraints path then Some cost
          else None)
        t.up_only
  in
  (Cost_vec.max_upper_list member_costs, List.length member_costs)
