open Perf

type egress =
  | Exited of { node : string; label : string }
  | Dropped of string
  | Flooded of string

type step = { node : string; path : Symbex.Path.t }

type route = {
  steps : step list;
  egress : egress;
  constraints : Solver.Constr.t list;
  cost : Cost_vec.t;
}

type t = {
  graph : Graph.t;
  entries : (string * Nf.Registry.entry) list;
  routes : route list;
  unsolved : int;
  infeasible_routes : int;
  input : Symbex.Spacket.input;
  ingress_engine : Symbex.Engine.result;
}

let equal_egress a b = a = b

let pp_egress ppf = function
  | Exited { node; label } -> Fmt.pf ppf "%s.%s" node label
  | Dropped node -> Fmt.pf ppf "drop@@%s" node
  | Flooded node -> Fmt.pf ppf "flood@@%s" node

let index_of nodes name =
  let rec go i = function
    | [] -> assert false (* validated *)
    | (n : Graph.node) :: tl -> if n.Graph.name = name then i else go (i + 1) tl
  in
  go 0 nodes

let lower (graph : Graph.t) entries =
  let nodes =
    Array.of_list
      (List.map
         (fun (n : Graph.node) ->
           let entry = List.assoc n.Graph.name entries in
           {
             Bolt.Dag.label = n.Graph.name;
             program = entry.Nf.Registry.program;
             contracts = entry.Nf.Registry.contracts;
           })
         graph.Graph.nodes)
  in
  let edges =
    List.map
      (fun (e : Graph.edge) ->
        {
          Bolt.Dag.src = index_of graph.Graph.nodes e.Graph.src;
          sel =
            (match e.Graph.sel with
            | Graph.Any -> Bolt.Dag.Any
            | Graph.Port p -> Bolt.Dag.Port p);
          target =
            (match e.Graph.target with
            | Graph.Node d -> Bolt.Dag.To (index_of graph.Graph.nodes d)
            | Graph.Exit l -> Bolt.Dag.Exit l);
        })
      graph.Graph.edges
  in
  {
    Bolt.Dag.nodes;
    ingress = index_of graph.Graph.nodes graph.Graph.ingress;
    edges;
  }

let run ?max_paths ?jobs ?(models = Bolt.Ds_models.default) graph =
  (match Graph.validate graph with
  | [] -> ()
  | errs ->
      invalid_arg
        (Fmt.str "Topo.Analysis.run %S: %a" graph.Graph.name
           Fmt.(list ~sep:(any "; ") Graph.pp_error)
           errs));
  let entries =
    List.map
      (fun (n : Graph.node) ->
        (n.Graph.name, Nf.Registry.of_spec n.Graph.spec))
      graph.Graph.nodes
  in
  let dag = lower graph entries in
  let r = Bolt.Dag.analyze ?max_paths ?jobs ~models dag in
  let name_of i = (List.nth graph.Graph.nodes i).Graph.name in
  let egress_of = function
    | Bolt.Dag.Exited { node; label } -> Exited { node = name_of node; label }
    | Bolt.Dag.Dropped node -> Dropped (name_of node)
    | Bolt.Dag.Flooded node -> Flooded (name_of node)
  in
  let routes =
    List.map
      (fun (route : Bolt.Dag.route) ->
        {
          steps =
            List.map
              (fun (s : Bolt.Dag.step) ->
                {
                  node = name_of s.Bolt.Dag.step_node;
                  path = s.Bolt.Dag.step_path;
                })
              route.Bolt.Dag.steps;
          egress = egress_of route.Bolt.Dag.egress;
          constraints = route.Bolt.Dag.constraints;
          cost = route.Bolt.Dag.cost;
        })
      r.Bolt.Dag.routes
  in
  {
    graph;
    entries;
    routes;
    unsolved = r.Bolt.Dag.unsolved;
    infeasible_routes = r.Bolt.Dag.infeasible_routes;
    input = r.Bolt.Dag.input;
    ingress_engine = r.Bolt.Dag.ingress_engine;
  }

let worst t = Cost_vec.max_upper_list (List.map (fun r -> r.cost) t.routes)

let egresses t =
  List.fold_left
    (fun acc r -> if List.mem r.egress acc then acc else acc @ [ r.egress ])
    [] t.routes

(* Bound and count of a set of routes. *)
let cost_of routes =
  ( Cost_vec.max_upper_list (List.map (fun r -> r.cost) routes),
    List.length routes )

let via egress routes =
  List.filter (fun r -> equal_egress r.egress egress) routes

let egress_cost t egress = cost_of (via egress t.routes)

let ingress_classes t =
  (List.assoc t.graph.Graph.ingress t.entries).Nf.Registry.classes

(* Class membership mirrors {!Bolt.Compose.class_cost}: tag requirements
   and forbids are judged on the ingress path (they are abstract-state
   assumptions of the ingress NF), the class predicate must be
   satisfiable together with the route's joint constraints. *)
let route_in_class pred (cls : Symbex.Iclass.t) route =
  let ingress_path =
    match route.steps with s :: _ -> s.path | [] -> assert false
  in
  List.for_all
    (fun (r : Symbex.Iclass.requirement) ->
      match
        Symbex.Path.tags_of ingress_path ~instance:r.Symbex.Iclass.instance
          ~meth:r.Symbex.Iclass.meth
      with
      | [] -> false
      | tags -> List.for_all (String.equal r.Symbex.Iclass.tag) tags)
    cls.Symbex.Iclass.requires
  && List.for_all
       (fun (instance, meth) ->
         Symbex.Path.tags_of ingress_path ~instance ~meth = [])
       cls.Symbex.Iclass.forbids
  (* a route's joint constraints have a witness: they are proven *)
  && Solver.Cache.is_sat ~max_conjuncts:512 ~max_nodes:4000
       (Solver.Solve.slice ~proven:route.constraints pred)

let class_members t (cls : Symbex.Iclass.t) =
  let pred = cls.Symbex.Iclass.predicate t.ingress_engine in
  List.filter (route_in_class pred cls) t.routes

let class_cost t cls = cost_of (class_members t cls)
let class_egress_cost t cls egress = cost_of (via egress (class_members t cls))

(* Each class's members are judged once, then split by egress. *)
let contract t =
  let egresses = egresses t in
  let entries =
    List.concat_map
      (fun (cls : Symbex.Iclass.t) ->
        let members = class_members t cls in
        let cost, n = cost_of members in
        let total =
          Contract.entry ~class_name:cls.Symbex.Iclass.name
            ~description:cls.Symbex.Iclass.description ~path_count:n cost
        in
        let per_egress =
          List.filter_map
            (fun egress ->
              match cost_of (via egress members) with
              | _, 0 -> None
              | cost, n ->
                  Some
                    (Contract.entry
                       ~class_name:
                         (Fmt.str "%s via %a" cls.Symbex.Iclass.name
                            pp_egress egress)
                       ~description:cls.Symbex.Iclass.description
                       ~path_count:n cost))
            egresses
        in
        total :: per_egress)
      (ingress_classes t)
  in
  Contract.make ~nf:t.graph.Graph.name entries
