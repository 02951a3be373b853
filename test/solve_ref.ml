(* Reference kernel for [Solver.Solve.check]: interval propagation over
   a functional map and branch-and-prune search, written the direct way.
   It is the oracle of the differential tests in [T_solver]: the library
   kernel must return the same verdict and the same model on every
   input.  It records no metrics, so running it beside the library
   kernel leaves the [solver.*] counters untouched. *)

open Solver

(* Floor and ceiling division, correct for negative numerators. *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r lxor b < 0 then q - 1 else q

let cdiv a b = -fdiv (-a) b

module IM = Map.Make (Int)

(* Interval store: symbol id -> (symbol, lo, hi). *)
type store = (Sym.t * int * int) IM.t

let store_of_syms syms : store =
  List.fold_left
    (fun acc s ->
      let lo, hi = Sym.bounds s in
      IM.add (Sym.id s) (s, lo, hi) acc)
    IM.empty syms

let store_bounds store s =
  match IM.find_opt (Sym.id s) store with
  | Some (_, lo, hi) -> (lo, hi)
  | None -> Sym.bounds s

exception Empty

(* Tighten symbol [s] to [lo, hi] intersected with its current interval. *)
let tighten store s lo hi =
  let clo, chi = store_bounds store s in
  let nlo = max lo clo and nhi = min hi chi in
  if nlo > nhi then raise Empty;
  if nlo = clo && nhi = chi then (store, false)
  else (IM.add (Sym.id s) (s, nlo, nhi) store, true)

(* Propagate [lin <= 0] through the store once. *)
let propagate_le store lin =
  let range = Linexpr.range (store_bounds store) lin in
  if fst range > 0 then raise Empty;
  List.fold_left
    (fun (store, changed) (s, c) ->
      (* c*s <= -(min of the rest)  where rest = lin - c*s *)
      let rest = Linexpr.sub lin (Linexpr.scale c (Linexpr.sym s)) in
      let rest_min, _ = Linexpr.range (store_bounds store) rest in
      let store, ch =
        if c > 0 then
          let bound = fdiv (-rest_min) c in
          tighten store s min_int bound
        else
          let bound = cdiv (-rest_min) c in
          tighten store s bound max_int
      in
      (store, changed || ch))
    (store, false) (Linexpr.terms lin)

let propagate_atom store = function
  | Constr.Le lin -> propagate_le store lin
  | Constr.Eqz lin ->
      let store, c1 = propagate_le store lin in
      let store, c2 = propagate_le store (Linexpr.neg lin) in
      (store, c1 || c2)

let propagate_fixpoint atoms store =
  let rec loop store rounds =
    if rounds = 0 then store
    else
      let store, changed =
        List.fold_left
          (fun (store, changed) atom ->
            let store, ch = propagate_atom store atom in
            (store, changed || ch))
          (store, false) atoms
      in
      if changed then loop store (rounds - 1) else store
  in
  loop store 200

let atom_sat assign = function
  | Constr.Le lin -> Linexpr.eval assign lin <= 0
  | Constr.Eqz lin -> Linexpr.eval assign lin = 0

let model_of_store store =
  IM.fold (fun _ (s, lo, _) m -> Model.add s lo m) store Model.empty

(* Branch-and-prune over a single conjunct of atoms. *)
let solve_conjunct ~max_nodes atoms =
  let syms =
    List.concat_map
      (function Constr.Le l | Constr.Eqz l -> Linexpr.syms l)
      atoms
    |> List.sort_uniq Sym.compare
  in
  let nodes = ref 0 in
  let rec search store =
    incr nodes;
    if !nodes > max_nodes then None
    else
      match propagate_fixpoint atoms store with
      | exception Empty -> Some None (* proven empty: prune *)
      | store -> (
          let model = model_of_store store in
          let assign s = Model.value model s in
          if List.for_all (atom_sat assign) atoms then Some (Some model)
          else
            (* pick the widest unfixed symbol and split its interval *)
            let pick =
              IM.fold
                (fun _ (s, lo, hi) best ->
                  if lo = hi then best
                  else
                    match best with
                    | Some (_, blo, bhi) when bhi - blo >= hi - lo -> best
                    | _ -> Some (s, lo, hi))
                store None
            in
            match pick with
            | None -> Some None (* all fixed yet unsatisfied: dead *)
            | Some (s, lo, hi) ->
                let mid = lo + ((hi - lo) / 2) in
                let try_range nlo nhi =
                  match tighten store s nlo nhi with
                  | exception Empty -> Some None
                  | store, _ -> search store
                in
                let left = try_range lo mid in
                (match left with
                | Some (Some m) -> Some (Some m)
                | Some None -> try_range (mid + 1) hi
                | None -> None))
  in
  let verdict =
    match search (store_of_syms syms) with
    | Some (Some m) -> Solve.Sat m
    | Some None -> Solve.Unsat
    | None -> Solve.Unknown
  in
  (verdict, !nodes)

(* Enumerate the DNF of a formula as a sequence of atom lists. *)
let rec dnf (f : Constr.t) : Constr.atom list Seq.t =
  match f with
  | Constr.True -> Seq.return []
  | Constr.False -> Seq.empty
  | Constr.Atom a -> Seq.return [ a ]
  | Constr.Or parts -> Seq.concat_map dnf (List.to_seq parts)
  | Constr.And parts ->
      List.fold_left
        (fun acc part ->
          Seq.concat_map
            (fun conj -> Seq.map (fun atoms -> conj @ atoms) (dnf part))
            acc)
        (Seq.return []) parts

type stats = { conjuncts : int; nodes : int }

(* [Solve.check] with the work it did: conjuncts searched and search
   nodes visited, the figures the library reports as [solver.conjuncts]
   and [solver.nodes]. *)
let check ?(max_conjuncts = 4096) ?(max_nodes = 20_000) constraints =
  let conjuncts = ref 0 and nodes = ref 0 in
  let formula = Constr.conj constraints in
  let verdict =
    match formula with
    | Constr.True -> Solve.Sat Model.empty
    | Constr.False -> Solve.Unsat
    | _ ->
        let rec scan seq budget any_unknown =
          if budget = 0 then Solve.Unknown
          else
            match Seq.uncons seq with
            | None -> if any_unknown then Solve.Unknown else Solve.Unsat
            | Some (atoms, rest) -> (
                let v, n = solve_conjunct ~max_nodes atoms in
                incr conjuncts;
                nodes := !nodes + n;
                match v with
                | Solve.Sat m -> Solve.Sat m
                | Solve.Unsat -> scan rest (budget - 1) any_unknown
                | Solve.Unknown -> scan rest (budget - 1) true)
        in
        scan (dnf formula) max_conjuncts false
  in
  (verdict, { conjuncts = !conjuncts; nodes = !nodes })
