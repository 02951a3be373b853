type result = Sat of Model.t | Unsat | Unknown

let c_solves = Obs.Metrics.counter "solver.solves"
let c_conjuncts = Obs.Metrics.counter "solver.conjuncts"
let c_nodes = Obs.Metrics.counter "solver.nodes"
let c_unknowns = Obs.Metrics.counter "solver.unknowns"

(* Floor and ceiling division, correct for negative numerators. *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r lxor b < 0 then q - 1 else q

let cdiv a b = -fdiv (-a) b

(* A conjunct compiled for the search.  Its symbols become dense
   indices [0, n), ascending by id; each atom becomes int arrays over
   those indices.  [Eqz lin] propagates as [Le lin] then [Le (-lin)]. *)
type atom = {
  k : int;  (** constant part *)
  idx : int array;  (** symbol indices, ascending *)
  coef : int array;  (** their coefficients *)
  test : test;  (** what a model must make of [k + Σ coef·x] *)
}

and test =
  | Le_zero
  | Eq_zero
  | Implied  (** the [-lin <= 0] half of [lin = 0], tested by the other *)

type conjunct = {
  syms : Sym.t array;  (** index -> symbol *)
  atoms : atom array;  (** propagated in this order *)
  occurs : int array array;  (** symbol index -> atoms that mention it *)
}

let compile atoms =
  let syms =
    List.concat_map
      (function Constr.Le l | Constr.Eqz l -> Linexpr.syms l)
      atoms
    |> List.sort_uniq Sym.compare |> Array.of_list
  in
  let n = Array.length syms in
  let ids = Array.map Sym.id syms in
  let index s =
    let id = Sym.id s in
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if ids.(mid) <= id then lo := mid else hi := mid
    done;
    !lo
  in
  let atom test lin =
    let terms = Linexpr.terms lin in
    let len = List.length terms in
    let idx = Array.make len 0 and coef = Array.make len 0 in
    List.iteri
      (fun j (s, c) ->
        idx.(j) <- index s;
        coef.(j) <- c)
      terms;
    { k = Linexpr.const_part lin; idx; coef; test }
  in
  let atoms =
    List.concat_map
      (function
        | Constr.Le lin -> [ atom Le_zero lin ]
        | Constr.Eqz lin ->
            let a = atom Eq_zero lin in
            let neg = Array.map Int.neg a.coef in
            [ a; { a with k = -a.k; coef = neg; test = Implied } ])
      atoms
    |> Array.of_list
  in
  let occurs =
    let count = Array.make n 0 in
    Array.iter
      (fun a -> Array.iter (fun i -> count.(i) <- count.(i) + 1) a.idx)
      atoms;
    Array.map (fun c -> Array.make c 0) count
  in
  let filled = Array.make n 0 in
  Array.iteri
    (fun a { idx; _ } ->
      Array.iter
        (fun i ->
          occurs.(i).(filled.(i)) <- a;
          filled.(i) <- filled.(i) + 1)
        idx)
    atoms;
  { syms; atoms; occurs }

(* The search state at one node: each symbol's interval, and which atoms
   must run again because one of their symbols changed since they last
   ran.  A clean atom is skipped: one pass of [lin <= 0] is idempotent,
   so it could not change a bound. *)
type store = { lo : int array; hi : int array; dirty : bool array }

let copy st =
  { lo = Array.copy st.lo; hi = Array.copy st.hi; dirty = Array.copy st.dirty }

exception Empty

(* Symbol [i] changed: every atom mentioning it but [except] is dirty. *)
let touch c st ~except i =
  let occ = c.occurs.(i) in
  for t = 0 to Array.length occ - 1 do
    let b = occ.(t) in
    if b <> except then st.dirty.(b) <- true
  done

(* Propagate atom [a], [lin <= 0], through the store once; true if a
   bound moved.  Each term [c*s] is bounded by the minimum of the rest
   of [lin].  A term tightens [hi] when [c > 0] and [lo] when [c < 0],
   and the minimum of [lin] reads neither, so it is computed once; a
   term's rest is that minimum less the term's own share, exactly, as
   wrapping int addition is associative and commutative. *)
let propagate c st a =
  let { k; idx; coef; _ } = c.atoms.(a) in
  let lo = st.lo and hi = st.hi in
  let n = Array.length idx in
  let min = ref k in
  for j = 0 to n - 1 do
    let i = idx.(j) and cj = coef.(j) in
    min := !min + if cj >= 0 then cj * lo.(i) else cj * hi.(i)
  done;
  let min = !min in
  if min > 0 then raise Empty;
  let changed = ref false in
  for j = 0 to n - 1 do
    let i = idx.(j) and cj = coef.(j) in
    if cj > 0 then begin
      let nhi = Int.min (fdiv (-(min - (cj * lo.(i)))) cj) hi.(i) in
      if lo.(i) > nhi then raise Empty;
      if nhi <> hi.(i) then begin
        hi.(i) <- nhi;
        touch c st ~except:a i;
        changed := true
      end
    end
    else begin
      let nlo = Int.max (cdiv (-(min - (cj * hi.(i)))) cj) lo.(i) in
      if nlo > hi.(i) then raise Empty;
      if nlo <> lo.(i) then begin
        lo.(i) <- nlo;
        touch c st ~except:a i;
        changed := true
      end
    end
  done;
  !changed

(* Sweep the atoms in order until a sweep changes nothing, at most 200
   sweeps. *)
let propagate_fixpoint c st =
  let rec loop rounds =
    if rounds > 0 then begin
      let changed = ref false in
      for a = 0 to Array.length c.atoms - 1 do
        if st.dirty.(a) then begin
          st.dirty.(a) <- false;
          if propagate c st a then changed := true
        end
      done;
      if !changed then loop (rounds - 1)
    end
  in
  loop 200

(* Does the assignment of every symbol to its lower bound satisfy the
   conjunct? *)
let lower_bounds_sat c lo =
  let value { k; idx; coef; _ } =
    let v = ref k in
    for j = 0 to Array.length idx - 1 do
      v := !v + (coef.(j) * lo.(idx.(j)))
    done;
    !v
  in
  Array.for_all
    (fun a ->
      match a.test with
      | Le_zero -> value a <= 0
      | Eq_zero -> value a = 0
      | Implied -> true)
    c.atoms

let model_of_lower_bounds c lo =
  let m = ref Model.empty in
  Array.iteri (fun i s -> m := Model.add s lo.(i) !m) c.syms;
  !m

(* The widest unfixed symbol, the lowest index on ties; -1 if all are
   fixed. *)
let widest st =
  let best = ref (-1) in
  for i = 0 to Array.length st.lo - 1 do
    let lo = st.lo.(i) and hi = st.hi.(i) in
    if lo <> hi then
      let b = !best in
      if b < 0 || not (st.hi.(b) - st.lo.(b) >= hi - lo) then best := i
  done;
  !best

(* Narrow symbol [i] to [lo, hi], inside its interval, for a branch. *)
let restrict c st i lo hi =
  st.lo.(i) <- lo;
  st.hi.(i) <- hi;
  touch c st ~except:(-1) i

(* Branch-and-prune over a single conjunct of atoms: propagate, test the
   lower bounds as a model, else split the widest symbol and search the
   left half [lo, mid] first. *)
let solve_conjunct ~max_nodes atoms =
  let c = compile atoms in
  let nodes = ref 0 in
  let rec search st =
    incr nodes;
    if !nodes > max_nodes then Unknown
    else
      match propagate_fixpoint c st with
      | exception Empty -> Unsat
      | () -> (
          if lower_bounds_sat c st.lo then Sat (model_of_lower_bounds c st.lo)
          else
            match widest st with
            | -1 -> Unsat (* all fixed yet unsatisfied: dead *)
            | i -> (
                let lo = st.lo.(i) and hi = st.hi.(i) in
                let mid = lo + ((hi - lo) / 2) in
                let left = copy st in
                restrict c left i lo mid;
                match search left with
                | Unsat ->
                    restrict c st i (mid + 1) hi;
                    search st
                | (Sat _ | Unknown) as r -> r))
  in
  let root =
    { lo = Array.map (fun s -> fst (Sym.bounds s)) c.syms;
      hi = Array.map (fun s -> snd (Sym.bounds s)) c.syms;
      dirty = Array.make (Array.length c.atoms) true }
  in
  let verdict = search root in
  Obs.Metrics.incr c_conjuncts;
  Obs.Metrics.add c_nodes !nodes;
  verdict

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

let check ?(max_conjuncts = 4096) ?(max_nodes = 20_000) constraints =
  Obs.Metrics.incr c_solves;
  let formula = Constr.conj constraints in
  let verdict =
    match formula with
    | Constr.True -> Sat Model.empty
    | Constr.False -> Unsat
    | _ ->
        let rec scan seq budget any_unknown =
          if budget = 0 then Unknown
          else
            match Seq.uncons seq with
            | None -> if any_unknown then Unknown else Unsat
            | Some (atoms, rest) -> (
                match solve_conjunct ~max_nodes atoms with
                | Sat m -> Sat m
                | Unsat -> scan rest (budget - 1) any_unknown
                | Unknown -> scan rest (budget - 1) true)
        in
        scan (dnf formula) max_conjuncts false
  in
  (match verdict with Unknown -> Obs.Metrics.incr c_unknowns | _ -> ());
  verdict

let is_sat ?max_conjuncts ?max_nodes constraints =
  match check ?max_conjuncts ?max_nodes constraints with
  | Sat _ | Unknown -> true
  | Unsat -> false

let model_exn constraints =
  match check constraints with
  | Sat m -> m
  | Unsat -> failwith "Solve.model_exn: unsatisfiable"
  | Unknown -> failwith "Solve.model_exn: solver gave up"

let pp_result ppf = function
  | Sat m -> Fmt.pf ppf "sat (%a)" Model.pp m
  | Unsat -> Fmt.string ppf "unsat"
  | Unknown -> Fmt.string ppf "unknown"
