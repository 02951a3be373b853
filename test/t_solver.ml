(* Tests for the constraint solver (lib/solver), including a brute-force
   differential check on small domains and a differential check of the
   kernel against the reference kernel in [Solve_ref]. *)

open Solver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_syms f =
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:10 "x" in
  let y = Sym.fresh gen ~lo:0 ~hi:10 "y" in
  f gen x y

let test_linexpr () =
  with_syms (fun _ x y ->
      let e =
        Linexpr.add
          (Linexpr.scale 2 (Linexpr.sym x))
          (Linexpr.add_const 5 (Linexpr.sym y))
      in
      let assign s = if Sym.equal s x then 3 else 4 in
      check_int "eval" 15 (Linexpr.eval assign e);
      check_int "range lo" 5 (fst (Linexpr.range Sym.bounds e));
      check_int "range hi" 35 (snd (Linexpr.range Sym.bounds e));
      check_bool "cancellation" true
        (Linexpr.is_const (Linexpr.sub (Linexpr.sym x) (Linexpr.sym x))
        = Some 0))

let test_constr_constant_folding () =
  let five = Linexpr.const 5 and three = Linexpr.const 3 in
  check_bool "5 <= 3 folds" true (Constr.le five three = Constr.False);
  check_bool "3 <= 5 folds" true (Constr.le three five = Constr.True);
  check_bool "eq folds" true (Constr.eq five five = Constr.True);
  check_bool "conj with false" true
    (Constr.conj [ Constr.True; Constr.False ] = Constr.False);
  check_bool "disj with true" true
    (Constr.disj [ Constr.False; Constr.True ] = Constr.True)

let test_not () =
  with_syms (fun _ x _ ->
      let f = Constr.le (Linexpr.sym x) (Linexpr.const 4) in
      (* ¬(x <= 4) ∧ (x <= 4) unsat *)
      check_bool "complement unsat" false
        (Solve.is_sat [ f; Constr.not_ f ]);
      check_bool "double negation sat with original" true
        (Solve.is_sat [ f; Constr.not_ (Constr.not_ f) ]))

let test_solve_basic () =
  with_syms (fun _ x y ->
      let xl = Linexpr.sym x and yl = Linexpr.sym y in
      (* x + y = 13, x <= 4 → x in [3,4] since y <= 10 *)
      let cs =
        [ Constr.eq (Linexpr.add xl yl) (Linexpr.const 13);
          Constr.le xl (Linexpr.const 4) ]
      in
      match Solve.check cs with
      | Solve.Sat m ->
          let vx = Model.value m x and vy = Model.value m y in
          check_bool "model satisfies" true (vx + vy = 13 && vx <= 4)
      | _ -> Alcotest.fail "expected sat");
  with_syms (fun _ x _ ->
      let xl = Linexpr.sym x in
      check_bool "out of bounds unsat" false
        (Solve.is_sat [ Constr.ge xl (Linexpr.const 11) ]);
      check_bool "boundary sat" true
        (Solve.is_sat [ Constr.ge xl (Linexpr.const 10) ]))

let test_solve_disjunction () =
  with_syms (fun _ x _ ->
      let xl = Linexpr.sym x in
      let f =
        Constr.disj
          [ Constr.eq xl (Linexpr.const 7); Constr.eq xl (Linexpr.const 9) ]
      in
      match Solve.check [ f; Constr.ne xl (Linexpr.const 7) ] with
      | Solve.Sat m -> check_int "picks 9" 9 (Model.value m x)
      | _ -> Alcotest.fail "expected sat")

let test_model_defaults () =
  with_syms (fun _ x _ ->
      let m = Model.empty in
      check_int "default is lower bound" 0 (Model.value m x))

(* Brute-force differential testing: random constraint systems over two
   small-domain symbols; the solver must agree with exhaustive
   enumeration. *)
let gen_formula gen_ctx =
  let x, y = gen_ctx in
  let open QCheck2.Gen in
  let gen_lin =
    let* cx = int_range (-3) 3 in
    let* cy = int_range (-3) 3 in
    let* k = int_range (-10) 10 in
    return
      (Linexpr.add_const k
         (Linexpr.add
            (Linexpr.scale cx (Linexpr.sym x))
            (Linexpr.scale cy (Linexpr.sym y))))
  in
  let gen_atom =
    let* a = gen_lin in
    let* b = gen_lin in
    oneof
      [
        return (Constr.le a b); return (Constr.lt a b);
        return (Constr.eq a b); return (Constr.ne a b);
        return (Constr.ge a b);
      ]
  in
  let* atoms = list_size (int_range 1 4) gen_atom in
  let* use_disj = bool in
  if use_disj then
    let* extra = gen_atom in
    return (Constr.disj [ Constr.conj atoms; extra ])
  else return (Constr.conj atoms)

let brute_force_sat x y formula =
  let rec eval_formula vx vy = function
    | Constr.True -> true
    | Constr.False -> false
    | Constr.Atom (Constr.Le lin) ->
        Linexpr.eval (fun s -> if Sym.equal s x then vx else vy) lin <= 0
    | Constr.Atom (Constr.Eqz lin) ->
        Linexpr.eval (fun s -> if Sym.equal s x then vx else vy) lin = 0
    | Constr.And parts -> List.for_all (eval_formula vx vy) parts
    | Constr.Or parts -> List.exists (eval_formula vx vy) parts
  in
  let lo_x, hi_x = Sym.bounds x and lo_y, hi_y = Sym.bounds y in
  let found = ref false in
  for vx = lo_x to hi_x do
    for vy = lo_y to hi_y do
      if eval_formula vx vy formula then found := true
    done
  done;
  !found

let prop_solver_matches_brute_force =
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:7 "x" in
  let y = Sym.fresh gen ~lo:0 ~hi:7 "y" in
  QCheck2.Test.make ~count:500 ~name:"solver agrees with brute force"
    (gen_formula (x, y))
    (fun formula ->
      let expected = brute_force_sat x y formula in
      match Solve.check [ formula ] with
      | Solve.Sat m ->
          (* a claimed model must actually satisfy the formula *)
          let rec holds = function
            | Constr.True -> true
            | Constr.False -> false
            | Constr.Atom (Constr.Le lin) -> Model.eval m lin <= 0
            | Constr.Atom (Constr.Eqz lin) -> Model.eval m lin = 0
            | Constr.And parts -> List.for_all holds parts
            | Constr.Or parts -> List.exists holds parts
          in
          expected && holds formula
      | Solve.Unsat -> not expected
      | Solve.Unknown -> true)

let test_unknown_is_conservative () =
  (* with the DNF budget forced to zero, the solver must give up as
     Unknown — and is_sat must treat Unknown as satisfiable, because a
     path we cannot prove infeasible has to stay in the contract *)
  with_syms (fun _ x _ ->
      let xl = Linexpr.sym x in
      let f =
        Constr.disj
          [ Constr.eq xl (Linexpr.const 1); Constr.eq xl (Linexpr.const 2) ]
      in
      (match Solve.check ~max_conjuncts:0 [ f ] with
      | Solve.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown under a zero budget");
      check_bool "unknown counts as sat" true
        (Solve.is_sat ~max_conjuncts:0 [ f ]))

let test_tight_bounds_propagation () =
  with_syms (fun _ x y ->
      let xl = Linexpr.sym x and yl = Linexpr.sym y in
      (* 2x + 3y = 29 with x,y in [0,10]: solutions exist (x=1,y=9 ...) *)
      let f = Constr.eq (Linexpr.add (Linexpr.scale 2 xl) (Linexpr.scale 3 yl))
          (Linexpr.const 29) in
      (match Solve.check [ f ] with
      | Solve.Sat m ->
          check_bool "exact" true
            ((2 * Model.value m x) + (3 * Model.value m y) = 29)
      | _ -> Alcotest.fail "expected sat");
      (* 2x + 4y = 29 has no integer solutions... parity is beyond pure
         interval reasoning, so the solver may answer Sat only with a real
         witness — verify it never fabricates one *)
      let g = Constr.eq (Linexpr.add (Linexpr.scale 2 xl) (Linexpr.scale 4 yl))
          (Linexpr.const 29) in
      match Solve.check [ g ] with
      | Solve.Sat m ->
          Alcotest.fail
            (Printf.sprintf "fabricated witness x=%d y=%d" (Model.value m x)
               (Model.value m y))
      | Solve.Unsat | Solve.Unknown -> ())

(* The memoizing front-end must agree with fresh solves: same verdict
   class, and any cached model must satisfy the original constraints. *)
let prop_cache_matches_solve =
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:7 "cx" in
  let y = Sym.fresh gen ~lo:0 ~hi:7 "cy" in
  let holds m =
    let rec go = function
      | Constr.True -> true
      | Constr.False -> false
      | Constr.Atom (Constr.Le lin) -> Model.eval m lin <= 0
      | Constr.Atom (Constr.Eqz lin) -> Model.eval m lin = 0
      | Constr.And parts -> List.for_all go parts
      | Constr.Or parts -> List.exists go parts
    in
    go
  in
  QCheck2.Test.make ~count:300 ~name:"memoized verdicts equal fresh solves"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) (gen_formula (x, y)))
    (fun formulas ->
      let fresh = Solve.check formulas in
      let cached = Cache.check formulas in
      let verdicts_agree =
        match (fresh, cached) with
        | Solve.Sat _, Solve.Sat m -> List.for_all (holds m) formulas
        | Solve.Unsat, Solve.Unsat | Solve.Unknown, Solve.Unknown -> true
        | _ -> false
      in
      (* a repeat query must return the very same verdict, and is_sat
         must agree with the uncached entry point *)
      verdicts_agree
      && Cache.check formulas = cached
      && Cache.is_sat formulas = Solve.is_sat formulas)

let test_cache_stats () =
  with_syms (fun _ x _ ->
      Cache.reset ();
      let xl = Linexpr.sym x in
      let c1 = Constr.le xl (Linexpr.const 4) in
      let c2 = Constr.ge xl (Linexpr.const 2) in
      check_bool "sat" true (Cache.is_sat [ c1; c2 ]);
      let s = Cache.stats () in
      check_int "first query misses" 1 s.Cache.misses;
      check_int "no hits yet" 0 s.Cache.hits;
      (* permuted, duplicated and True-padded sets normalize to the same
         fingerprint *)
      check_bool "normalized hit" true
        (Cache.is_sat [ c2; c1; c2; Constr.True ]);
      let s = Cache.stats () in
      check_int "hit on normalized set" 1 s.Cache.hits;
      check_int "still one miss" 1 s.Cache.misses;
      (* a different solver budget is a different key *)
      check_bool "other budget" true (Cache.is_sat ~max_nodes:1234 [ c1; c2 ]);
      check_int "budget miss" 2 (Cache.stats ()).Cache.misses;
      Cache.reset ();
      let s = Cache.stats () in
      check_int "reset misses" 0 s.Cache.misses;
      check_int "reset hits" 0 s.Cache.hits;
      check_int "reset fingerprints" 0 s.Cache.fingerprints)

(* Regression for the fingerprinted-key scheme: the structural hash is
   computed exactly once per lookup (at normalization) and stored in
   the key — table probes must never re-hash the constraint tree, so
   the mean probe cost stays pinned at 1.0 however hit-heavy or
   collision-prone the workload gets. *)
let test_cache_probe_cost () =
  with_syms (fun _ x y ->
      Cache.reset ();
      let xl = Linexpr.sym x and yl = Linexpr.sym y in
      let query k =
        [ Constr.le xl (Linexpr.const k); Constr.ge yl (Linexpr.const 1) ]
      in
      let lookups = ref 0 in
      for k = 1 to 16 do
        ignore (Cache.is_sat (query k));
        incr lookups
      done;
      (* hammer the same keys: hits must not add fingerprint work *)
      for _ = 1 to 4 do
        for k = 1 to 16 do
          ignore (Cache.is_sat (query k));
          incr lookups
        done
      done;
      let s = Cache.stats () in
      check_int "one fingerprint per lookup" !lookups s.Cache.fingerprints;
      check_int "lookups accounted" !lookups (s.Cache.hits + s.Cache.misses);
      check_bool "mean probe cost pinned at 1.0" true
        (Float.abs (Cache.mean_probe_cost s -. 1.0) < 1e-9);
      Cache.reset ())

let test_cache_eviction () =
  with_syms (fun _ x _ ->
      Cache.reset ();
      Cache.set_capacity 8;
      Fun.protect
        ~finally:(fun () ->
          Cache.set_capacity 32_768;
          Cache.reset ())
        (fun () ->
          let xl = Linexpr.sym x in
          let query k = [ Constr.le xl (Linexpr.const k) ] in
          (* 24 distinct keys through an 8-entry cache *)
          for k = 1 to 24 do
            check_bool "sat" true (Cache.is_sat (query k))
          done;
          check_bool "bounded" true (Cache.size () <= 8);
          let s = Cache.stats () in
          check_int "all distinct keys miss" 24 s.Cache.misses;
          check_bool "evictions happened" true (s.Cache.evictions >= 16);
          (* an evicted key re-solves to the identical verdict *)
          let fresh = Solve.check (query 1) in
          check_bool "evicted key re-solves identically" true
            (Cache.check (query 1) = fresh);
          (* growing the bound stops eviction pressure *)
          Cache.set_capacity 64;
          let before = (Cache.stats ()).Cache.evictions in
          for k = 1 to 24 do
            ignore (Cache.is_sat (query k))
          done;
          check_int "no further evictions at capacity 64" before
            (Cache.stats ()).Cache.evictions))

(* The cache is shared by every pipeline domain: hammer it from an
   [Exec.Pool] at a starved capacity (constant eviction churn) and
   check each domain still sees exactly the direct solver's verdict,
   and the table never outgrows its bound. *)
let test_cache_parallel_domains () =
  Solver.Cache.reset ();
  Solver.Cache.set_capacity 32;
  Fun.protect ~finally:(fun () ->
      Solver.Cache.set_capacity 32768;
      Solver.Cache.reset ())
  @@ fun () ->
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:1000 "x" in
  let xl = Linexpr.sym x in
  (* 200 distinct keys, an even sat/unsat mix *)
  let sets =
    List.init 200 (fun i ->
        [
          Constr.eq xl (Linexpr.const (i / 2));
          (if i mod 2 = 0 then Constr.le xl (Linexpr.const 500)
           else Constr.gt xl (Linexpr.const 500));
        ])
  in
  let kind = function
    | Solve.Sat _ -> "sat"
    | Solve.Unsat -> "unsat"
    | Solve.Unknown -> "unknown"
  in
  let want = List.map (fun cs -> kind (Solve.check cs)) sets in
  (* three interleaved sweeps: misses, hits and evicted re-solves race *)
  let items = sets @ List.rev sets @ sets in
  let got = Exec.Pool.map ~jobs:4 (fun cs -> kind (Cache.check cs)) items in
  Alcotest.(check (list string))
    "parallel cached verdicts match direct solve"
    (want @ List.rev want @ want)
    got;
  check_bool "table stayed within its bound" true (Cache.size () <= 32)

(* Differential testing against the reference kernel [Solve_ref]: the
   library kernel must give the same verdict, the same model binding for
   binding, and do the same work (conjuncts searched, search nodes
   visited), since the symbolic engine's witnesses — and so the
   contracts — are the models it finds. *)

let solver_counters =
  [ Obs.Metrics.counter "solver.conjuncts"; Obs.Metrics.counter "solver.nodes" ]

(* [Solve.check] with the [solver.conjuncts] and [solver.nodes] it
   added, read with the obs runtime on for the one call. *)
let check_counted ?max_nodes cs =
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  let before = List.map Obs.Metrics.value solver_counters in
  let verdict =
    Fun.protect
      ~finally:(fun () -> if not was_enabled then Obs.disable ())
      (fun () -> Solve.check ?max_nodes cs)
  in
  let after = List.map Obs.Metrics.value solver_counters in
  match List.map2 ( - ) after before with
  | [ conjuncts; nodes ] -> (verdict, { Solve_ref.conjuncts; nodes })
  | _ -> assert false

let same_as_reference ?max_nodes cs =
  let got, work = check_counted ?max_nodes cs in
  let want, ref_work = Solve_ref.check ?max_nodes cs in
  let same_verdict =
    match (got, want) with
    | Solve.Sat m, Solve.Sat m' -> Model.bindings m = Model.bindings m'
    | Solve.Unsat, Solve.Unsat | Solve.Unknown, Solve.Unknown -> true
    | _ -> false
  in
  same_verdict && work = ref_work

(* The engine's symbol domains: small enumerations, bytes, u32 header
   fields and the [now] timestamp. *)
let kernel_domains =
  [| (0, 7); (0, 255); (0, (1 lsl 32) - 1); (1000, 1 lsl 40) |]

type kernel_case = {
  doms : (int * int) list;
  max_nodes : int;
  constraints : Constr.t list;
}

let gen_kernel_case =
  let open QCheck2.Gen in
  let* n = int_range 3 6 in
  let* doms = list_repeat n (oneofa kernel_domains) in
  let syms =
    let gen = Sym.gen () in
    List.mapi
      (fun i (lo, hi) -> Sym.fresh gen ~lo ~hi (Printf.sprintf "s%d" i))
      doms
  in
  let pick_sym = oneofl syms in
  let gen_coef =
    frequency
      [ (6, int_range (-3) 3); (1, oneofl [ 256; -256; 65536; -(1 lsl 32) ]) ]
  in
  let gen_const =
    frequency
      [
        (3, int_range (-10) 10);
        (2, let* lo, hi = oneofl doms in int_range lo hi);
      ]
  in
  let gen_lin =
    let* terms = list_size (int_range 0 3) (pair gen_coef pick_sym) in
    let* k = gen_const in
    return
      (List.fold_left
         (fun acc (c, s) -> Linexpr.add acc (Linexpr.scale c (Linexpr.sym s)))
         (Linexpr.const k) terms)
  in
  let gen_atom =
    let* a = gen_lin in
    let* b = gen_lin in
    oneofl
      [ Constr.le a b; Constr.lt a b; Constr.eq a b; Constr.ne a b;
        Constr.ge a b ]
  in
  let gen_part =
    frequency
      [
        (3, gen_atom);
        (1, map Constr.disj (list_size (int_range 2 3) gen_atom));
        ( 1,
          map Constr.disj
            (list_size (int_range 2 3)
               (map Constr.conj (list_size (int_range 1 3) gen_atom))) );
      ]
  in
  let* constraints = list_size (int_range 1 4) gen_part in
  (* the budget stays small: a conjunct that exhausts it runs every node
     to the 200-sweep cap in the reference kernel *)
  let* max_nodes =
    frequency [ (1, int_range 1 40); (2, int_range 41 300) ]
  in
  return { doms; max_nodes; constraints }

let print_kernel_case c =
  Fmt.str "domains %a, max_nodes %a: %a"
    Fmt.(list ~sep:comma (pair ~sep:(any "..") int int))
    c.doms
    Fmt.int c.max_nodes Constr.pp (Constr.conj c.constraints)

let prop_kernel_matches_reference =
  QCheck2.Test.make ~count:400 ~name:"kernel matches reference kernel"
    ~print:print_kernel_case gen_kernel_case (fun c ->
      same_as_reference ~max_nodes:c.max_nodes c.constraints)

let test_kernel_fixed_cases () =
  let gen = Sym.gen () in
  let x = Sym.u32 gen "x" and y = Sym.u32 gen "y" in
  let b = Sym.byte gen "b" in
  let now = Sym.fresh gen ~lo:1000 ~hi:(1 lsl 40) "now" in
  let l = Linexpr.sym and k = Linexpr.const in
  let kind = function
    | Solve.Sat _ -> "sat"
    | Solve.Unsat -> "unsat"
    | Solve.Unknown -> "unknown"
  in
  let case ?max_nodes name want cs =
    check_bool (name ^ ": same as reference") true
      (same_as_reference ?max_nodes cs);
    Alcotest.(check string) (name ^ ": verdict") want
      (kind (Solve.check ?max_nodes cs))
  in
  (* each sweep moves the bounds by one: every node stops at the
     200-sweep cap and the search splits down to small intervals *)
  let cycle x y =
    [ Constr.le (l x) (Linexpr.add_const (-1) (l y));
      Constr.le (l y) (Linexpr.add_const (-1) (l x)) ]
  in
  case "sweep cap, u32" "unknown" ~max_nodes:200 (cycle x y);
  case "sweep cap, small budget" "unknown" ~max_nodes:3 (cycle x y);
  let v = Sym.fresh gen ~lo:0 ~hi:1000 "v" in
  let w = Sym.fresh gen ~lo:0 ~hi:1000 "w" in
  case "sweep cap, refuted by splitting" "unsat" (cycle v w);
  (* over [0, 799] the 200th sweep empties the root; from [0, 800] on,
     the root stops at the cap and splits *)
  let v = Sym.fresh gen ~lo:0 ~hi:799 "v" in
  let w = Sym.fresh gen ~lo:0 ~hi:799 "w" in
  case "refuted on the last sweep" "unsat" (cycle v w);
  (* parity is beyond interval reasoning: the search runs out of nodes *)
  case "parity, small budget" "unknown" ~max_nodes:20
    [ Constr.eq (Linexpr.add (Linexpr.scale 2 (l x)) (Linexpr.scale 4 (l y)))
        (k ((1 lsl 32) + 1)) ];
  case "expiry window" "sat"
    [ Constr.ge (Linexpr.sub (l now) (l x)) (k 1024);
      Constr.lt (l x) (Linexpr.add (l now) (k (-4096)));
      Constr.ne (l b) (k 0) ];
  case "disjunction picks the second conjunct" "sat"
    [ Constr.disj
        [ Constr.conj [ Constr.gt (l b) (k 200); Constr.lt (l b) (k 100) ];
          Constr.eq (l x) (Linexpr.add (l b) (k 7)) ] ]

(* The queries the pipeline really asks: every registry NF's path
   constraints (the witness solves) and each class predicate conjoined
   with them (the membership tests). *)
let test_kernel_registry_queries () =
  List.iter
    (fun (e : Nf.Registry.entry) ->
      let t =
        Bolt.Pipeline.analyze
          ~config:
            Bolt.Pipeline.Config.(
              default |> with_contracts e.contracts |> with_jobs 1)
          e.program
      in
      let engine = t.Bolt.Pipeline.engine in
      List.iter
        (fun (a : Bolt.Pipeline.path_analysis) ->
          let cs = a.path.Symbex.Path.constraints in
          check_bool (e.name ^ ": path witness") true (same_as_reference cs);
          List.iter
            (fun (c : Symbex.Iclass.t) ->
              check_bool
                (Printf.sprintf "%s: class %s" e.name c.name)
                true
                (same_as_reference (c.predicate engine @ cs)))
            e.classes)
        t.analyses)
    (Nf.Registry.all ())

let suite =
  [
    Alcotest.test_case "linexpr" `Quick test_linexpr;
    Alcotest.test_case "kernel on registry queries vs reference" `Quick
      test_kernel_registry_queries;
    Alcotest.test_case "kernel fixed cases vs reference" `Quick
      test_kernel_fixed_cases;
    Alcotest.test_case "cache stats" `Quick test_cache_stats;
    Alcotest.test_case "cache probe cost" `Quick test_cache_probe_cost;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "unknown is conservative" `Quick
      test_unknown_is_conservative;
    Alcotest.test_case "tight propagation" `Quick
      test_tight_bounds_propagation;
    Alcotest.test_case "constr constant folding" `Quick
      test_constr_constant_folding;
    Alcotest.test_case "negation" `Quick test_not;
    Alcotest.test_case "solve basics" `Quick test_solve_basic;
    Alcotest.test_case "solve disjunction" `Quick test_solve_disjunction;
    Alcotest.test_case "model defaults" `Quick test_model_defaults;
    Alcotest.test_case "cache under parallel domains" `Quick
      test_cache_parallel_domains;
    QCheck_alcotest.to_alcotest prop_solver_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_cache_matches_solve;
    QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
  ]
