(** Satisfiability and model extraction.

    The decision procedure is interval (bounds) propagation to a fixpoint
    followed by branch-and-prune search, over the DNF expansion of the
    boolean structure.  On the affine constraints produced by the symbolic
    engine — comparisons of bounded header fields and model outputs against
    constants and against each other — this is complete; resource caps make
    it return [Unknown] rather than diverge on anything harder.

    The DNF conjuncts are tried in order and the first [Sat] wins.  Within
    a conjunct, each search node sweeps the atoms in order ([lin = 0] as
    [lin <= 0] then [-lin <= 0]), tightening every symbol's interval,
    until a sweep changes nothing or 200 sweeps have run; an empty
    interval prunes the node.  If assigning every symbol its lower bound
    satisfies the conjunct, that assignment is the model.  Otherwise the
    node splits the widest unfixed symbol (the lowest id on ties) at the
    midpoint and searches the lower half first.  The result is a pure
    function of the constraints and the budgets. *)

type result = Sat of Model.t | Unsat | Unknown

val check : ?max_conjuncts:int -> ?max_nodes:int -> Constr.t list -> result
(** [check constraints] decides the conjunction of [constraints].
    [max_conjuncts] caps the DNF expansion (default 4096); [max_nodes] caps
    the search tree per conjunct (default 20_000). *)

val is_sat : ?max_conjuncts:int -> ?max_nodes:int -> Constr.t list -> bool
(** [is_sat cs] is true iff {!check} returns [Sat].  [Unknown] counts as
    satisfiable for conservativeness: a path we cannot prove infeasible
    must be kept, or the contract could under-approximate. *)

val model_exn : Constr.t list -> Model.t
(** [model_exn cs] returns a model; raises [Failure] on [Unsat]/[Unknown]. *)

val pp_result : Format.formatter -> result -> unit
