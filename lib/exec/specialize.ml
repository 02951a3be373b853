(* Config-specialized, allocation-free compiled execution.

   [bind] freezes a compiled program against one stream's concrete
   configuration — its meter, its mode, its linked data-structure
   instances — and recompiles the IR into closures with every remaining
   source of per-packet overhead hoisted to bind time:

   - Stateful calls skip the generic [Ds] dispatch entirely.  Each call
     site resolves its instance and method ONCE, to the structure's
     specialized fast path ({!Ds.fast_path}), and reuses a preallocated
     argv.  The fast path reads keys in place and charges through a
     {!Ds.sink} that shares this runtime's deferred counters.
   - Static instruction charges are packed per straight-line segment at
     compile time: one closure adds the whole segment's per-kind counts
     in a handful of array bumps, instead of one bump per IR node.
   - When the hardware model prices memory accesses independently of
     their address ({!Hw.Model.t.mem_bulk}), memory charges batch the
     same way: statically countable accesses join the segment packs,
     dynamically counted ones (inside data-structure fast paths) bump
     one extra deferred counter, and the whole packet's accesses retire
     as a single bulk charge at flush.  Address-sensitive models (L1
     tracking, burst windows) still see every access at its real
     address, in program order.
   - Expressions compile to shape-specialized closures: variable reads
     fuse into their consumers (slot indices are known at bind time),
     comparisons compile to direct boolean tests that never materialize
     a 0/1 int, each operator gets its own closure instead of a generic
     [apply_binop] dispatch, and constant operands fold away — constant
     conditions prune their dead arm at bind time.  Control transfers
     return outcome codes instead of raising, so the per-packet
     [Concrete.Returned] exception allocation disappears.

   The specialized body is charge-equivalent, not charge-identical:
   within one straight-line segment the charges land as a single batch,
   so a packet that gets [Stuck] mid-segment can differ from the
   interpreter by part of that segment's pack (completed packets — and
   therefore everything a caller can observe across packets — are
   exact: same outcomes, IC, MA, cycles, observations; see DESIGN
   §12).  Batching is only sound when charges commute and nothing reads
   the meter mid-packet, so [bind] falls back to {!Compiled.runner}
   whenever the meter traces events, the model couples memory pricing
   to instruction counts, the mode is Analysis, or any call site lacks
   a fast path.  One runner API, three dispositions — callers never
   need to know which they got. *)

open Ir

(* Raised at bind time when some call site cannot be specialized; the
   binder falls back to the generic compiled runner. *)
exception Not_specializable

let nkinds = Hw.Cost.nkinds
let i_alu = Hw.Cost.kind_index Hw.Cost.Alu
let i_move = Hw.Cost.kind_index Hw.Cost.Move
let i_load = Hw.Cost.kind_index Hw.Cost.Load
let i_store = Hw.Cost.kind_index Hw.Cost.Store
let i_branch = Hw.Cost.kind_index Hw.Cost.Branch
let i_call = Hw.Cost.kind_index Hw.Cost.Call
let i_ret = Hw.Cost.kind_index Hw.Cost.Ret

(* One deferred counter beyond the instruction kinds: batched memory
   accesses, drained through the model's [mem_bulk] at flush.  Only
   ever bumped when the model is address-insensitive. *)
let i_mem = nkinds
let n_counts = nkinds + 1

(* Outcome codes.  [k_next] is the block fall-through sentinel; the
   codes are disjoint from it and from each other.  Forward's port
   travels through [srt.out_port] so the code stays a bare int. *)
let k_next = min_int
let code_sent = 1
let code_dropped = 2
let code_flooded = 3

(* Per-stream runtime: allocated once at [bind], reused every packet. *)
type srt = {
  meter : Meter.t;
  mutable packet : Net.Packet.t;
  slots : int array;
  counts : int array;
      (** deferred charges: [nkinds] instr kinds plus batched mems *)
  minstr : Hw.Cost.kind -> int -> unit;
  mmem : addr:int -> write:bool -> dependent:bool -> unit;
  mbulk : int -> unit;  (** drains [counts.(i_mem)]; unused unbatched *)
  mutable out_port : int;  (** valid after the body returns [code_sent] *)
}

let bump rt i n =
  let c = rt.counts in
  Array.unsafe_set c i (Array.unsafe_get c i + n)

let flush rt =
  let c = rt.counts in
  for i = 0 to nkinds - 1 do
    let n = Array.unsafe_get c i in
    if n > 0 then begin
      Array.unsafe_set c i 0;
      rt.minstr (Array.unsafe_get Hw.Cost.kind_of_index i) n
    end
  done;
  let m = Array.unsafe_get c i_mem in
  if m > 0 then begin
    Array.unsafe_set c i_mem 0;
    rt.mbulk m
  end

(* Seal the segment charges accumulated in [cur] into one pack-add
   closure, specialized by the number of distinct counters touched. *)
let seal (cur : int array) : (srt -> unit) option =
  let pairs = ref [] in
  for i = n_counts - 1 downto 0 do
    if cur.(i) > 0 then pairs := (i, cur.(i)) :: !pairs;
    cur.(i) <- 0
  done;
  match !pairs with
  | [] -> None
  | [ (i1, n1) ] -> Some (fun rt -> bump rt i1 n1)
  | [ (i1, n1); (i2, n2) ] ->
      Some
        (fun rt ->
          bump rt i1 n1;
          bump rt i2 n2)
  | [ (i1, n1); (i2, n2); (i3, n3) ] ->
      Some
        (fun rt ->
          bump rt i1 n1;
          bump rt i2 n2;
          bump rt i3 n3)
  | [ (i1, n1); (i2, n2); (i3, n3); (i4, n4) ] ->
      Some
        (fun rt ->
          bump rt i1 n1;
          bump rt i2 n2;
          bump rt i3 n3;
          bump rt i4 n4)
  | pairs ->
      let idx = Array.of_list (List.map fst pairs) in
      let cnt = Array.of_list (List.map snd pairs) in
      Some
        (fun rt ->
          for j = 0 to Array.length idx - 1 do
            bump rt (Array.unsafe_get idx j) (Array.unsafe_get cnt j)
          done)

(* Top-level runners for the compiled step/action arrays: a local
   [let rec] would capture its environment and allocate per packet. *)
let rec run_acts (arr : (srt -> unit) array) n i rt =
  if i < n then begin
    (Array.unsafe_get arr i) rt;
    run_acts arr n (i + 1) rt
  end

let rec run_steps (arr : (srt -> int) array) n i rt =
  if i = n then k_next
  else
    let r = (Array.unsafe_get arr i) rt in
    if r == k_next then run_steps arr n (i + 1) rt else r

(* One straight-line segment — the sealed charge pack plus its dynamic
   actions in program order — as a single unit closure, with the common
   small arities unrolled. *)
let seg_unit (pack : (srt -> unit) option) (acts : (srt -> unit) list) :
    (srt -> unit) option =
  match (pack, acts) with
  | None, [] -> None
  | Some p, [] -> Some p
  | None, [ a ] -> Some a
  | Some p, [ a ] ->
      Some
        (fun rt ->
          p rt;
          a rt)
  | None, [ a; b ] ->
      Some
        (fun rt ->
          a rt;
          b rt)
  | Some p, [ a; b ] ->
      Some
        (fun rt ->
          p rt;
          a rt;
          b rt)
  | None, [ a; b; c ] ->
      Some
        (fun rt ->
          a rt;
          b rt;
          c rt)
  | Some p, [ a; b; c ] ->
      Some
        (fun rt ->
          p rt;
          a rt;
          b rt;
          c rt)
  | pack, acts ->
      let arr =
        Array.of_list (match pack with Some p -> p :: acts | None -> acts)
      in
      let n = Array.length arr in
      Some (fun rt -> run_acts arr n 0 rt)

(* Loop skeletons, hoisted for the same no-capture reason. *)
type loop_cfg = {
  cpack : srt -> unit;  (** per-test charges: condition + branch *)
  lcond : srt -> bool;
  lbody : srt -> int;
  lbound : int;
  lobs : Perf.Pcv.t option;  (** observe the iteration count at exit *)
}

let rec loop_iter cfg k rt =
  cfg.cpack rt;
  let c = cfg.lcond rt in
  if k >= cfg.lbound then begin
    if c then Concrete.stuck "loop exceeded its static bound %d" cfg.lbound;
    (match cfg.lobs with
    | Some pcv -> Meter.observe rt.meter pcv k
    | None -> ());
    k_next
  end
  else if c then begin
    let r = cfg.lbody rt in
    if r == k_next then loop_iter cfg (k + 1) rt else r
  end
  else begin
    (match cfg.lobs with
    | Some pcv -> Meter.observe rt.meter pcv k
    | None -> ());
    k_next
  end

(* A compiled expression: value known at bind time (charges already
   hoisted into the enclosing segment), a bare slot read, or a closure
   producing the value (and, on address-sensitive models, firing its
   memory charges at the access point). *)
type sval = Kv of int | Sv of int | Dv of (srt -> int)

let forcev = function
  | Kv v -> fun (_ : srt) -> v
  | Sv s -> fun rt -> Array.unsafe_get rt.slots s
  | Dv f -> f

(* A compiled condition: decided at bind time, or a direct boolean
   test. *)
type sbool = Bk of bool | Bd of (srt -> bool)

(* Constant-offset packet loads on the batched path, one closure per
   width so the accessor call compiles direct; and their fusions into
   an assignment, which save the intermediate value closure on the
   commonest header-parsing shape [x := pkt[k]]. *)
let dv_load_b w off =
  match w with
  | Expr.W8 ->
      Dv
        (fun rt ->
          try Net.Packet.get_u8 rt.packet off
          with Invalid_argument msg -> Concrete.stuck "%s" msg)
  | Expr.W16 ->
      Dv
        (fun rt ->
          try Net.Packet.get_u16 rt.packet off
          with Invalid_argument msg -> Concrete.stuck "%s" msg)
  | Expr.W32 ->
      Dv
        (fun rt ->
          try Net.Packet.get_u32 rt.packet off
          with Invalid_argument msg -> Concrete.stuck "%s" msg)
  | Expr.W48 ->
      Dv
        (fun rt ->
          try Net.Packet.get_u48 rt.packet off
          with Invalid_argument msg -> Concrete.stuck "%s" msg)

let act_load_assign_b w off s : srt -> unit =
  match w with
  | Expr.W8 ->
      fun rt ->
        Array.unsafe_set rt.slots s
          (try Net.Packet.get_u8 rt.packet off
           with Invalid_argument msg -> Concrete.stuck "%s" msg)
  | Expr.W16 ->
      fun rt ->
        Array.unsafe_set rt.slots s
          (try Net.Packet.get_u16 rt.packet off
           with Invalid_argument msg -> Concrete.stuck "%s" msg)
  | Expr.W32 ->
      fun rt ->
        Array.unsafe_set rt.slots s
          (try Net.Packet.get_u32 rt.packet off
           with Invalid_argument msg -> Concrete.stuck "%s" msg)
  | Expr.W48 ->
      fun rt ->
        Array.unsafe_set rt.slots s
          (try Net.Packet.get_u48 rt.packet off
           with Invalid_argument msg -> Concrete.stuck "%s" msg)

(* ---- shape-specialized operators -----------------------------------

   One dedicated closure per binop node, with slot reads and constants
   fused in.  Both operands are always evaluated, left first — same as
   the interpreter (no short-circuit even for Land/Lor) — so stuck
   points and, on address-sensitive models, memory-charge order line
   up.  Div/Rem inline the zero test so no exception crosses the hot
   path for defined results. *)

let stuck_undef msg = Dv (fun (_ : srt) -> Concrete.stuck "%s" msg)

let rec specialize_binop op (a : sval) (b : sval) : sval =
  match (a, b) with
  | Kv x, Kv y -> (
      match Semantics.apply_binop op x y with
      | v -> Kv v
      | exception Semantics.Undefined msg -> stuck_undef msg)
  | _ -> (
      match op with
      | Expr.Add -> (
          match (a, b) with
          | Sv s, Kv y -> Dv (fun rt -> Array.unsafe_get rt.slots s + y)
          | Sv s1, Sv s2 ->
              Dv
                (fun rt ->
                  Array.unsafe_get rt.slots s1 + Array.unsafe_get rt.slots s2)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x + y))
      | Expr.Sub -> (
          match (a, b) with
          | Sv s, Kv y -> Dv (fun rt -> Array.unsafe_get rt.slots s - y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x - y))
      | Expr.And -> (
          match (a, b) with
          | Sv s, Kv y -> Dv (fun rt -> Array.unsafe_get rt.slots s land y)
          | Dv f, Kv y -> Dv (fun rt -> f rt land y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x land y))
      | Expr.Or ->
          let fa = forcev a and fb = forcev b in
          Dv
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x lor y)
      | Expr.Xor ->
          let fa = forcev a and fb = forcev b in
          Dv
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x lxor y)
      | Expr.Shl -> (
          match (a, b) with
          | Sv s, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> Array.unsafe_get rt.slots s lsl sh)
          | Dv f, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> f rt lsl sh)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x lsl (y land 63)))
      | Expr.Shr -> (
          match (a, b) with
          | Sv s, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> Array.unsafe_get rt.slots s lsr sh)
          | Dv f, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> f rt lsr sh)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x lsr (y land 63)))
      | Expr.Mul ->
          let fa = forcev a and fb = forcev b in
          Dv
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x * y)
      | Expr.Div -> (
          match b with
          | Kv 0 -> stuck_undef "division by zero"
          | Kv y ->
              let fa = forcev a in
              Dv (fun rt -> fa rt / y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  if y = 0 then Concrete.stuck "division by zero" else x / y))
      | Expr.Rem -> (
          match b with
          | Kv 0 -> stuck_undef "remainder by zero"
          | Kv y ->
              let fa = forcev a in
              Dv (fun rt -> fa rt mod y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  if y = 0 then Concrete.stuck "remainder by zero"
                  else x mod y))
      | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge
      | Expr.Land | Expr.Lor -> (
          match specialize_bool op a b with
          | Bk true -> Kv 1
          | Bk false -> Kv 0
          | Bd f -> Dv (fun rt -> if f rt then 1 else 0)))

(* Comparisons and logical connectives as direct boolean tests. *)
and specialize_bool op (a : sval) (b : sval) : sbool =
  match op with
  | Expr.Eq -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x = y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s = y)
      | Kv x, Sv s -> Bd (fun rt -> x = Array.unsafe_get rt.slots s)
      | Sv s1, Sv s2 ->
          Bd
            (fun rt ->
              Array.unsafe_get rt.slots s1 = Array.unsafe_get rt.slots s2)
      | Dv f, Kv y -> Bd (fun rt -> f rt = y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x = y))
  | Expr.Ne -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <> y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s <> y)
      | Kv x, Sv s -> Bd (fun rt -> x <> Array.unsafe_get rt.slots s)
      | Sv s1, Sv s2 ->
          Bd
            (fun rt ->
              Array.unsafe_get rt.slots s1 <> Array.unsafe_get rt.slots s2)
      | Dv f, Kv y -> Bd (fun rt -> f rt <> y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x <> y))
  | Expr.Lt -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x < y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s < y)
      | Kv x, Sv s -> Bd (fun rt -> x < Array.unsafe_get rt.slots s)
      | Dv f, Kv y -> Bd (fun rt -> f rt < y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x < y))
  | Expr.Le -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <= y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s <= y)
      | Dv f, Kv y -> Bd (fun rt -> f rt <= y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x <= y))
  | Expr.Gt -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x > y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s > y)
      | Dv f, Kv y -> Bd (fun rt -> f rt > y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x > y))
  | Expr.Ge -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x >= y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s >= y)
      | Dv f, Kv y -> Bd (fun rt -> f rt >= y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x >= y))
  | Expr.Land -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <> 0 && y <> 0)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt <> 0 in
              let y = fb rt <> 0 in
              x && y))
  | Expr.Lor -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <> 0 || y <> 0)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt <> 0 in
              let y = fb rt <> 0 in
              x || y))
  | _ -> (
      match specialize_binop op a b with
      | Kv n -> Bk (n <> 0)
      | Sv s -> Bd (fun rt -> Array.unsafe_get rt.slots s <> 0)
      | Dv f -> Bd (fun rt -> f rt <> 0))

(* ---- trace fast path ------------------------------------------------

   For a call-free, loop-free program (a straight-line chain of header
   assignments, guard tests and at most trailing stores — the firewall
   and static-router shape), the whole hot path compiles to ONE trace:
   an op sequence of slot assignments and boolean guards, a store
   probe/commit, and a single precomputed charge pack covering RX
   framing + every statement on the path + TX framing.  The trace is
   attempted first each packet; any guard miss, bounds miss, or
   exception bails out to the general specialized body, which recharges
   from zero — nothing observable has happened yet, because everything
   the probe phase touches (slots, out_port, store staging) is scratch,
   and packet stores only commit after every fallible step has
   passed.  Only built on batched (address-insensitive) models, where
   the path's memory charges are a static count. *)

(* Raised during trace compilation when the program leaves the traceable
   shape (a call, a loop, a branch with two live arms…). *)
exception Trace_bail

type top = Tact of (srt -> unit) | Tguard of (srt -> bool) * bool

type tstore = {
  st_w : Expr.width;
  st_bytes : int;
  st_off : srt -> int;
  st_val : srt -> int;
  mutable st_o : int;  (** staged offset, valid after probe *)
  mutable st_v : int;  (** staged value *)
}

(* Fold the op list into one closure chain at bind time: consecutive
   actions merge pairwise and each guard specializes on its expected
   polarity, so running the trace is a straight run of direct tail
   calls with no per-op dispatch. *)
let rec fuse_ops = function
  | [] -> fun (_ : srt) -> true
  | Tact a :: Tact b :: rest ->
      fuse_ops
        (Tact
           (fun rt ->
             a rt;
             b rt)
        :: rest)
  | Tact a :: rest ->
      let k = fuse_ops rest in
      fun rt ->
        a rt;
        k rt
  | Tguard (g, true) :: rest ->
      let k = fuse_ops rest in
      fun rt -> g rt && k rt
  | Tguard (g, false) :: rest ->
      let k = fuse_ops rest in
      fun rt -> (not (g rt)) && k rt

(* Evaluate and bounds-check every store before mutating the packet:
   a failed probe must leave no trace of the attempt. *)
let rec probe_stores (arr : tstore array) n i rt =
  i = n
  ||
  let s = Array.unsafe_get arr i in
  let o = s.st_off rt in
  let v = s.st_val rt in
  s.st_o <- o;
  s.st_v <- v;
  o >= 0
  && o + s.st_bytes <= Net.Packet.length rt.packet
  && probe_stores arr n (i + 1) rt

let commit_store s rt =
  match s.st_w with
  | Expr.W8 -> Net.Packet.set_u8 rt.packet s.st_o s.st_v
  | Expr.W16 -> Net.Packet.set_u16 rt.packet s.st_o s.st_v
  | Expr.W32 -> Net.Packet.set_u32 rt.packet s.st_o s.st_v
  | Expr.W48 -> Net.Packet.set_u48 rt.packet s.st_o s.st_v

let rec commit_stores arr n i rt =
  if i < n then begin
    commit_store (Array.unsafe_get arr i) rt;
    commit_stores arr n (i + 1) rt
  end

(* Staged stores commit after the whole path is validated, so a read of
   packet bytes a pending store will write would observe stale data.
   [load_ranges] collects the constant byte ranges [e] reads ([None] if
   any read offset is dynamic); the trace compiler bails unless every
   read provably misses every staged store.  (Pkt_len is not a read —
   stores never change the length.) *)
let rec load_ranges = function
  | Expr.Pkt_load (w, Expr.Const off) -> Some [ (off, Expr.bytes_of_width w) ]
  | Expr.Pkt_load _ -> None
  | Expr.Unop (_, a) -> load_ranges a
  | Expr.Binop (_, a, b) -> (
      match (load_ranges a, load_ranges b) with
      | Some la, Some lb -> Some (la @ lb)
      | _ -> None)
  | Expr.Const _ | Expr.Var _ | Expr.Pkt_len -> Some []

let ranges_overlap (o1, n1) (o2, n2) = o1 < o2 + n2 && o2 < o1 + n1

let rec expr_vars acc = function
  | Expr.Var v -> v :: acc
  | Expr.Unop (_, a) -> expr_vars acc a
  | Expr.Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Expr.Pkt_load (_, o) -> expr_vars acc o
  | Expr.Const _ | Expr.Pkt_len -> acc

(* The RX/TX framing of [Concrete.charge_rx]/[charge_tx] in deferred
   form.  The [_b] variants batch the framing accesses too. *)
let rx_frame rt =
  bump rt i_alu 22;
  bump rt i_move 8;
  bump rt i_load 4;
  for i = 0 to 3 do
    rt.mmem ~addr:(Concrete.rx_ring_base + (i * 8)) ~write:false
      ~dependent:false
  done;
  bump rt i_branch 2

let rx_frame_b rt =
  bump rt i_alu 22;
  bump rt i_move 8;
  bump rt i_load 4;
  bump rt i_mem 4;
  bump rt i_branch 2

let tx_drop_frame rt =
  bump rt i_alu 4;
  bump rt i_store 1;
  rt.mmem ~addr:Concrete.rx_ring_base ~write:true ~dependent:false

let tx_drop_frame_b rt =
  bump rt i_alu 4;
  bump rt i_store 1;
  bump rt i_mem 1

let tx_sent_frame rt =
  bump rt i_alu 14;
  bump rt i_move 4;
  bump rt i_store 3;
  for i = 0 to 2 do
    rt.mmem ~addr:(Concrete.rx_ring_base + 64 + (i * 8)) ~write:true
      ~dependent:false
  done;
  bump rt i_branch 1

let tx_sent_frame_b rt =
  bump rt i_alu 14;
  bump rt i_move 4;
  bump rt i_store 3;
  bump rt i_mem 3;
  bump rt i_branch 1

type t = {
  specialized : bool;
  run_fn : ?in_port:int -> ?now:int -> Net.Packet.t -> Concrete.run;
  exec_fn : in_port:int -> now:int -> Net.Packet.t -> int;
  out_port_fn : unit -> int;
}

let specialized t = t.specialized
let run t = t.run_fn
let exec t ~in_port ~now packet = t.exec_fn ~in_port ~now packet
let out_port t = t.out_port_fn ()

let outcome_of_code t code =
  if code = code_sent then Concrete.Sent (t.out_port_fn ())
  else if code = code_dropped then Concrete.Dropped
  else if code = code_flooded then Concrete.Flooded
  else invalid_arg "Specialize.outcome_of_code: not an outcome code"

(* Comments compile to nothing; an all-comment block is empty, so an
   [If] over it needs no control step at all. *)
let rec block_empty = function
  | [] -> true
  | Stmt.Comment _ :: rest -> block_empty rest
  | _ -> false

(* Compile [program] against the frozen (dss, meter) binding.  Raises
   [Not_specializable] when a call site has no fast path. *)
let build program (dss : Ds.env) meter =
  let batch = Meter.model_mem_bulk meter <> None in
  let slots_tbl = Hashtbl.create 16 in
  let next_slot = ref 0 in
  let slot_of v =
    match Hashtbl.find_opt slots_tbl v with
    | Some s -> s
    | None ->
        let s = !next_slot in
        incr next_slot;
        Hashtbl.add slots_tbl v s;
        s
  in
  List.iter (fun v -> ignore (slot_of v)) Program.input_vars;
  let bound =
    List.fold_left
      (fun set v ->
        ignore (slot_of v);
        v :: set)
      Program.input_vars
      (Eval.assigned_vars program.Program.body)
  in
  let counts = Array.make n_counts 0 in
  let sink =
    {
      Ds.s_counts = counts;
      s_mem =
        (if batch then fun ~addr:_ ~write:_ ~dependent:_ ->
           Array.unsafe_set counts i_mem (Array.unsafe_get counts i_mem + 1)
         else Meter.model_mem meter);
      s_mem_batched = batch;
      s_meter = meter;
    }
  in
  let resolve instance meth =
    match List.assoc_opt instance dss with
    | None -> raise Not_specializable
    | Some ds -> (
        match ds.Ds.fast_path sink meth with
        | Some f -> f
        | None -> raise Not_specializable)
  in
  let rec sexpr cur (e : Expr.t) : sval =
    match e with
    | Expr.Const n -> Kv n
    | Expr.Var v ->
        if List.mem v bound then Sv (slot_of v)
        else Dv (fun _ -> Concrete.stuck "unbound variable %s" v)
    | Expr.Pkt_len ->
        cur.(i_move) <- cur.(i_move) + 1;
        Dv (fun rt -> Net.Packet.length rt.packet)
    | Expr.Pkt_load (w, off_e) -> (
        let load =
          match w with
          | Expr.W8 -> Net.Packet.get_u8
          | Expr.W16 -> Net.Packet.get_u16
          | Expr.W32 -> Net.Packet.get_u32
          | Expr.W48 -> Net.Packet.get_u48
        in
        cur.(i_load) <- cur.(i_load) + 1;
        if batch then cur.(i_mem) <- cur.(i_mem) + 1;
        match sexpr cur off_e with
        | Kv off when off >= 0 && batch -> dv_load_b w off
        | Kv off when off >= 0 ->
            let addr = Concrete.packet_base + off in
            Dv
              (fun rt ->
                rt.mmem ~addr ~write:false ~dependent:false;
                try load rt.packet off
                with Invalid_argument msg -> Concrete.stuck "%s" msg)
        | voff when batch ->
            let off = forcev voff in
            Dv
              (fun rt ->
                let off = off rt in
                if off < 0 then Concrete.stuck "negative packet offset";
                try load rt.packet off
                with Invalid_argument msg -> Concrete.stuck "%s" msg)
        | voff ->
            let off = forcev voff in
            Dv
              (fun rt ->
                let off = off rt in
                if off < 0 then Concrete.stuck "negative packet offset";
                rt.mmem ~addr:(Concrete.packet_base + off) ~write:false
                  ~dependent:false;
                try load rt.packet off
                with Invalid_argument msg -> Concrete.stuck "%s" msg))
    | Expr.Unop (op, a) -> (
        cur.(i_alu) <- cur.(i_alu) + 1;
        match (op, sexpr cur a) with
        | _, Kv v -> Kv (Semantics.apply_unop op v)
        | Expr.Lnot, Sv s ->
            Dv (fun rt -> if Array.unsafe_get rt.slots s = 0 then 1 else 0)
        | Expr.Lnot, v ->
            let f = forcev v in
            Dv (fun rt -> if f rt = 0 then 1 else 0)
        | Expr.Bnot, v ->
            let f = forcev v in
            Dv (fun rt -> lnot (f rt) land 0xffff_ffff))
    | Expr.Binop (op, a, b) ->
        let ki = Hw.Cost.kind_index (Concrete.kind_of_binop op) in
        cur.(ki) <- cur.(ki) + 1;
        let va = sexpr cur a in
        let vb = sexpr cur b in
        specialize_binop op va vb
  in
  (* Conditions compile through [specialize_bool] so comparisons test
     directly instead of materializing 0/1. *)
  let scond cur (e : Expr.t) : sbool =
    match e with
    | Expr.Binop (op, a, b) ->
        let ki = Hw.Cost.kind_index (Concrete.kind_of_binop op) in
        cur.(ki) <- cur.(ki) + 1;
        let va = sexpr cur a in
        let vb = sexpr cur b in
        specialize_bool op va vb
    | _ -> (
        match sexpr cur e with
        | Kv n -> Bk (n <> 0)
        | Sv s -> Bd (fun rt -> Array.unsafe_get rt.slots s <> 0)
        | Dv f -> Bd (fun rt -> f rt <> 0))
  in
  (* A block compiles to [srt -> int]: an outcome code, or [k_next] for
     fall-through.  Statements accumulate into straight-line segments —
     one sealed charge pack plus the dynamic actions in program order —
     broken by control (If/While/Return). *)
  let rec sblock (block : Stmt.block) : srt -> int =
    let cur = Array.make n_counts 0 in
    let pending = ref [] in
    let steps = ref [] in
    (* Each control step absorbs the straight-line segment before it:
       one closure runs the pack, the actions, and the transfer. *)
    let take_seg () =
      let pack = seal cur in
      let acts = List.rev !pending in
      pending := [];
      seg_unit pack acts
    in
    let push_seg () =
      match take_seg () with
      | None -> ()
      | Some u ->
          steps :=
            (fun rt ->
              u rt;
              k_next)
            :: !steps
    in
    let push_ctl f =
      match take_seg () with
      | None -> steps := f :: !steps
      | Some u ->
          steps :=
            (fun rt ->
              u rt;
              f rt)
            :: !steps
    in
    let loop_ctl ~bound ~observe cond_e body =
      (* shared Unroll/Pcv_loop skeleton: a per-test pack (condition
         charges + the branch), the body, the static bound check *)
      let ccur = Array.make n_counts 0 in
      let cond = scond ccur cond_e in
      ccur.(i_branch) <- ccur.(i_branch) + 1;
      let cpack =
        match seal ccur with Some f -> f | None -> fun (_ : srt) -> ()
      in
      let lcond = match cond with Bk b -> fun (_ : srt) -> b | Bd f -> f in
      let cfg =
        { cpack; lcond; lbody = sblock body; lbound = bound; lobs = observe }
      in
      fun rt -> loop_iter cfg 0 rt
    in
    List.iter
      (fun (stmt : Stmt.t) ->
        match stmt with
        | Stmt.Comment _ -> ()
        | Stmt.Assign (v, Expr.Pkt_load (w, Expr.Const off))
          when off >= 0 && batch ->
            (* header parsing [x := pkt[k]]: load straight into the slot *)
            cur.(i_load) <- cur.(i_load) + 1;
            cur.(i_mem) <- cur.(i_mem) + 1;
            cur.(i_move) <- cur.(i_move) + 1;
            pending := act_load_assign_b w off (slot_of v) :: !pending
        | Stmt.Assign (v, e) -> (
            let value = sexpr cur e in
            cur.(i_move) <- cur.(i_move) + 1;
            let s = slot_of v in
            match value with
            | Kv n ->
                pending :=
                  (fun rt -> Array.unsafe_set rt.slots s n) :: !pending
            | Sv s' ->
                pending :=
                  (fun rt ->
                    Array.unsafe_set rt.slots s (Array.unsafe_get rt.slots s'))
                  :: !pending
            | Dv f ->
                pending :=
                  (fun rt -> Array.unsafe_set rt.slots s (f rt)) :: !pending)
        | Stmt.Pkt_store (w, off_e, val_e) ->
            let store =
              match w with
              | Expr.W8 -> Net.Packet.set_u8
              | Expr.W16 -> Net.Packet.set_u16
              | Expr.W32 -> Net.Packet.set_u32
              | Expr.W48 -> Net.Packet.set_u48
            in
            let off = forcev (sexpr cur off_e) in
            let value = forcev (sexpr cur val_e) in
            cur.(i_store) <- cur.(i_store) + 1;
            if batch then begin
              cur.(i_mem) <- cur.(i_mem) + 1;
              pending :=
                (fun rt ->
                  let off = off rt in
                  let value = value rt in
                  if off < 0 then Concrete.stuck "negative packet offset";
                  try store rt.packet off value
                  with Invalid_argument msg -> Concrete.stuck "%s" msg)
                :: !pending
            end
            else
              pending :=
                (fun rt ->
                  let off = off rt in
                  let value = value rt in
                  if off < 0 then Concrete.stuck "negative packet offset";
                  rt.mmem ~addr:(Concrete.packet_base + off) ~write:true
                    ~dependent:false;
                  try store rt.packet off value
                  with Invalid_argument msg -> Concrete.stuck "%s" msg)
                :: !pending
        | Stmt.Call { ret; instance; meth; args } ->
            let cargs = List.map (fun a -> forcev (sexpr cur a)) args in
            cur.(i_call) <- cur.(i_call) + 1;
            cur.(i_ret) <- cur.(i_ret) + 1;
            let argv = Array.make (max (List.length cargs) 1) 0 in
            let fn = resolve instance meth in
            (* marshal + dispatch + return-slot write as one closure,
               unrolled for the common arities *)
            let ret_slot =
              match ret with
              | None -> -1
              | Some r ->
                  cur.(i_move) <- cur.(i_move) + 1;
                  slot_of r
            in
            let act : srt -> unit =
              match (cargs, ret) with
              | [], None ->
                  fun (_ : srt) ->
                    Obs.Metrics.incr Concrete.c_calls;
                    ignore (fn argv)
              | [], Some _ ->
                  fun rt ->
                    Obs.Metrics.incr Concrete.c_calls;
                    Array.unsafe_set rt.slots ret_slot (fn argv)
              | [ a0 ], None ->
                  fun rt ->
                    Array.unsafe_set argv 0 (a0 rt);
                    Obs.Metrics.incr Concrete.c_calls;
                    ignore (fn argv)
              | [ a0 ], Some _ ->
                  fun rt ->
                    Array.unsafe_set argv 0 (a0 rt);
                    Obs.Metrics.incr Concrete.c_calls;
                    Array.unsafe_set rt.slots ret_slot (fn argv)
              | [ a0; a1 ], None ->
                  fun rt ->
                    Array.unsafe_set argv 0 (a0 rt);
                    Array.unsafe_set argv 1 (a1 rt);
                    Obs.Metrics.incr Concrete.c_calls;
                    ignore (fn argv)
              | [ a0; a1 ], Some _ ->
                  fun rt ->
                    Array.unsafe_set argv 0 (a0 rt);
                    Array.unsafe_set argv 1 (a1 rt);
                    Obs.Metrics.incr Concrete.c_calls;
                    Array.unsafe_set rt.slots ret_slot (fn argv)
              | [ a0; a1; a2 ], None ->
                  fun rt ->
                    Array.unsafe_set argv 0 (a0 rt);
                    Array.unsafe_set argv 1 (a1 rt);
                    Array.unsafe_set argv 2 (a2 rt);
                    Obs.Metrics.incr Concrete.c_calls;
                    ignore (fn argv)
              | [ a0; a1; a2 ], Some _ ->
                  fun rt ->
                    Array.unsafe_set argv 0 (a0 rt);
                    Array.unsafe_set argv 1 (a1 rt);
                    Array.unsafe_set argv 2 (a2 rt);
                    Obs.Metrics.incr Concrete.c_calls;
                    Array.unsafe_set rt.slots ret_slot (fn argv)
              | cargs, ret ->
                  let cargs = Array.of_list cargs in
                  let nargs = Array.length cargs in
                  let marshal rt =
                    for i = 0 to nargs - 1 do
                      Array.unsafe_set argv i ((Array.unsafe_get cargs i) rt)
                    done;
                    Obs.Metrics.incr Concrete.c_calls
                  in
                  if ret = None then fun rt ->
                    marshal rt;
                    ignore (fn argv)
                  else fun rt ->
                    marshal rt;
                    Array.unsafe_set rt.slots ret_slot (fn argv)
            in
            pending := act :: !pending
        | Stmt.If (cond_e, then_, else_) -> (
            let cond = scond cur cond_e in
            cur.(i_branch) <- cur.(i_branch) + 1;
            match cond with
            | Bk true ->
                (* arm decided at bind time; the dead arm never compiles *)
                if not (block_empty then_) then push_ctl (sblock then_)
            | Bk false ->
                if not (block_empty else_) then push_ctl (sblock else_)
            | Bd c -> (
                match (block_empty then_, block_empty else_) with
                | true, true ->
                    (* still evaluate: the condition may charge memory
                       accesses (unbatched) or get stuck *)
                    pending := (fun rt -> ignore (c rt)) :: !pending
                | false, true ->
                    let cthen = sblock then_ in
                    push_ctl (fun rt -> if c rt then cthen rt else k_next)
                | true, false ->
                    let celse = sblock else_ in
                    push_ctl (fun rt -> if c rt then k_next else celse rt)
                | false, false ->
                    let cthen = sblock then_ and celse = sblock else_ in
                    push_ctl (fun rt -> if c rt then cthen rt else celse rt)))
        | Stmt.While (Stmt.Unroll bound, cond_e, body) ->
            push_ctl (loop_ctl ~bound ~observe:None cond_e body)
        | Stmt.While (Stmt.Pcv_loop (name, bound), cond_e, body) ->
            push_ctl
              (loop_ctl ~bound ~observe:(Some (Perf.Pcv.v name)) cond_e body)
        | Stmt.Return action -> (
            match action with
            | Stmt.Forward port_e -> (
                let port = sexpr cur port_e in
                cur.(i_ret) <- cur.(i_ret) + 1;
                match port with
                | Kv p ->
                    push_ctl (fun rt ->
                        rt.out_port <- p;
                        code_sent)
                | Sv s ->
                    push_ctl (fun rt ->
                        rt.out_port <- Array.unsafe_get rt.slots s;
                        code_sent)
                | Dv f ->
                    push_ctl (fun rt ->
                        rt.out_port <- f rt;
                        code_sent))
            | Stmt.Drop ->
                cur.(i_ret) <- cur.(i_ret) + 1;
                push_ctl (fun _ -> code_dropped)
            | Stmt.Flood ->
                cur.(i_ret) <- cur.(i_ret) + 1;
                push_ctl (fun _ -> code_flooded)))
      block;
    push_seg ();
    match List.rev !steps with
    | [] -> fun (_ : srt) -> k_next
    | [ f ] -> f
    | steps ->
        let arr = Array.of_list steps in
        let n = Array.length arr in
        fun rt -> run_steps arr n 0 rt
  in
  let body = sblock program.Program.body in
  (* Attempt the whole-program trace (see the trace fast path section):
     follow the single expected path through the top-level body,
     compiling it to guard/action ops, staged stores, one outcome code
     and ONE charge pack covering RX framing + path + TX framing.
     Branches whose untaken arm is non-empty become guards; anything
     else off-shape (calls, loops, two live arms, a packet read after a
     staged store) bails the compilation and the NF just keeps the
     general specialized body. *)
  let trace =
    if not batch then None
    else begin
      let tcur = Array.make n_counts 0 in
      tcur.(i_alu) <- 22;
      tcur.(i_move) <- 8;
      tcur.(i_load) <- 4;
      tcur.(i_mem) <- 4;
      tcur.(i_branch) <- 2;
      let ops = ref [] in
      let stores = ref [] in
      let staged = ref [] in
      (* constant byte ranges of staged stores *)
      let dyn_store = ref false in
      (* the all-constant-offset, infallible-value store plan: one
         length check covers every store, commits run direct *)
      let fast_ok = ref true in
      let fast_commits = ref [] in
      let need_len = ref 0 in
      (* variables read by staged store offsets/values — immutable for
         the rest of the path (see the Assign bail) *)
      let store_vars = ref [] in
      (* can evaluating [e] raise (bounds, unbound var, div by zero)? *)
      let rec infallible (e : Expr.t) =
        match e with
        | Expr.Const _ | Expr.Pkt_len -> true
        | Expr.Var v -> List.mem v bound
        | Expr.Pkt_load _ -> false
        | Expr.Unop (_, a) -> infallible a
        | Expr.Binop ((Expr.Div | Expr.Rem), _, _) -> false
        | Expr.Binop (_, a, b) -> infallible a && infallible b
      in
      (* [e] must not read bytes any staged store will write *)
      let guard_load e =
        if !dyn_store || !staged <> [] then
          match load_ranges e with
          | Some [] -> ()
          | None -> raise Trace_bail
          | Some reads ->
              if
                !dyn_store
                || List.exists
                     (fun r -> List.exists (ranges_overlap r) !staged)
                     reads
              then raise Trace_bail
      in
      let push_op o = ops := o :: !ops in
      let rec walk (block : Stmt.block) : (srt -> unit) * int =
        match block with
        | [] -> raise Trace_bail (* fall-through: no outcome on this path *)
        | Stmt.Comment _ :: rest -> walk rest
        | Stmt.Assign (v, e) :: rest ->
            guard_load e;
            (* staged store expressions evaluate only when the path
               commits, so the variables they read must stay frozen
               from the store's program point on *)
            if List.mem v !store_vars then raise Trace_bail;
            (match e with
            | Expr.Pkt_load (w, Expr.Const off) when off >= 0 ->
                tcur.(i_load) <- tcur.(i_load) + 1;
                tcur.(i_mem) <- tcur.(i_mem) + 1;
                tcur.(i_move) <- tcur.(i_move) + 1;
                push_op (Tact (act_load_assign_b w off (slot_of v)))
            | _ -> (
                let value = sexpr tcur e in
                tcur.(i_move) <- tcur.(i_move) + 1;
                let s = slot_of v in
                match value with
                | Kv n ->
                    push_op (Tact (fun rt -> Array.unsafe_set rt.slots s n))
                | Sv s' ->
                    push_op
                      (Tact
                         (fun rt ->
                           Array.unsafe_set rt.slots s
                             (Array.unsafe_get rt.slots s')))
                | Dv f ->
                    push_op
                      (Tact (fun rt -> Array.unsafe_set rt.slots s (f rt)))));
            walk rest
        | Stmt.Pkt_store (w, off_e, val_e) :: rest ->
            guard_load off_e;
            guard_load val_e;
            let off = forcev (sexpr tcur off_e) in
            let value = forcev (sexpr tcur val_e) in
            tcur.(i_store) <- tcur.(i_store) + 1;
            tcur.(i_mem) <- tcur.(i_mem) + 1;
            stores :=
              {
                st_w = w;
                st_bytes = Expr.bytes_of_width w;
                st_off = off;
                st_val = value;
                st_o = 0;
                st_v = 0;
              }
              :: !stores;
            store_vars := expr_vars (expr_vars !store_vars off_e) val_e;
            (match off_e with
            | Expr.Const o when o >= 0 && infallible val_e ->
                staged := (o, Expr.bytes_of_width w) :: !staged;
                need_len := max !need_len (o + Expr.bytes_of_width w);
                fast_commits :=
                  (match w with
                  | Expr.W8 ->
                      fun rt -> Net.Packet.set_u8 rt.packet o (value rt)
                  | Expr.W16 ->
                      fun rt -> Net.Packet.set_u16 rt.packet o (value rt)
                  | Expr.W32 ->
                      fun rt -> Net.Packet.set_u32 rt.packet o (value rt)
                  | Expr.W48 ->
                      fun rt -> Net.Packet.set_u48 rt.packet o (value rt))
                  :: !fast_commits
            | Expr.Const o when o >= 0 ->
                staged := (o, Expr.bytes_of_width w) :: !staged;
                fast_ok := false
            | _ ->
                dyn_store := true;
                fast_ok := false);
            walk rest
        | Stmt.If (cond_e, then_, else_) :: rest -> (
            guard_load cond_e;
            let cond = scond tcur cond_e in
            tcur.(i_branch) <- tcur.(i_branch) + 1;
            match cond with
            | Bk true -> walk (then_ @ rest)
            | Bk false -> walk (else_ @ rest)
            | Bd c -> (
                match (block_empty then_, block_empty else_) with
                | true, true ->
                    (* either way falls through; still evaluate (the
                       condition may get stuck) *)
                    push_op (Tact (fun rt -> ignore (c rt)));
                    walk rest
                | false, true ->
                    (* expected path: the empty else arm *)
                    push_op (Tguard (c, false));
                    walk rest
                | true, false ->
                    push_op (Tguard (c, true));
                    walk rest
                | false, false -> raise Trace_bail))
        | Stmt.Return action :: _ -> (
            tcur.(i_ret) <- tcur.(i_ret) + 1;
            match action with
            | Stmt.Forward port_e -> (
                guard_load port_e;
                let port = sexpr tcur port_e in
                tcur.(i_alu) <- tcur.(i_alu) + 14;
                tcur.(i_move) <- tcur.(i_move) + 4;
                tcur.(i_store) <- tcur.(i_store) + 3;
                tcur.(i_mem) <- tcur.(i_mem) + 3;
                tcur.(i_branch) <- tcur.(i_branch) + 1;
                match port with
                | Kv p -> ((fun rt -> rt.out_port <- p), code_sent)
                | Sv s ->
                    ( (fun rt -> rt.out_port <- Array.unsafe_get rt.slots s),
                      code_sent )
                | Dv f -> ((fun rt -> rt.out_port <- f rt), code_sent))
            | Stmt.Drop ->
                tcur.(i_alu) <- tcur.(i_alu) + 4;
                tcur.(i_store) <- tcur.(i_store) + 1;
                tcur.(i_mem) <- tcur.(i_mem) + 1;
                ((fun (_ : srt) -> ()), code_dropped)
            | Stmt.Flood ->
                tcur.(i_alu) <- tcur.(i_alu) + 14;
                tcur.(i_move) <- tcur.(i_move) + 4;
                tcur.(i_store) <- tcur.(i_store) + 3;
                tcur.(i_mem) <- tcur.(i_mem) + 3;
                tcur.(i_branch) <- tcur.(i_branch) + 1;
                ((fun (_ : srt) -> ()), code_flooded))
        | (Stmt.While _ | Stmt.Call _) :: _ -> raise Trace_bail
      in
      match walk program.Program.body with
      | port_eval, tcode ->
          let chain = fuse_ops (List.rev !ops) in
          (* the path's whole charge, applied directly to the model —
             no per-packet bump/flush round-trip through [counts] *)
          let tcharge =
            let fs = ref [] in
            for i = n_counts - 1 downto 0 do
              let n = tcur.(i) in
              if n > 0 then
                fs :=
                  (if i = i_mem then fun rt -> rt.mbulk n
                   else
                     let k = Array.unsafe_get Hw.Cost.kind_of_index i in
                     fun rt -> rt.minstr k n)
                  :: !fs
            done;
            match !fs with
            | [] -> fun (_ : srt) -> ()
            | [ f ] -> f
            | fs ->
                let arr = Array.of_list fs in
                let n = Array.length arr in
                fun rt -> run_acts arr n 0 rt
          in
          let attempt =
            if !fast_ok then begin
              let commit =
                match List.rev !fast_commits with
                | [] -> None
                | [ f ] -> Some f
                | [ f; g ] ->
                    Some
                      (fun rt ->
                        f rt;
                        g rt)
                | fs ->
                    let arr = Array.of_list fs in
                    let n = Array.length arr in
                    Some (fun rt -> run_acts arr n 0 rt)
              in
              match commit with
              | None ->
                  fun rt ->
                    chain rt
                    && begin
                         port_eval rt;
                         tcharge rt;
                         true
                       end
              | Some commit ->
                  let need = !need_len in
                  fun rt ->
                    chain rt
                    && Net.Packet.length rt.packet >= need
                    && begin
                         port_eval rt;
                         commit rt;
                         tcharge rt;
                         true
                       end
            end
            else begin
              let sarr = Array.of_list (List.rev !stores) in
              let ns = Array.length sarr in
              fun rt ->
                chain rt
                && probe_stores sarr ns 0 rt
                && begin
                     port_eval rt;
                     commit_stores sarr ns 0 rt;
                     tcharge rt;
                     true
                   end
            end
          in
          Some (attempt, tcode)
      | exception Trace_bail -> None
    end
  in
  let in_port_slot = slot_of "in_port" and now_slot = slot_of "now" in
  let rt =
    {
      meter;
      packet = Net.Packet.create 0;
      slots = Array.make !next_slot 0;
      counts;
      minstr = Meter.model_instr meter;
      mmem = Meter.model_mem meter;
      mbulk =
        (match Meter.model_mem_bulk meter with
        | Some f -> f
        | None -> fun (_ : int) -> ());
      out_port = 0;
    }
  in
  let exec_general ~in_port ~now packet =
    rt.packet <- packet;
    Array.unsafe_set rt.slots in_port_slot in_port;
    Array.unsafe_set rt.slots now_slot now;
    if batch then rx_frame_b rt else rx_frame rt;
    match body rt with
    | code ->
        if code == k_next then begin
          flush rt;
          Concrete.stuck "program fell through without returning"
        end
        else begin
          (if code == code_dropped then
             if batch then tx_drop_frame_b rt else tx_drop_frame rt
           else if batch then tx_sent_frame_b rt
           else tx_sent_frame rt);
          flush rt;
          code
        end
    | exception e ->
        flush rt;
        raise e
  in
  let exec_fn =
    match trace with
    | None -> exec_general
    | Some (attempt, tcode) ->
        fun ~in_port ~now packet ->
          rt.packet <- packet;
          Array.unsafe_set rt.slots in_port_slot in_port;
          Array.unsafe_set rt.slots now_slot now;
          (* Until the attempt returns true it touches only scratch
             state (slots, out_port, store staging) and charges
             nothing, so a miss anywhere — guard, bounds, stuck — hands
             the untouched packet to the general body, which recharges
             from zero. *)
          let hit = try attempt rt with _ -> false in
          if hit then tcode else exec_general ~in_port ~now packet
  in
  let run_fn ?(in_port = 0) ?(now = 0) packet =
    let ic0 = Meter.ic meter and ma0 = Meter.ma meter in
    let cy0 = Meter.cycles meter in
    let code = exec_fn ~in_port ~now packet in
    let outcome =
      if code == code_sent then Concrete.Sent rt.out_port
      else if code == code_dropped then Concrete.Dropped
      else Concrete.Flooded
    in
    Concrete.record
      {
        Concrete.outcome;
        ic = Meter.ic meter - ic0;
        ma = Meter.ma meter - ma0;
        cycles = Meter.cycles meter - cy0;
      }
  in
  { specialized = true; run_fn; exec_fn; out_port_fn = (fun () -> rt.out_port) }

(* The generic-runner disposition: correctness-first, never zero-alloc. *)
let fallback ct ~meter ~mode =
  let run_fn = Compiled.runner ct ~meter ~mode in
  let last_port = ref 0 in
  let exec_fn ~in_port ~now packet =
    let r = run_fn ~in_port ~now packet in
    match r.Concrete.outcome with
    | Concrete.Sent p ->
        last_port := p;
        code_sent
    | Concrete.Dropped -> code_dropped
    | Concrete.Flooded -> code_flooded
  in
  { specialized = false; run_fn; exec_fn; out_port_fn = (fun () -> !last_port) }

(* Engine selection, one count per [bind] (never per packet): which
   disposition the stream got, and for a fallback the first reason
   [bind] found, in the order it checks them. *)
let c_specialized = Obs.Metrics.counter "exec.engine.specialized"
let c_tracing = Obs.Metrics.counter "exec.engine.fallback.tracing"
let c_coupled_mem = Obs.Metrics.counter "exec.engine.fallback.coupled_mem"
let c_analysis = Obs.Metrics.counter "exec.engine.fallback.analysis"
let c_no_fast_path = Obs.Metrics.counter "exec.engine.fallback.no_fast_path"

let bind ct ~meter ~mode =
  let fallback_for reason =
    Obs.Metrics.incr reason;
    fallback ct ~meter ~mode
  in
  if Meter.tracing meter then fallback_for c_tracing
  else if Meter.coupled_mem meter then fallback_for c_coupled_mem
  else
    match mode with
    | Concrete.Analysis _ -> fallback_for c_analysis
    | Concrete.Production dss -> (
        match build (Compiled.program ct) dss meter with
        | t ->
            Obs.Metrics.incr c_specialized;
            t
        | exception Not_specializable -> fallback_for c_no_fast_path)
