(* Node layout: node [i] is one 64-byte line at [entries_base + 64*i],
   holding the key words, the value and the chain link.  Buckets are an
   array of 8-byte heads at [base]. *)

type t = {
  key_len : int;
  capacity : int;
  buckets : int;
  bmask : int;
      (** [buckets - 1] when [buckets] is a power of two (the bucket
          reduction is then a mask, same result as [mod]), else 0 *)
  bucket_base : int;
  entries_base : int;
  keys : int array;  (** capacity * key_len, flattened *)
  values : int array;
  next : int array;  (** chain link, or -1 *)
  head : int array;  (** bucket heads, node index or -1 *)
  occupied : bool array;
  mutable free : int;  (** free-list head through [next] *)
  mutable size : int;
  mutable seed : int;
  (* probe counters of the last fast walk, kept here so the fast entry
     points can return a bare int (no probe record allocation) *)
  mutable fw_pred : int;
  mutable fw_collisions : int;
  mutable fw_traversals : int;
  mutable replaced : int;
      (** the value the last in-place update overwrote, for callers that
          store a resource in the value and must release the old one *)
}

let node_size = 64

let create ?(seed = 17) ~base ~key_len ~capacity ~buckets () =
  if key_len < 1 || key_len > 6 then
    invalid_arg "Hash_map.create: key_len must be in 1..6";
  if capacity < 1 || buckets < 1 then
    invalid_arg "Hash_map.create: bad geometry";
  let next = Array.init capacity (fun i -> i + 1) in
  next.(capacity - 1) <- -1;
  {
    key_len;
    capacity;
    buckets;
    bmask = (if buckets land (buckets - 1) = 0 then buckets - 1 else 0);
    bucket_base = base;
    entries_base = base + (8 * buckets);
    keys = Array.make (capacity * key_len) 0;
    values = Array.make capacity 0;
    next;
    head = Array.make buckets (-1);
    occupied = Array.make capacity false;
    free = 0;
    size = 0;
    seed;
    fw_pred = -1;
    fw_collisions = 0;
    fw_traversals = 0;
    replaced = -1;
  }

let capacity t = t.capacity
let size t = t.size
let replaced t = t.replaced
let key_len t = t.key_len
let node_addr t i = t.entries_base + (node_size * i)
let bucket_addr t b = t.bucket_base + (8 * b)

let seed t = t.seed
let buckets t = t.buckets

let hash_of_key t key =
  let h =
    Array.fold_left
      (fun acc w -> ((acc * 0x9e3779b1) + w) land max_int)
      (t.seed * 0x85ebca77 land max_int)
      key
  in
  h mod t.buckets

type probe = { result : int; collisions : int; traversals : int }

let observe t meter ~collisions ~traversals =
  ignore t;
  Exec.Meter.observe meter Perf.Pcv.collisions collisions;
  Exec.Meter.observe meter Perf.Pcv.traversals traversals

(* Charge the shared probe prologue: entry setup, hash, bucket head. *)
let charge_prologue t meter b =
  Costing.charge_alu meter 2;
  Costing.charge_hash meter ~key_len:t.key_len;
  Costing.charge_alu meter 1;
  Costing.charge_load meter ~addr:(bucket_addr t b) ()

let charge_epilogue meter =
  Costing.charge_alu meter 1;
  Costing.charge_branch meter 1

(* Branchless fixed-length key compare (as a C memcmp over a fixed-size
   struct compiles to): every word is loaded and xor-accumulated, one
   branch at the end. *)
let compare_key t meter key i =
  let addr = node_addr t i in
  let diff = ref 0 in
  for w = 0 to t.key_len - 1 do
    Costing.charge_load meter ~addr:(addr + (8 * w)) ();
    Costing.charge_alu meter 1;
    diff := !diff lor (t.keys.((i * t.key_len) + w) lxor key.(w))
  done;
  Costing.charge_branch meter 1;
  !diff = 0

let charge_visit t meter i =
  Costing.charge_load meter ~dependent:true ~addr:(node_addr t i) ();
  Costing.charge_alu meter 1;
  Costing.charge_branch meter 1

(* Walk the chain of bucket [b] looking for [key].  Returns the node, its
   predecessor, and the probe counters. *)
let walk t meter key b =
  let rec loop i pred collisions traversals =
    if i < 0 then (-1, pred, collisions, traversals)
    else begin
      charge_visit t meter i;
      if compare_key t meter key i then (i, pred, collisions, traversals + 1)
      else loop t.next.(i) i (collisions + 1) (traversals + 1)
    end
  in
  loop t.head.(b) (-1) 0 0

let check_key t key =
  if Array.length key <> t.key_len then
    invalid_arg "Hash_map: key length mismatch"

let get t meter key =
  check_key t key;
  let b = hash_of_key t key in
  charge_prologue t meter b;
  let node, _pred, collisions, traversals = walk t meter key b in
  charge_epilogue meter;
  observe t meter ~collisions ~traversals;
  { result = (if node >= 0 then node else -1); collisions; traversals }

let value_of t meter i =
  Costing.charge_load meter ~addr:(node_addr t i + 56) ();
  t.values.(i)

let set_value t meter i v =
  Costing.charge_store meter ~addr:(node_addr t i + 56) ();
  t.values.(i) <- v

let put t meter key value =
  check_key t key;
  let b = hash_of_key t key in
  charge_prologue t meter b;
  let node, _pred, collisions, traversals = walk t meter key b in
  let result =
    if node >= 0 then begin
      (* update in place *)
      Costing.charge_store meter ~addr:(node_addr t node + 56) ();
      Costing.charge_alu meter 1;
      t.replaced <- t.values.(node);
      t.values.(node) <- value;
      node
    end
    else begin
      Costing.charge_branch meter 1;
      Costing.charge_alu meter 1;
      if t.free < 0 then -1
      else begin
        let i = t.free in
        Costing.charge_load meter ~addr:(node_addr t i) ();
        t.free <- t.next.(i);
        Costing.charge_move meter 2;
        let addr = node_addr t i in
        for w = 0 to t.key_len - 1 do
          Costing.charge_store meter ~addr:(addr + (8 * w)) ();
          t.keys.((i * t.key_len) + w) <- key.(w)
        done;
        Costing.charge_store meter ~addr:(addr + 56) ();
        t.values.(i) <- value;
        Costing.charge_store meter ~addr:(addr + 48) ();
        t.next.(i) <- t.head.(b);
        Costing.charge_store meter ~addr:(bucket_addr t b) ();
        t.head.(b) <- i;
        t.occupied.(i) <- true;
        Costing.charge_alu meter 1;
        t.size <- t.size + 1;
        i
      end
    end
  in
  charge_epilogue meter;
  observe t meter ~collisions ~traversals;
  { result; collisions; traversals }

let remove t meter key =
  check_key t key;
  let b = hash_of_key t key in
  charge_prologue t meter b;
  (* pred tracking costs one extra move per visited node *)
  let rec loop i pred collisions traversals =
    if i < 0 then (-1, pred, collisions, traversals)
    else begin
      charge_visit t meter i;
      Costing.charge_move meter 1;
      if compare_key t meter key i then (i, pred, collisions, traversals + 1)
      else loop t.next.(i) i (collisions + 1) (traversals + 1)
    end
  in
  let node, pred, collisions, traversals = loop t.head.(b) (-1) 0 0 in
  if node >= 0 then begin
    (if pred < 0 then begin
       Costing.charge_store meter ~addr:(bucket_addr t b) ();
       t.head.(b) <- t.next.(node)
     end
     else begin
       Costing.charge_store meter ~addr:(node_addr t pred + 48) ();
       t.next.(pred) <- t.next.(node)
     end);
    Costing.charge_store meter ~addr:(node_addr t node + 48) ();
    Costing.charge_move meter 1;
    t.next.(node) <- t.free;
    t.free <- node;
    t.occupied.(node) <- false;
    Costing.charge_alu meter 1;
    t.size <- t.size - 1
  end;
  charge_epilogue meter;
  observe t meter ~collisions ~traversals;
  { result = node; collisions; traversals }

let key_words t i = Array.sub t.keys (i * t.key_len) t.key_len
let key_word t i w = t.keys.((i * t.key_len) + w)

(* ---- specialized fast paths ----------------------------------------

   Sink twins of get/put/remove/reseed: same state mutations, same PCV
   observations and charge-for-charge the same costs as the metered
   versions above, but keys are read in place from the caller's array
   (argv or [t.keys] itself — no copies) and instruction charges bump
   the sink's deferred counters.  Kept adjacent to their twins; any edit
   to a metered operation must be mirrored here (the differential oracle
   and the golden parity tests catch drift). *)

module S = Costing.Sink

let last_fast_traversals t = t.fw_traversals

let fast_hash t (a : int array) off =
  let h = ref (t.seed * 0x85ebca77 land max_int) in
  for w = 0 to t.key_len - 1 do
    h := ((!h * 0x9e3779b1) + Array.unsafe_get a (off + w)) land max_int
  done;
  if t.bmask > 0 then !h land t.bmask else !h mod t.buckets

let fast_prologue t s b =
  if S.batched s then begin
    (* same charges as the metered arm, folded: alu 2 + hash
       (mul k, alu 2k+1) + alu 1 + the bucket-head load *)
    S.mul s t.key_len;
    S.alu s ((2 * t.key_len) + 4);
    S.loads_b s 1
  end
  else begin
    S.alu s 2;
    S.hash s ~key_len:t.key_len;
    S.alu s 1;
    S.load s ~addr:(bucket_addr t b) ()
  end

let fast_epilogue s =
  S.alu s 1;
  S.branch s 1

let fast_compare t s (key : int array) off i =
  let addr = node_addr t i in
  let diff = ref 0 in
  for w = 0 to t.key_len - 1 do
    S.load s ~addr:(addr + (8 * w)) ();
    S.alu s 1;
    diff := !diff lor (t.keys.((i * t.key_len) + w) lxor key.(off + w))
  done;
  S.branch s 1;
  !diff = 0

let fast_visit t s i =
  S.load s ~dependent:true ~addr:(node_addr t i) ();
  S.alu s 1;
  S.branch s 1

(* Key equality without charges, for the batched walk (whose per-node
   charges are bulk-counted up front).  The metered compare reads every
   word unconditionally, so the batched counts do too; only the data
   comparison may exit early. *)
let rec key_eq_from t (key : int array) off i w =
  w >= t.key_len
  || Array.unsafe_get t.keys ((i * t.key_len) + w)
     = Array.unsafe_get key (off + w)
     && key_eq_from t key off i (w + 1)

(* Top-level recursion, not a local closure: the walk runs on the
   zero-allocation path, and a local [let rec] capturing its context
   would allocate a closure block per probe. *)
let rec fast_walk_from t s key off ~pred_move i pred collisions traversals =
  if i < 0 then begin
    t.fw_pred <- pred;
    t.fw_collisions <- collisions;
    t.fw_traversals <- traversals;
    -1
  end
  else begin
    fast_visit t s i;
    if pred_move then S.move s 1;
    if fast_compare t s key off i then begin
      t.fw_pred <- pred;
      t.fw_collisions <- collisions;
      t.fw_traversals <- traversals + 1;
      i
    end
    else
      fast_walk_from t s key off ~pred_move t.next.(i) i (collisions + 1)
        (traversals + 1)
  end

(* Batched twin of [fast_walk_from]: per node, [fast_visit] (one
   dependent load, alu, branch) plus [fast_compare] (key_len loads and
   alus, branch) fold into three bulk bumps. *)
let rec fast_walk_from_b t s key off ~pred_move i pred collisions traversals =
  if i < 0 then begin
    t.fw_pred <- pred;
    t.fw_collisions <- collisions;
    t.fw_traversals <- traversals;
    -1
  end
  else begin
    S.loads_b s (1 + t.key_len);
    S.alu s (1 + t.key_len);
    S.branch s 2;
    if pred_move then S.move s 1;
    if key_eq_from t key off i 0 then begin
      t.fw_pred <- pred;
      t.fw_collisions <- collisions;
      t.fw_traversals <- traversals + 1;
      i
    end
    else
      fast_walk_from_b t s key off ~pred_move t.next.(i) i (collisions + 1)
        (traversals + 1)
  end

let fast_walk t s key off b ~pred_move =
  if S.batched s then fast_walk_from_b t s key off ~pred_move t.head.(b) (-1) 0 0
  else fast_walk_from t s key off ~pred_move t.head.(b) (-1) 0 0

let fast_observe t s =
  S.observe s Perf.Pcv.collisions t.fw_collisions;
  S.observe s Perf.Pcv.traversals t.fw_traversals

let fast_get t s (key : int array) ~off =
  let b = fast_hash t key off in
  fast_prologue t s b;
  let node = fast_walk t s key off b ~pred_move:false in
  fast_epilogue s;
  fast_observe t s;
  node

let fast_value_of t s i =
  S.load s ~addr:(node_addr t i + 56) ();
  t.values.(i)

let fast_set_value t s i v =
  S.store s ~addr:(node_addr t i + 56) ();
  t.values.(i) <- v

let fast_put t s (key : int array) ~off value =
  let b = fast_hash t key off in
  fast_prologue t s b;
  let node = fast_walk t s key off b ~pred_move:false in
  let result =
    if node >= 0 then begin
      S.store s ~addr:(node_addr t node + 56) ();
      S.alu s 1;
      t.replaced <- t.values.(node);
      t.values.(node) <- value;
      node
    end
    else begin
      S.branch s 1;
      S.alu s 1;
      if t.free < 0 then -1
      else begin
        let i = t.free in
        S.load s ~addr:(node_addr t i) ();
        t.free <- t.next.(i);
        S.move s 2;
        let addr = node_addr t i in
        for w = 0 to t.key_len - 1 do
          S.store s ~addr:(addr + (8 * w)) ();
          t.keys.((i * t.key_len) + w) <- key.(off + w)
        done;
        S.store s ~addr:(addr + 56) ();
        t.values.(i) <- value;
        S.store s ~addr:(addr + 48) ();
        t.next.(i) <- t.head.(b);
        S.store s ~addr:(bucket_addr t b) ();
        t.head.(b) <- i;
        t.occupied.(i) <- true;
        S.alu s 1;
        t.size <- t.size + 1;
        i
      end
    end
  in
  fast_epilogue s;
  fast_observe t s;
  result

(* Remove the entry at node [n], reading its key in place from [t.keys]
   (what the flow table's expiry does, sans the [Array.sub]). *)
let fast_remove_node t s n =
  let off = n * t.key_len in
  let b = fast_hash t t.keys off in
  fast_prologue t s b;
  let node = fast_walk t s t.keys off b ~pred_move:true in
  let pred = t.fw_pred in
  if node >= 0 then begin
    (if pred < 0 then begin
       S.store s ~addr:(bucket_addr t b) ();
       t.head.(b) <- t.next.(node)
     end
     else begin
       S.store s ~addr:(node_addr t pred + 48) ();
       t.next.(pred) <- t.next.(node)
     end);
    S.store s ~addr:(node_addr t node + 48) ();
    S.move s 1;
    t.next.(node) <- t.free;
    t.free <- node;
    t.occupied.(node) <- false;
    S.alu s 1;
    t.size <- t.size - 1
  end;
  fast_epilogue s;
  fast_observe t s;
  node

let rec fast_chain_visit t s j =
  if j >= 0 then begin
    fast_visit t s j;
    fast_chain_visit t s t.next.(j)
  end

let fast_reseed t s ~seed =
  t.seed <- seed;
  for b = 0 to t.buckets - 1 do
    S.store s ~addr:(bucket_addr t b) ();
    t.head.(b) <- -1
  done;
  for i = 0 to t.capacity - 1 do
    S.branch s 1;
    if t.occupied.(i) then begin
      for w = 0 to t.key_len - 1 do
        S.load s ~addr:(node_addr t i + (8 * w)) ()
      done;
      S.hash s ~key_len:t.key_len;
      let b = fast_hash t t.keys (i * t.key_len) in
      S.load s ~addr:(bucket_addr t b) ();
      fast_chain_visit t s t.head.(b);
      S.store s ~addr:(node_addr t i + 48) ();
      t.next.(i) <- t.head.(b);
      S.store s ~addr:(bucket_addr t b) ();
      t.head.(b) <- i
    end
  done

let reseed t meter ~seed =
  t.seed <- seed;
  (* clear every bucket head *)
  for b = 0 to t.buckets - 1 do
    Costing.charge_store meter ~addr:(bucket_addr t b) ();
    t.head.(b) <- -1
  done;
  (* re-chain each resident entry; the duplicate-check walk over the new
     chain is what makes rehashing cost grow with both occupancy and
     chain length *)
  for i = 0 to t.capacity - 1 do
    Costing.charge_branch meter 1;
    if t.occupied.(i) then begin
      let key = key_words t i in
      for w = 0 to t.key_len - 1 do
        Costing.charge_load meter ~addr:(node_addr t i + (8 * w)) ()
      done;
      Costing.charge_hash meter ~key_len:t.key_len;
      let b = hash_of_key t key in
      Costing.charge_load meter ~addr:(bucket_addr t b) ();
      let rec walk j =
        if j >= 0 then begin
          charge_visit t meter j;
          walk t.next.(j)
        end
      in
      walk t.head.(b);
      Costing.charge_store meter ~addr:(node_addr t i + 48) ();
      t.next.(i) <- t.head.(b);
      Costing.charge_store meter ~addr:(bucket_addr t b) ();
      t.head.(b) <- i
    end
  done

let fold f t init =
  let acc = ref init in
  for i = 0 to t.capacity - 1 do
    if t.occupied.(i) then acc := f i ~acc:!acc
  done;
  !acc

module Recipe = struct
  open Perf

  let c = Pcv.collisions
  let t_ = Pcv.traversals

  (* IC/MA of the probe shared by get/put/remove:
     prologue (3k+5 instr, 1 access) + per visit (3 instr, 1 access)
     + per compare (2k+1 instr, k accesses) + epilogue (2 instr). *)
  let probe ~key_len ~per_visit_extra =
    let k = key_len in
    let ic =
      Perf_expr.sum
        [
          Perf_expr.const ((3 * k) + 7);
          Perf_expr.term (3 + per_visit_extra) [ t_ ];
          Perf_expr.term ((2 * k) + 1) [ c ];
        ]
    in
    let ma =
      Perf_expr.sum
        [ Perf_expr.const 1; Perf_expr.pcv t_; Perf_expr.term k [ c ] ]
    in
    (ic, ma)

  (* Distinct cache lines touched: the bucket head plus one line per
     visited node, plus [extra] lines for the op's own writes. *)
  let lines ~extra =
    Perf_expr.add_const (1 + extra) (Perf_expr.pcv t_)

  let vec ~ic ~ma ~extra_lines =
    Cost_vec.make ~ic ~ma
      ~cycles:(Costing.cycles_upper ~ic ~ma:(lines ~extra:extra_lines))

  let get_hit ~key_len =
    (* successful compare + the caller's value read *)
    let k = key_len in
    let ic, ma = probe ~key_len ~per_visit_extra:0 in
    vec
      ~ic:(Perf_expr.add_const ((2 * k) + 1 + 1) ic)
      ~ma:(Perf_expr.add_const (k + 1) ma)
      ~extra_lines:0

  let get_miss ~key_len =
    let ic, ma = probe ~key_len ~per_visit_extra:0 in
    vec ~ic ~ma ~extra_lines:0

  let put_update ~key_len =
    let k = key_len in
    let ic, ma = probe ~key_len ~per_visit_extra:0 in
    vec
      ~ic:(Perf_expr.add_const ((2 * k) + 1 + 2) ic)
      ~ma:(Perf_expr.add_const (k + 1) ma)
      ~extra_lines:0

  let put_new ~key_len =
    let k = key_len in
    let ic, ma = probe ~key_len ~per_visit_extra:0 in
    vec
      ~ic:(Perf_expr.add_const (2 + 1 + 2 + (k + 2) + 1 + 1) ic)
      ~ma:(Perf_expr.add_const (1 + (k + 2) + 1) ma)
      ~extra_lines:2

  let put_full ~key_len =
    let ic, ma = probe ~key_len ~per_visit_extra:0 in
    vec ~ic:(Perf_expr.add_const 2 ic) ~ma ~extra_lines:0

  let remove_found ~key_len =
    let k = key_len in
    let ic, ma = probe ~key_len ~per_visit_extra:1 in
    vec
      ~ic:(Perf_expr.add_const ((2 * k) + 1 + 4) ic)
      ~ma:(Perf_expr.add_const (k + 2) ma)
      ~extra_lines:2

  let remove_miss ~key_len =
    (* the pred-tracking walk runs to the end of the chain and finds
       nothing: the probe with its extra move per visit, no unlink *)
    let ic, ma = probe ~key_len ~per_visit_extra:1 in
    vec ~ic ~ma ~extra_lines:0

  let contract ~key_len =
    let open Ds_contract in
    [
      make ~ds_kind:"hash_map" ~meth:"get"
        [
          branch ~tag:"hit" ~note:"key present (value read included)"
            (get_hit ~key_len);
          branch ~tag:"miss" ~note:"key absent" (get_miss ~key_len);
        ];
      make ~ds_kind:"hash_map" ~meth:"put"
        [
          branch ~tag:"new" ~note:"fresh insert" (put_new ~key_len);
          branch ~tag:"update" ~note:"key present, value overwritten"
            (put_update ~key_len);
          branch ~tag:"full" ~note:"map full, not inserted"
            (put_full ~key_len);
        ];
      make ~ds_kind:"hash_map" ~meth:"remove"
        [
          branch ~tag:"found" ~note:"key present, unlinked"
            (remove_found ~key_len);
          branch ~tag:"absent" ~note:"key absent" (remove_miss ~key_len);
        ];
    ]
end
