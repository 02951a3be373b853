let kind = "count_min"

type t = {
  rows : int;
  width : int;
  counters : int array;  (** rows * width, flattened *)
  base : int;
}

let create ~base ~rows ~width =
  if rows < 1 || rows > 8 then invalid_arg "Count_min.create: rows in 1..8";
  if width < 2 || width land (width - 1) <> 0 then
    invalid_arg "Count_min.create: width must be a power of two";
  { rows; width; counters = Array.make (rows * width) 0; base }

let rows t = t.rows
let width t = t.width

(* Row-seeded multiplicative hash with an avalanche finalizer — the
   width mask keeps only low bits, so high-bit key differences must be
   mixed down before masking.  Hashes the [len] key words at [a.(off)]
   in place, so the fast paths read them straight from the argv. *)
let slot_at t row (a : int array) ~off ~len =
  let h = ref ((row + 3) * 0x85ebca77 land max_int) in
  for j = off to off + len - 1 do
    h := ((!h * 0x9e3779b1) + a.(j)) land max_int
  done;
  let h = (!h lxor (!h lsr 23)) * 0x2545f491 land max_int in
  let h = h lxor (h lsr 29) in
  h land (t.width - 1)

let slot t row key = slot_at t row key ~off:0 ~len:(Array.length key)

let counter_addr t row s = t.base + (8 * ((row * t.width) + s))

(* Per row: hash (charged like the map's), one load, add, one store. *)
let charge_row t meter row s ~write =
  Costing.charge_hash meter ~key_len:5;
  Costing.charge_load meter ~addr:(counter_addr t row s) ();
  Costing.charge_alu meter 2;
  if write then Costing.charge_store meter ~addr:(counter_addr t row s) ()

let update t meter ~key =
  Costing.charge_alu meter 2;
  let est = ref max_int in
  for row = 0 to t.rows - 1 do
    let s = slot t row key in
    charge_row t meter row s ~write:true;
    let i = (row * t.width) + s in
    t.counters.(i) <- t.counters.(i) + 1;
    est := min !est t.counters.(i)
  done;
  Costing.charge_alu meter 1;
  !est

let estimate t meter ~key =
  Costing.charge_alu meter 2;
  let est = ref max_int in
  for row = 0 to t.rows - 1 do
    let s = slot t row key in
    charge_row t meter row s ~write:false;
    est := min !est t.counters.((row * t.width) + s)
  done;
  Costing.charge_alu meter 1;
  !est

let estimate_quiet t key =
  estimate t (Exec.Meter.create (Hw.Model.null ())) ~key

let decay t =
  Array.iteri (fun i c -> t.counters.(i) <- c / 2) t.counters

(* ---- specialized fast paths ----------------------------------------

   Sink twins of [update]/[estimate]; see {!Hash_map} for the
   discipline.  The 5-word key is hashed in place from the caller's
   argv, never copied out with [Array.sub]. *)

module S = Costing.Sink

let fast_charge_row t s row sl ~write =
  S.hash s ~key_len:5;
  S.load s ~addr:(counter_addr t row sl) ();
  S.alu s 2;
  if write then S.store s ~addr:(counter_addr t row sl) ()

let fast_update t s (a : int array) ~off =
  S.alu s 2;
  let est = ref max_int in
  for row = 0 to t.rows - 1 do
    let sl = slot_at t row a ~off ~len:5 in
    fast_charge_row t s row sl ~write:true;
    let i = (row * t.width) + sl in
    let c = t.counters.(i) + 1 in
    t.counters.(i) <- c;
    if c < !est then est := c
  done;
  S.alu s 1;
  !est

let fast_estimate t s (a : int array) ~off =
  S.alu s 2;
  let est = ref max_int in
  for row = 0 to t.rows - 1 do
    let sl = slot_at t row a ~off ~len:5 in
    fast_charge_row t s row sl ~write:false;
    let c = t.counters.((row * t.width) + sl) in
    if c < !est then est := c
  done;
  S.alu s 1;
  !est

let to_ds t =
  let call meter meth (args : int array) =
    let key = Array.sub args 0 5 in
    match meth with
    | "update" -> update t meter ~key
    | "estimate" -> estimate t meter ~key
    | other -> invalid_arg ("count_min: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "update" -> Some (fun (args : int array) -> fast_update t s args ~off:0)
    | "estimate" ->
        Some (fun (args : int array) -> fast_estimate t s args ~off:0)
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  (* per row: hash (3*5+1 = 16 IC) + load + 2 alu (+store) *)
  let vec ~rows ~write =
    let per_row = 16 + 1 + 2 + (if write then 1 else 0) in
    let ic = (rows * per_row) + 3 in
    let ma = rows * (if write then 2 else 1) in
    Cost_vec.make ~ic:(Perf_expr.const ic) ~ma:(Perf_expr.const ma)
      ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const ic)
                 ~ma:(Perf_expr.const (rows * (if write then 2 else 1))))

  let contract ~rows =
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"update"
        [ branch ~tag:"ok" ~note:"d hashed increments, min estimate"
            (vec ~rows ~write:true) ];
      make ~ds_kind:kind ~meth:"estimate"
        [ branch ~tag:"ok" ~note:"d hashed reads, min estimate"
            (vec ~rows ~write:false) ];
    ]
end
