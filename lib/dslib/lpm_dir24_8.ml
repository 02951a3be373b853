let kind = "lpm"

(* A sparse int -> int table: open addressing with linear probing over
   power-of-two arrays, kept at most half full.  Keys are non-negative
   (slot indices), so -1 marks an empty slot.  Entries are only ever
   added or replaced — routes are never withdrawn — so there is no
   deletion.  A probe is a multiplicative hash and a few int compares:
   no polymorphic hash or compare, and nothing allocated. *)
module Itbl = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable bits : int;
    mutable size : int;
  }

  let create bits =
    { keys = Array.make (1 lsl bits) (-1); vals = Array.make (1 lsl bits) 0;
      bits; size = 0 }

  (* Fibonacci hashing: the top [bits] bits of the 63-bit product *)
  let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr (63 - t.bits)

  let rec probe keys mask k i =
    let k' = Array.unsafe_get keys i in
    if k' = k || k' < 0 then i else probe keys mask k ((i + 1) land mask)

  let slot t k = probe t.keys ((1 lsl t.bits) - 1) k (home t k)

  let find t k ~default =
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
    else default

  let mem t k = t.keys.(slot t k) = k

  let rec replace t k v =
    let i = slot t k in
    if t.keys.(i) = k then t.vals.(i) <- v
    else if 2 * (t.size + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.bits <- t.bits + 1;
      t.keys <- Array.make (1 lsl t.bits) (-1);
      t.vals <- Array.make (1 lsl t.bits) 0;
      t.size <- 0;
      Array.iteri (fun j k -> if k >= 0 then replace t k vals.(j)) keys;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.size <- t.size + 1
    end
end

(* tbl24 entries: port, or (0x8000 lor group) when extended to tbl8.
   Backing storage is sparse — only the address arithmetic needs to
   look like the 64 MB DPDK layout. *)
type t = {
  tbl24 : Itbl.t;
  tbl8 : Itbl.t;
  base : int;
  tbl8_base : int;
  default_port : int;
  mutable next_group : int;
}

let extended_flag = 0x8000

let create ~base ~default_port =
  {
    tbl24 = Itbl.create 9;
    tbl8 = Itbl.create 4;
    base;
    tbl8_base = base + (16 * 1024 * 1024);
    default_port;
    next_group = 0;
  }

let tbl24_get t i = Itbl.find t.tbl24 i ~default:t.default_port
let tbl8_get t i = Itbl.find t.tbl8 i ~default:t.default_port

let add_route t ~prefix ~len ~port =
  if len < 10 || len > 32 then
    invalid_arg "Lpm_dir24_8.add_route: len must be in 10..32";
  if len <= 24 then begin
    let first = prefix lsr 8 in
    let count = 1 lsl (24 - len) in
    for i = first to first + count - 1 do
      (* never clobber an extended entry installed by a longer prefix *)
      if
        not (Itbl.mem t.tbl24 i && tbl24_get t i land extended_flag <> 0)
      then Itbl.replace t.tbl24 i port
    done
  end
  else begin
    let slot24 = prefix lsr 8 in
    let existing = tbl24_get t slot24 in
    let group =
      if Itbl.mem t.tbl24 slot24 && existing land extended_flag <> 0 then
        existing land lnot extended_flag
      else begin
        let g = t.next_group in
        t.next_group <- g + 1;
        (* seed the new group with the previous shorter-prefix port *)
        for b = 0 to 255 do
          Itbl.replace t.tbl8 ((g * 256) + b) existing
        done;
        Itbl.replace t.tbl24 slot24 (extended_flag lor g);
        g
      end
    in
    let first = prefix land 0xff in
    let count = 1 lsl (32 - len) in
    for b = first to first + count - 1 do
      Itbl.replace t.tbl8 ((group * 256) + b) port
    done
  end

let lookup t meter ip =
  Costing.charge_alu meter 2;
  let slot24 = ip lsr 8 in
  Costing.charge_load meter ~addr:(t.base + (2 * slot24)) ();
  Costing.charge_branch meter 1;
  let entry = tbl24_get t slot24 in
  if entry land extended_flag = 0 then begin
    Exec.Meter.observe meter Perf.Pcv.prefix_len 24;
    Costing.charge_alu meter 1;
    entry
  end
  else begin
    let group = entry land lnot extended_flag in
    Costing.charge_alu meter 3;
    let slot8 = (group * 256) + (ip land 0xff) in
    Costing.charge_load meter ~dependent:true ~addr:(t.tbl8_base + slot8) ();
    Costing.charge_alu meter 1;
    Exec.Meter.observe meter Perf.Pcv.prefix_len 32;
    tbl8_get t slot8
  end

let lookup_quiet t ip =
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  lookup t meter ip

let uses_tbl8 t ip = tbl24_get t (ip lsr 8) land extended_flag <> 0

(* The first tier is a fixed 16 MiB reservation (the address arithmetic in
   [lookup] places [tbl8_base] at base + 16 MiB); each second-tier group
   spans 256 consecutive byte slots. *)
let footprint_bytes t = (16 * 1024 * 1024) + (256 * t.next_group)

(* ---- specialized fast path ----------------------------------------

   Sink twin of [lookup]; see {!Hash_map} for the discipline. *)

module S = Costing.Sink

let fast_lookup t s ip =
  S.alu s 2;
  let slot24 = ip lsr 8 in
  S.load s ~addr:(t.base + (2 * slot24)) ();
  S.branch s 1;
  let entry = tbl24_get t slot24 in
  if entry land extended_flag = 0 then begin
    S.observe s Perf.Pcv.prefix_len 24;
    S.alu s 1;
    entry
  end
  else begin
    let group = entry land lnot extended_flag in
    S.alu s 3;
    let slot8 = (group * 256) + (ip land 0xff) in
    S.load s ~dependent:true ~addr:(t.tbl8_base + slot8) ();
    S.alu s 1;
    S.observe s Perf.Pcv.prefix_len 32;
    tbl8_get t slot8
  end

let to_ds t =
  let call meter meth (args : int array) =
    match meth with
    | "lookup" -> lookup t meter args.(0)
    | other -> invalid_arg ("lpm: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "lookup" -> Some (fun (args : int array) -> fast_lookup t s args.(0))
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  let vec ~ic ~ma ~lines =
    Cost_vec.make ~ic:(Perf_expr.const ic) ~ma:(Perf_expr.const ma)
      ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const ic)
                 ~ma:(Perf_expr.const lines))

  let contract =
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"lookup"
        [
          branch ~tag:"short" ~note:"matched prefix <= 24 bits: one lookup"
            (vec ~ic:5 ~ma:1 ~lines:1);
          branch ~tag:"long" ~note:"matched prefix > 24 bits: two lookups"
            (vec ~ic:9 ~ma:2 ~lines:2);
        ];
    ]
end
