(* Tests for the hardware models (lib/hw). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_cache_basic () =
  let cache = Hw.Cache.create ~size_bytes:1024 ~assoc:2 in
  check_bool "cold miss" false (Hw.Cache.access cache 0);
  check_bool "warm hit" true (Hw.Cache.access cache 0);
  check_bool "same line hit" true (Hw.Cache.access cache 63);
  check_bool "next line miss" false (Hw.Cache.access cache 64);
  let hits, misses = Hw.Cache.stats cache in
  check_int "hits" 2 hits;
  check_int "misses" 2 misses

let test_cache_lru_eviction () =
  (* 1024B, 2-way, 64B lines → 8 sets; lines 0, 8, 16 map to set 0 *)
  let cache = Hw.Cache.create ~size_bytes:1024 ~assoc:2 in
  let addr line = line * 64 in
  ignore (Hw.Cache.access cache (addr 0));
  ignore (Hw.Cache.access cache (addr 8));
  ignore (Hw.Cache.access cache (addr 0)) (* promote line 0 *);
  ignore (Hw.Cache.access cache (addr 16)) (* evicts line 8 (LRU) *);
  check_bool "line 0 survives" true (Hw.Cache.probe cache (addr 0));
  check_bool "line 8 evicted" false (Hw.Cache.probe cache (addr 8));
  check_bool "line 16 present" true (Hw.Cache.probe cache (addr 16))

let test_cache_remove_insert () =
  let cache = Hw.Cache.create ~size_bytes:1024 ~assoc:2 in
  Hw.Cache.insert cache 128;
  check_bool "inserted" true (Hw.Cache.probe cache 128);
  Hw.Cache.remove cache 128;
  check_bool "removed" false (Hw.Cache.probe cache 128);
  Hw.Cache.remove cache 128 (* idempotent *);
  check_bool "still absent" false (Hw.Cache.probe cache 128)

let test_cache_geometry () =
  match Hw.Cache.create ~size_bytes:100 ~assoc:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad geometry accepted"

(* Differential test of Hw.Cache against a list-based LRU reference:
   each set is a list of line tags, most recently used first. *)
module Ref_cache = struct
  type t = {
    sets : int list array;
    assoc : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~size_bytes ~assoc =
    let set_count = size_bytes / 64 / assoc in
    { sets = Array.make set_count []; assoc; hits = 0; misses = 0 }

  let idx t line = line mod Array.length t.sets
  let probe t addr = List.mem (addr / 64) t.sets.(idx t (addr / 64))

  let to_front t line =
    let i = idx t line in
    let rest = List.filter (( <> ) line) t.sets.(i) in
    t.sets.(i) <- List.filteri (fun k _ -> k < t.assoc) (line :: rest)

  let access t addr =
    let hit = probe t addr in
    to_front t (addr / 64);
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    hit

  let insert t addr = to_front t (addr / 64)

  let remove t addr =
    let line = addr / 64 in
    let i = idx t line in
    t.sets.(i) <- List.filter (( <> ) line) t.sets.(i)

  let clear t =
    Array.fill t.sets 0 (Array.length t.sets) [];
    t.hits <- 0;
    t.misses <- 0
end

(* [(size_bytes, assoc)]: 4, 3, 3, 5, 1, 16, 128, 100 and 3 sets.  The
   3-, 5- and 100-set geometries take the general [mod] path; the last
   three spread their sets over several tag arrays (the 100-set and the
   20-way ones with a partial last array). *)
let cache_geometries =
  [| (64 * 4, 1); (64 * 6, 2); (64 * 12, 4); (64 * 10, 2); (64 * 8, 8);
     (64 * 32, 2); (64 * 256, 2); (64 * 200, 2); (64 * 60, 20) |]

let prop_cache_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"cache matches a list-based LRU reference"
    QCheck2.Gen.(
      pair
        (int_range 0 (Array.length cache_geometries - 1))
        (list_size (int_range 1 200)
           (triple (int_range 0 20) (int_range 0 4095) (int_range 0 63))))
    (fun (g, ops) ->
      let size_bytes, assoc = cache_geometries.(g) in
      let c = Hw.Cache.create ~size_bytes ~assoc in
      let r = Ref_cache.create ~size_bytes ~assoc in
      (* three lines per way: enough reuse to hit, enough to evict *)
      let span = 3 * size_bytes / 64 in
      let touched = ref [] in
      List.for_all
        (fun (op, line, offset) ->
          let addr = (line mod span * 64) + offset in
          touched := addr :: !touched;
          let same_result =
            match op with
            | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 ->
                Hw.Cache.access c addr = Ref_cache.access r addr
            | 10 | 11 | 12 | 13 ->
                Hw.Cache.probe c addr = Ref_cache.probe r addr
            | 14 | 15 | 16 ->
                Hw.Cache.insert c addr;
                Ref_cache.insert r addr;
                true
            | 17 | 18 | 19 ->
                Hw.Cache.remove c addr;
                Ref_cache.remove r addr;
                true
            | _ ->
                Hw.Cache.clear c;
                Ref_cache.clear r;
                true
          in
          same_result
          && Hw.Cache.stats c = (r.Ref_cache.hits, r.Ref_cache.misses)
          && List.for_all
               (fun a -> Hw.Cache.probe c a = Ref_cache.probe r a)
               !touched)
        ops)

let test_conservative () =
  let m = Hw.Conservative.create () in
  Hw.Conservative.instr m Hw.Cost.Alu 10;
  check_int "alu cycles" (10 * Hw.Cost.worst_case_cycles Hw.Cost.Alu)
    (Hw.Conservative.cycles m);
  let before = Hw.Conservative.cycles m in
  Hw.Conservative.mem m ~addr:0x1000 ~write:false ~dependent:false;
  check_int "cold access costs DRAM" (before + Hw.Cost.dram_cycles)
    (Hw.Conservative.cycles m);
  let before = Hw.Conservative.cycles m in
  Hw.Conservative.mem m ~addr:0x1001 ~write:false ~dependent:false;
  check_int "proven L1 hit" (before + Hw.Cost.l1_hit_cycles)
    (Hw.Conservative.cycles m);
  check_int "counts" 2 (Hw.Conservative.mem_count m)

let test_realistic_warm () =
  let m = Hw.Realistic.create () in
  Hw.Realistic.mem m ~addr:0x5000 ~write:false ~dependent:false;
  let after_first = Hw.Realistic.cycles m in
  Hw.Realistic.mem m ~addr:0x5000 ~write:false ~dependent:false;
  check_int "second access is an L1 hit"
    (after_first + Hw.Cost.l1_hit_cycles)
    (Hw.Realistic.cycles m)

let test_realistic_prefetch () =
  (* A long sequential dependent walk should cost far less per line than
     DRAM once the prefetcher locks on. *)
  let sequential = Hw.Realistic.create () in
  for i = 0 to 63 do
    Hw.Realistic.mem sequential ~addr:(0x100000 + (i * 64)) ~write:false
      ~dependent:true
  done;
  let random = Hw.Realistic.create () in
  (* same lines, shuffled stride so no prefetch *)
  for i = 0 to 63 do
    let j = i * 17 mod 64 in
    Hw.Realistic.mem random ~addr:(0x200000 + (j * 64)) ~write:false
      ~dependent:true
  done;
  check_bool "prefetching pays" true
    (Hw.Realistic.cycles sequential < Hw.Realistic.cycles random / 2)

let test_realistic_boundary () =
  let m = Hw.Realistic.create () in
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  let warm = Hw.Realistic.cycles m in
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  check_int "warm hit" (warm + Hw.Cost.l1_hit_cycles)
    (Hw.Realistic.cycles m);
  Hw.Realistic.packet_boundary m ~regions:[ (0x1000_0000, 2048) ];
  let before = Hw.Realistic.cycles m in
  Hw.Realistic.mem m ~addr:0x1000_0000 ~write:false ~dependent:false;
  check_int "DMA pushed the line to L3 (DDIO)"
    (before + Hw.Cost.l3_hit_cycles)
    (Hw.Realistic.cycles m)

(* Minor words allocated by [f ()], less the probe's own cost (the
   same subtraction as the specialized engine's zero-alloc test). *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  int_of_float (w1 -. w0 -. (w2 -. w1))

let test_realistic_zero_alloc () =
  let m = Hw.Realistic.create () in
  let n = 4096 in
  let hot = 0x3000_0000 in
  Hw.Realistic.mem m ~addr:hot ~write:false ~dependent:false;
  check_int "L1 hits allocate nothing" 0
    (minor_words (fun () ->
         for i = 1 to n do
           Hw.Realistic.mem m ~addr:(hot + (i land 63)) ~write:(i land 1 = 0)
             ~dependent:(i land 2 = 0)
         done));
  (* a stride of three lines never extends the previous miss, so the
     prefetcher never trains: every access misses L1, most go to DRAM *)
  check_int "untrained misses allocate nothing" 0
    (minor_words (fun () ->
         for i = 1 to n do
           Hw.Realistic.mem m ~addr:(0x4000_0000 + (i * 3 * 64)) ~write:false
             ~dependent:(i land 1 = 0)
         done));
  check_int "sequential sweeps (prefetcher trained) allocate nothing" 0
    (minor_words (fun () ->
         for i = 1 to n do
           Hw.Realistic.mem m ~addr:(0x5000_0000 + (i * 64)) ~write:false
             ~dependent:true
         done));
  let regions = [ (0x6000_0000, 2048); (0x6100_0000, 256) ] in
  check_int "DMA boundaries allocate nothing" 0
    (minor_words (fun () ->
         for _ = 1 to 64 do
           Hw.Realistic.packet_boundary m ~regions
         done))

let test_conservative_exceeds_realistic () =
  (* On an arbitrary access pattern the conservative model must charge at
     least as much as the realistic one. *)
  let rng = Workload.Prng.create ~seed:3 in
  let cons = Hw.Model.conservative () in
  let real = Hw.Model.realistic () in
  for _ = 1 to 2000 do
    let addr = 0x4000_0000 + (Workload.Prng.below rng 512 * 64) in
    let dependent = Workload.Prng.bool rng 0.5 in
    cons.Hw.Model.instr Hw.Cost.Alu 3;
    real.Hw.Model.instr Hw.Cost.Alu 3;
    cons.Hw.Model.instr Hw.Cost.Branch 1;
    real.Hw.Model.instr Hw.Cost.Branch 1;
    cons.Hw.Model.mem ~addr ~write:false ~dependent;
    real.Hw.Model.mem ~addr ~write:false ~dependent
  done;
  check_bool "conservative >= realistic" true
    (cons.Hw.Model.cycles () >= real.Hw.Model.cycles ())

let test_null_model () =
  let m = Hw.Model.null () in
  m.Hw.Model.instr Hw.Cost.Div 5;
  m.Hw.Model.mem ~addr:0 ~write:true ~dependent:false;
  check_int "cycles stay zero" 0 (m.Hw.Model.cycles ())

let test_tlb_penalty () =
  (* touching many distinct pages costs more than the same number of
     accesses within one page, through the DTLB penalty alone *)
  let many_pages = Hw.Realistic.create () in
  for i = 0 to 255 do
    Hw.Realistic.mem many_pages ~addr:(i * 4096 * 3) ~write:false
      ~dependent:true
  done;
  let one_page = Hw.Realistic.create () in
  for i = 0 to 255 do
    (* distinct lines of the same few pages, same cache behaviour class *)
    Hw.Realistic.mem one_page ~addr:(i * 64 * 193 mod 8192) ~write:false
      ~dependent:true
  done;
  check_bool "page walks cost" true
    (Hw.Realistic.cycles many_pages > Hw.Realistic.cycles one_page)

(* Golden pin of the realistic simulator: a churn trace (every packet a
   new flow into a small NAT, so each packet expires one entry, inserts
   one and allocates a port) replayed by the Distiller.  The constants
   were taken from the straightforward list-of-ways simulator; any
   reimplementation of Hw.Cache / Hw.Realistic must reproduce them
   exactly, cycle for cycle and hit for hit. *)
let golden_packets = 3000
let golden_total_cycles = 1_498_405
let golden_cycle_checksum = 36_281_388_888_931

let golden_cache_stats =
  [
    ("l1d", (170_712, 12_142));
    ("l2", (2_628, 9_450));
    ("l3", (9_000, 450));
    ("dtlb", (173_843, 9_011));
  ]

let test_realistic_golden () =
  let gap = 100 and capacity = 256 in
  let config =
    {
      Nf.Nat.default_config with
      capacity;
      buckets = 256;
      timeout = capacity * gap;
      granularity = gap;
      port_lo = 1024;
      port_hi = 1535;
    }
  in
  let entry = Nf.Registry.of_spec (Nf.Spec.Nat config) in
  let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  let stream =
    Workload.Stream.constant_rate ~in_port:0 ~start:1_000_000 ~gap
      (Workload.Soak.churn_packets ~offset:4096 golden_packets)
  in
  let sim = Hw.Realistic.create () in
  let r =
    Distiller.Run.run ~hw:(Hw.Model.of_realistic sim) ~dss
      entry.Nf.Registry.program stream
  in
  check_int "packets" golden_packets (Distiller.Run.count r);
  let checksum =
    List.fold_left
      (fun acc c -> ((acc * 1_000_003) + c) land 0x3fff_ffff_ffff)
      0 (Distiller.Run.latencies r)
  in
  let stats = Hw.Realistic.cache_stats sim in
  check_int "total cycles" golden_total_cycles (Hw.Realistic.cycles sim);
  check_int "per-packet cycle checksum" golden_cycle_checksum checksum;
  List.iter
    (fun (level, (hits, misses)) ->
      let h, m = List.assoc level stats in
      check_int (level ^ " hits") hits h;
      check_int (level ^ " misses") misses m)
    golden_cache_stats

(* A second pin, on a synthetic stream built to reach the corners the
   churn trace leaves cold: long sequential sweeps that lock the
   prefetcher on, scattered accesses that leave thousands of stale
   in-flight prefetches behind (so the prefetch table's reset-at-4,096
   rule fires repeatedly), DMA boundaries and bursts of independent DRAM
   misses.  Constants taken from the same simulator as above. *)
let synthetic_golden_cycles = 10_147_739

let synthetic_golden_stats =
  [
    ("l1d", (2_041, 286_085));
    ("l2", (8_290, 55_295));
    ("l3", (10_529, 44_766));
    ("dtlb", (248_843, 39_283));
  ]

let test_realistic_synthetic_golden () =
  let rng = Workload.Prng.create ~seed:12 in
  let sim = Hw.Realistic.create () in
  let region = 0x2000_0000 in
  for _ = 1 to 60_000 do
    Hw.Realistic.instr sim Hw.Cost.Alu (Workload.Prng.below rng 8);
    Hw.Realistic.instr sim Hw.Cost.Branch (Workload.Prng.below rng 3);
    match Workload.Prng.below rng 10 with
    | 0 | 2 ->
        (* a sequential sweep from a random line *)
        let base = region + (Workload.Prng.below rng (1 lsl 20) * 64) in
        let dependent = Workload.Prng.bool rng 0.5 in
        for i = 0 to Workload.Prng.below rng 40 do
          Hw.Realistic.mem sim ~addr:(base + (i * 64)) ~write:false ~dependent
        done
    | 1 ->
        Hw.Realistic.packet_boundary sim
          ~regions:[ (region, 2048); (region + 0x100_0000, 256) ]
    | k ->
        (* scattered: a hot 64 KiB set, a warm 4 MiB one, cold lines *)
        let span = if k < 6 then 1 lsl 8 else if k < 9 then 1 lsl 16 else 1 lsl 22 in
        let addr = region + (Workload.Prng.below rng span * 64)
                   + Workload.Prng.below rng 64 in
        Hw.Realistic.mem sim ~addr ~write:(k land 1 = 0)
          ~dependent:(Workload.Prng.bool rng 0.3)
  done;
  let stats = Hw.Realistic.cache_stats sim in
  check_int "total cycles" synthetic_golden_cycles (Hw.Realistic.cycles sim);
  List.iter
    (fun (level, (hits, misses)) ->
      let h, m = List.assoc level stats in
      check_int (level ^ " hits") hits h;
      check_int (level ^ " misses") misses m)
    synthetic_golden_stats

let suite =
  [
    Alcotest.test_case "cache basics" `Quick test_cache_basic;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache remove/insert" `Quick test_cache_remove_insert;
    Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
    QCheck_alcotest.to_alcotest prop_cache_matches_reference;
    Alcotest.test_case "conservative model" `Quick test_conservative;
    Alcotest.test_case "realistic warm hits" `Quick test_realistic_warm;
    Alcotest.test_case "realistic prefetcher" `Quick test_realistic_prefetch;
    Alcotest.test_case "realistic DMA boundary" `Quick test_realistic_boundary;
    Alcotest.test_case "realistic simulator allocates nothing" `Quick
      test_realistic_zero_alloc;
    Alcotest.test_case "conservative dominates realistic" `Quick
      test_conservative_exceeds_realistic;
    Alcotest.test_case "null model" `Quick test_null_model;
    Alcotest.test_case "dtlb penalty" `Quick test_tlb_penalty;
    Alcotest.test_case "realistic golden (churn replay)" `Quick
      test_realistic_golden;
    Alcotest.test_case "realistic golden (synthetic stream)" `Quick
      test_realistic_synthetic_golden;
  ]
