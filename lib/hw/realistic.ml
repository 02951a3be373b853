(* The prefetcher's in-flight lines: a set of non-negative ints in an
   open-addressed, linearly probed table (deletion by backward shift, so
   no tombstones), kept at most half full.  It starts small and doubles
   when needed; its population is bounded — training resets it once it
   holds more than [limit] lines, and a prefetch hit swaps one line for
   another — so it stops growing, and from then on adding, testing and
   removing a line allocate nothing. *)
module Line_set = struct
  let limit = 4096
  let empty = min_int

  type t = { mutable keys : int array; mutable bits : int; mutable size : int }

  let initial_bits = 6
  let create () =
    { keys = Array.make (1 lsl initial_bits) empty; bits = initial_bits; size = 0 }

  (* Fibonacci hashing: sequential lines land far apart. *)
  let home bits line = (line * 0x1E37_79B9_7F4A_7C15) lsr (63 - bits)
  let next (keys : int array) i = (i + 1) land (Array.length keys - 1)

  (* The slot holding [line], or the empty slot where it would go. *)
  let rec slot keys line i =
    let k = Array.unsafe_get keys i in
    if k = line || k = empty then i else slot keys line (next keys i)

  let find s line = slot s.keys line (home s.bits line)
  let mem s line = Array.unsafe_get s.keys (find s line) = line

  let rec add s line =
    if 2 * (s.size + 1) > Array.length s.keys then begin
      let old = s.keys in
      s.keys <- Array.make (2 * Array.length old) empty;
      s.bits <- s.bits + 1;
      s.size <- 0;
      Array.iter (fun k -> if k <> empty then add s k) old
    end;
    let i = find s line in
    if Array.unsafe_get s.keys i = empty then begin
      Array.unsafe_set s.keys i line;
      s.size <- s.size + 1
    end

  (* Close the gap at [hole]: pull back every later key of the probe run
     whose home does not lie cyclically in [(hole, j]]. *)
  let rec backshift keys bits hole j =
    let k = Array.unsafe_get keys j in
    if k = empty then Array.unsafe_set keys hole empty
    else
      let h = home bits k in
      let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
      if stays then backshift keys bits hole (next keys j)
      else begin
        Array.unsafe_set keys hole k;
        backshift keys bits j (next keys j)
      end

  let remove s line =
    let i = find s line in
    if Array.unsafe_get s.keys i = line then begin
      backshift s.keys s.bits i (next s.keys i);
      s.size <- s.size - 1
    end

  let reset s =
    Array.fill s.keys 0 (Array.length s.keys) empty;
    s.size <- 0
end

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  dtlb : Cache.t;  (** 64-entry, 4 KiB pages, modelled as a tiny cache *)
  predicted : Line_set.t;  (** lines the prefetcher has in flight *)
  mutable last_miss_line : int;
  mutable last_miss_instr : int;  (** instr count at the last DRAM miss *)
  mutable overlap : int;  (** current memory-level parallelism degree *)
  mutable instrs : int;
  mutable mems : int;
  mutable mem_cycles : int;
  mutable branches : int;
}

let create () =
  {
    l1 = Cache.l1d ();
    l2 = Cache.l2 ();
    l3 = Cache.l3 ();
    (* 64 page-table entries of one "line" each: reuse the cache machinery
       by mapping a 4 KiB page to a 64-byte pseudo-line *)
    dtlb = Cache.create ~size_bytes:(64 * 64) ~assoc:4;
    predicted = Line_set.create ();
    last_miss_line = min_int;
    last_miss_instr = min_int;
    overlap = 1;
    instrs = 0;
    mems = 0;
    mem_cycles = 0;
    branches = 0;
  }

(* One in [mispredict_rate] branches misses in the predictor. *)
let mispredict_rate = 32
let mispredict_penalty = 15

let instr t kind n =
  t.instrs <- t.instrs + n;
  if kind = Cost.Branch then begin
    t.branches <- t.branches + n;
    let mispredicts =
      (t.branches / mispredict_rate) - ((t.branches - n) / mispredict_rate)
    in
    t.mem_cycles <- t.mem_cycles + (mispredicts * mispredict_penalty)
  end

(* DMA delivered a fresh packet: its buffer (and the descriptor ring
   entry) leave the core caches; DDIO parks the lines in L3. *)
let rec packet_boundary t ~regions =
  match regions with
  | [] -> ()
  | (base, size) :: rest ->
      let lines = (size + Cost.line_size - 1) / Cost.line_size in
      for i = 0 to lines - 1 do
        let addr = base + (i * Cost.line_size) in
        Cache.remove t.l1 addr;
        Cache.remove t.l2 addr;
        Cache.insert t.l3 addr
      done;
      packet_boundary t ~regions:rest

(* Misses closer together than this many instructions may overlap. *)
let burst_window = 48

let train_prefetcher t line =
  if line = t.last_miss_line + 1 then begin
    if t.predicted.Line_set.size > Line_set.limit then Line_set.reset t.predicted;
    Line_set.add t.predicted (line + 1);
    Line_set.add t.predicted (line + 2)
  end

let tlb_miss_penalty = 7

let mem t ~addr ~write:_ ~dependent =
  t.mems <- t.mems + 1;
  (* address translation first: a DTLB miss costs a (mostly cached)
     page walk *)
  let page_pseudo_addr = addr / 4096 * Cost.line_size in
  if not (Cache.access t.dtlb page_pseudo_addr) then
    t.mem_cycles <- t.mem_cycles + tlb_miss_penalty;
  let line = Cache.line_of_addr addr in
  let cost =
    if Cache.access t.l1 addr then Cost.l1_hit_cycles
    else if Line_set.mem t.predicted line then begin
      (* The prefetch is in flight.  A dependent access still waits for
         part of the fill; an independent one overlaps it entirely. *)
      Line_set.remove t.predicted line;
      Line_set.add t.predicted (line + 1);
      Cache.insert t.l2 addr;
      if dependent then Cost.prefetched_hit_cycles else Cost.l1_hit_cycles
    end
    else if Cache.access t.l2 addr then Cost.l2_hit_cycles
    else if Cache.access t.l3 addr then Cost.l3_hit_cycles
    else begin
      (* DRAM.  Independent misses inside a burst overlap up to mlp_max. *)
      let in_burst = t.instrs - t.last_miss_instr < burst_window in
      let overlap =
        if dependent || not in_burst then 1
        else if t.overlap < Cost.mlp_max then t.overlap + 1
        else Cost.mlp_max
      in
      t.overlap <- overlap;
      t.last_miss_instr <- t.instrs;
      Cost.dram_cycles / overlap
    end
  in
  (* [Cache.access t.l1] above left the line resident and MRU in L1,
     whichever level served it: one lookup per level, no re-probe. *)
  train_prefetcher t line;
  t.last_miss_line <- (if cost >= Cost.l2_hit_cycles then line
                       else t.last_miss_line);
  t.mem_cycles <- t.mem_cycles + cost

let cycles t = (t.instrs / Cost.ipc) + t.mem_cycles
let instr_count t = t.instrs
let mem_count t = t.mems

let cache_stats t =
  [
    ("l1d", Cache.stats t.l1);
    ("l2", Cache.stats t.l2);
    ("l3", Cache.stats t.l3);
    ("dtlb", Cache.stats t.dtlb);
  ]
