(* Tags live in flat int arrays, a power-of-two number of whole sets per
   array: set [i]'s ways are
   [chunks.(i lsr chunk_shift).(base) .. (base + fill.(i) - 1)] with
   [base = (i land chunk_mask) * assoc], most recently used first.  A
   lookup is one scan of at most [assoc] ints and an LRU update is an
   in-place shift of the ways in front of the hit — no option, no
   closure, no C call, so a simulated access allocates nothing.

   Each array holds as many whole sets as fit in 64 words (one set when
   a set is wider).  The conservative model builds a
   fresh L1D for every analysed path, and small arrays keep that cheap
   for the GC: they are born on the minor heap (one 512-word array
   would go straight to the major heap, [Max_young_wosize] being 256)
   and, when promoted, land in the major heap's size-classed pools
   rather than in individually allocated large blocks.

   The helpers are annotated [int array]/[int] (a polymorphic one would
   compare through [caml_equal] and store through [caml_modify]) and
   stay in this module: with [-opaque] (dune's dev profile) nothing is
   inlined across modules. *)
type t = {
  chunks : int array array;  (** line tags, [1 lsl chunk_shift] sets each *)
  fill : int array;  (** number of valid ways per set *)
  assoc : int;
  set_count : int;
  mask : int;  (** [set_count - 1] when a power of two, else [-1] *)
  chunk_shift : int;
  chunk_mask : int;  (** [(1 lsl chunk_shift) - 1] *)
  mutable hits : int;
  mutable misses : int;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

(* [Cost.line_size] is opaque here, so [addr / Cost.line_size] would be
   a hardware divide on every access; a shift is the same for every
   non-negative address. *)
let line_shift =
  let s = log2 Cost.line_size in
  assert (1 lsl s = Cost.line_size);
  s

let line_of_addr addr = addr asr line_shift
let chunk_words = 64

let create ~size_bytes ~assoc =
  let lines = size_bytes / Cost.line_size in
  if lines = 0 || lines mod assoc <> 0 then
    invalid_arg "Cache.create: size must be a multiple of assoc * line_size";
  let set_count = lines / assoc in
  let chunk_shift = log2 (max 1 (chunk_words / assoc)) in
  let per_chunk = 1 lsl chunk_shift in
  let chunk c = Array.make (min per_chunk (set_count - (c * per_chunk)) * assoc) (-1) in
  {
    chunks = Array.init ((set_count + per_chunk - 1) / per_chunk) chunk;
    fill = Array.make set_count 0;
    assoc;
    set_count;
    mask = (if set_count land (set_count - 1) = 0 then set_count - 1 else -1);
    chunk_shift;
    chunk_mask = per_chunk - 1;
    hits = 0;
    misses = 0;
  }

let l1d () = create ~size_bytes:(32 * 1024) ~assoc:8
let l2 () = create ~size_bytes:(256 * 1024) ~assoc:8
let l3 () = create ~size_bytes:(2560 * 1024) ~assoc:20

let set_of t line =
  if t.mask >= 0 then line land t.mask else line mod t.set_count

let tags_of t idx = Array.unsafe_get t.chunks (idx lsr t.chunk_shift)
let base_of t idx = (idx land t.chunk_mask) * t.assoc

(* Position of [line] in [tags.(lo) .. tags.(hi - 1)], or [-1]. *)
let rec find (tags : int array) (line : int) lo hi =
  if lo >= hi then -1
  else if Array.unsafe_get tags lo = line then lo
  else find tags line (lo + 1) hi

(* Shift [tags.(lo) .. tags.(hi - 1)] one way towards LRU and put
   [line] in the MRU way [lo]: promotes a hit at [hi], or fills a new
   line (evicting [tags.(hi)] when the set is full). *)
let push_front (tags : int array) (line : int) lo hi =
  for k = hi downto lo + 1 do
    Array.unsafe_set tags k (Array.unsafe_get tags (k - 1))
  done;
  Array.unsafe_set tags lo line

(* Fill [line] into set [idx], whose ways it is known not to occupy. *)
let fill_new t idx tags base line =
  let fill = Array.unsafe_get t.fill idx in
  push_front tags line base (base + if fill < t.assoc then fill else fill - 1);
  if fill < t.assoc then Array.unsafe_set t.fill idx (fill + 1)

(* Each entry point reads [t.fill.(idx)] (bounds-checked) before
   [tags_of] indexes the chunks unchecked. *)
let access t addr =
  let line = addr asr line_shift in
  let idx = set_of t line in
  let fill = t.fill.(idx) in
  let tags = tags_of t idx and base = base_of t idx in
  if fill > 0 && Array.unsafe_get tags base = line then begin
    (* already MRU: most hits, and nothing to move *)
    t.hits <- t.hits + 1;
    true
  end
  else
    let i = find tags line (base + 1) (base + fill) in
    if i >= 0 then begin
      push_front tags line base i;
      t.hits <- t.hits + 1;
      true
    end
    else begin
      fill_new t idx tags base line;
      t.misses <- t.misses + 1;
      false
    end

let probe t addr =
  let line = addr asr line_shift in
  let idx = set_of t line in
  let fill = t.fill.(idx) in
  let base = base_of t idx in
  find (tags_of t idx) line base (base + fill) >= 0

let insert t addr =
  let line = addr asr line_shift in
  let idx = set_of t line in
  let fill = t.fill.(idx) in
  let tags = tags_of t idx and base = base_of t idx in
  let i = find tags line base (base + fill) in
  if i >= 0 then push_front tags line base i else fill_new t idx tags base line

let remove t addr =
  let line = addr asr line_shift in
  let idx = set_of t line in
  let fill = t.fill.(idx) in
  let tags = tags_of t idx and base = base_of t idx in
  let last = base + fill - 1 in
  let i = find tags line base (last + 1) in
  if i >= 0 then begin
    for k = i to last - 1 do
      Array.unsafe_set tags k (Array.unsafe_get tags (k + 1))
    done;
    t.fill.(idx) <- fill - 1
  end

(* Ways at or past a set's [fill] are never read, so emptying a set is
   resetting its count. *)
let clear t =
  Array.fill t.fill 0 t.set_count 0;
  t.hits <- 0;
  t.misses <- 0

let stats t = (t.hits, t.misses)
