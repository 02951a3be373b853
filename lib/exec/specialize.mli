(** Config-specialized, allocation-free compiled execution.

    {!bind} freezes a {!Compiled} program against one stream's concrete
    configuration — meter, mode and linked data-structure instances —
    and recompiles it into closures with the remaining per-packet
    overhead hoisted to bind time: call sites resolve once to each
    structure's {!Ds.fast_path} (no generic dispatch, preallocated
    argv, keys read in place), static instruction charges are packed
    per straight-line segment, and outcomes travel as int codes instead
    of exceptions.  The specialized fast body allocates zero minor
    words per packet in steady state.

    Specialization is charge-{e equivalent}, not charge-{e identical}:
    instruction charges within one straight-line segment land as a
    single batch, so a [Stuck] packet can differ from the interpreter
    by part of its final segment's pack.  Completed packets are exact —
    same outcome, IC, MA, cycles and PCV observations (DESIGN §12).
    Batching is only sound when nothing reads the meter mid-packet, so
    [bind] transparently falls back to {!Compiled.runner} whenever the
    meter traces events, the hardware model couples memory pricing to
    instruction counts, the mode is [Analysis], or any call site lacks
    a fast path. *)

type t
(** A program bound to one stream's frozen configuration. *)

val bind : Compiled.t -> meter:Meter.t -> mode:Interp.mode -> t
(** Specialize [ct] against [meter] and [mode].  Falls back to the
    generic compiled runner (see above) rather than failing — [bind]
    never raises.

    Each call increments exactly one {!Obs.Metrics} counter (nothing is
    counted per packet; like every metric, only while [Obs] is
    enabled): [exec.engine.specialized] when the stream runs the
    specialized body, otherwise the first fallback reason in the order
    [bind] checks them — [exec.engine.fallback.tracing] (the meter
    records events), [exec.engine.fallback.coupled_mem] (the model
    couples memory pricing to instruction counts),
    [exec.engine.fallback.analysis] (analysis mode) or
    [exec.engine.fallback.no_fast_path] (some call site's instance is
    unlinked or offers no {!Ds.fast_path} for its method). *)

val specialized : t -> bool
(** [true] when the stream runs the specialized zero-allocation body,
    [false] when it fell back to {!Compiled.runner}. *)

val run : t -> ?in_port:int -> ?now:int -> Net.Packet.t -> Interp.run
(** Full-fidelity single-packet entry point: same result record as
    {!Interp.run}/{!Compiled.run}.  Allocates the [run] record (and, on
    specialized streams, nothing else); use {!exec} for the
    allocation-free hot loop. *)

val exec : t -> in_port:int -> now:int -> Net.Packet.t -> int
(** Allocation-free hot path: processes one packet, returning
    {!code_sent}, {!code_dropped} or {!code_flooded}.  On a
    specialized stream this allocates zero minor words in steady
    state — all labels are required precisely so no [Some] boxing
    happens at call sites.  A [Sent] packet's output port is read with
    {!out_port}.  Raises {!Interp.Stuck} like the interpreter would
    (charges already flushed).  Fallback streams service [exec] through
    the generic runner — correct, but not allocation-free. *)

val out_port : t -> int
(** Output port of the most recent {!exec} that returned
    {!code_sent}. *)

val outcome_of_code : t -> int -> Interp.outcome
(** Decode an {!exec} return code ({!code_sent} reads {!out_port}).
    Raises [Invalid_argument] on anything else. *)

val code_sent : int
val code_dropped : int
val code_flooded : int
