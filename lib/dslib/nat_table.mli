(** The NAT's translation state: a {!Flow_table} for the internal
    direction, a direct-indexed external-port array for the return
    direction, and a pluggable {!Port_alloc} — the VigNAT design.

    Expiring a flow frees its external port through the allocator, so the
    allocator's costs surface in the [expire] contract as well as in
    [add_int] — which is what makes the allocator choice visible in the
    whole-NF contract (paper Figures 5–7). *)

type t

val create :
  base:int -> capacity:int -> buckets:int -> timeout:int ->
  ?granularity:int -> alloc:Port_alloc.t -> port_lo:int -> port_hi:int ->
  unit -> t

val size : t -> int
val capacity : t -> int
val allocator : t -> Port_alloc.t

val expire : t -> Exec.Meter.t -> now:int -> int
val lookup_int : t -> Exec.Meter.t -> int array -> now:int -> int
(** 5-word flow key → external port, or [-1]; refreshes on hit. *)

val add_int : t -> Exec.Meter.t -> int array -> now:int -> int
(** Allocate a port and install the flow; [-1] when the table is full or
    ports are exhausted.  Adding a live key remaps it: the new port
    replaces the old one, which is unmapped and freed (contract branch
    ["remap"]). *)

val lookup_ext : t -> Exec.Meter.t -> port:int -> now:int -> int
(** External port → flow handle, or [-1]; refreshes on hit. *)

val int_field : t -> Exec.Meter.t -> handle:int -> field:int -> int
(** Read word [field] (0–4) of the internal flow key behind [handle]. *)

(** {1 Specialized fast paths}

    Sink twins of the metered operations; see {!Dslib.Hash_map}. *)

val fast_expire : t -> Exec.Ds.sink -> now:int -> int
val fast_lookup_int : t -> Exec.Ds.sink -> int array -> off:int -> now:int -> int
val fast_add_int : t -> Exec.Ds.sink -> int array -> off:int -> now:int -> int
val fast_lookup_ext : t -> Exec.Ds.sink -> port:int -> now:int -> int
val fast_int_field : t -> Exec.Ds.sink -> handle:int -> field:int -> int

val flow_key_quiet : t -> int -> int array
val hash_of_flow : t -> int array -> int
(** Bucket a flow key chains into (uncharged — adversarial synthesis). *)

val to_ds : t -> Exec.Ds.t
(** Methods: [expire(now)], [lookup_int(k0..k4, now)],
    [add_int(k0..k4, now)], [lookup_ext(port, now)],
    [int_field(handle, field)]. *)

val kind : string
val key_len : int

module Recipe : sig
  val contract : alloc_name:string -> Perf.Ds_contract.t list
  (** [alloc_name] is ["dll"] or ["array"]. *)
end
