(** Chained hash map with integer-array keys — the workhorse under the
    flow table and the MAC table.

    The map is backed by flat arrays (a node = one 64-byte line holding the
    key words, the value and the chain link), so the address stream seen by
    the cache models is the one a C implementation would produce.

    Every operation reports its two PCVs through the meter:
    [t] — bucket traversals (nodes visited), and
    [c] — hash collisions (visited nodes whose key did not match). *)

type t

val create :
  ?seed:int -> base:int -> key_len:int -> capacity:int -> buckets:int ->
  unit -> t
(** [key_len] ≤ 6 words.  [seed] keys the hash (collision-attack defence).
    Raises [Invalid_argument] on bad geometry. *)

val seed : t -> int
val buckets : t -> int

val reseed : t -> Exec.Meter.t -> seed:int -> unit
(** Re-key the hash and re-chain every entry — the bridge's rehash
    defence.  Cost: one store per bucket to clear the heads, then for each
    resident entry a key read, a hash and an insertion that walks its new
    chain checking for duplicates (this walk is the [t·o] term of the
    paper's Table 4 contract). *)

val capacity : t -> int
val size : t -> int
val key_len : t -> int

type probe = { result : int; collisions : int; traversals : int }
(** [result] is the node index, or [-1]. *)

val get : t -> Exec.Meter.t -> int array -> probe
(** Look the key up; on a hit, [result] is the node index.  Observes
    [c]/[t]. *)

val value_of : t -> Exec.Meter.t -> int -> int
(** [value_of t meter idx] reads the value stored at node [idx]. *)

val set_value : t -> Exec.Meter.t -> int -> int -> unit

val put : t -> Exec.Meter.t -> int array -> int -> probe
(** Insert or update.  [result] is the node index, or [-1] when the map is
    full.  Observes [c]/[t]. *)

val replaced : t -> int
(** The value the last update in place ({!put} or {!fast_put} of a live
    key) overwrote.  Uncharged: a caller that reads it prices the read.
    A caller whose [put] grew no entry reads it to release what the old
    value held. *)

val remove : t -> Exec.Meter.t -> int array -> probe
(** Remove the key, returning its former node index in [result] (or -1).
    Observes [c]/[t]. *)

val key_words : t -> int -> int array
(** Copy of the key stored at a node index (no charges — debug/test). *)

val key_word : t -> int -> int -> int
(** [key_word t i w] is word [w] of node [i]'s key, read in place (no
    charges, no copy). *)

(** {1 Specialized fast paths}

    Sink twins of the metered operations: observationally identical
    (state, result, PCV observations, charges) but allocation-free —
    keys are read in place from the caller's array at an offset, and
    instruction charges bump the sink's deferred counters.  Only sound
    under an untraced, non-coupled model; {!Exec.Specialize} guarantees
    that. *)

val fast_get : t -> Exec.Ds.sink -> int array -> off:int -> int
(** Node index or [-1]; the key is [key.(off) .. key.(off+key_len-1)]. *)

val fast_put : t -> Exec.Ds.sink -> int array -> off:int -> int -> int
val fast_remove_node : t -> Exec.Ds.sink -> int -> int
(** Remove the entry at a node index, reading its key in place. *)

val fast_value_of : t -> Exec.Ds.sink -> int -> int
val fast_set_value : t -> Exec.Ds.sink -> int -> int -> unit
val fast_reseed : t -> Exec.Ds.sink -> seed:int -> unit

val last_fast_traversals : t -> int
(** Traversal count of the most recent fast probe (uncharged). *)

val fold : (int -> acc:'a -> 'a) -> t -> 'a -> 'a
(** Fold over occupied node indices (no charges — used by rehash and
    tests). *)

val node_addr : t -> int -> int
val hash_of_key : t -> int array -> int
(** The bucket the key chains into (no charges — used by tests and
    adversarial workload synthesis). *)

(** {1 Contract recipes}

    Conservative per-method costs over the PCVs [c] and [t], mirroring the
    charging code above.  The flow-table and MAC-table contracts are built
    from these. *)

module Recipe : sig
  val get_hit : key_len:int -> Perf.Cost_vec.t
  val get_miss : key_len:int -> Perf.Cost_vec.t
  val put_update : key_len:int -> Perf.Cost_vec.t
  val put_new : key_len:int -> Perf.Cost_vec.t
  val put_full : key_len:int -> Perf.Cost_vec.t
  val remove_found : key_len:int -> Perf.Cost_vec.t
  val remove_miss : key_len:int -> Perf.Cost_vec.t

  val contract : key_len:int -> Perf.Ds_contract.t list
  (** The raw map's own method contracts (get/put/remove, one branch per
      outcome) — the model the stateful fuzzer checks a command
      sequence against.  The flow-table and MAC-table contracts remain
      the composed forms registered in the NF libraries. *)
end
