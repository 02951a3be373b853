(** Flow table: a {!Hash_map} with per-entry timestamps and LRU-ordered
    expiry — the stateful heart of the NAT, the load balancer and (via
    {!Mac_table}) the bridge.

    Expiring [e] entries costs, per entry, one hash-map removal — whose own
    cost depends on the collisions [c] and traversals [t] that removal
    incurs.  That is precisely where the [e·c] and [e·t] terms of the
    paper's VigNAT contract (Table 6) come from.

    The [granularity] knob reproduces the VigNAT performance bug
    (paper §5.3): timestamps are quantised to it, so with second-sized
    granularity every flow that should have expired during the previous
    second expires in one batch at the tick boundary. *)

type t

val create :
  ?seed:int -> base:int -> key_len:int -> capacity:int -> buckets:int ->
  timeout:int -> ?granularity:int ->
  ?on_expire:(Exec.Meter.t -> value:int -> unit) ->
  ?on_expire_fast:(Exec.Ds.sink -> value:int -> unit) -> unit -> t
(** [timeout] and [granularity] are in the same time unit as [now]
    (microseconds by convention; granularity defaults to 1 — exact
    timestamps). [on_expire] runs for each expired entry (the NAT frees
    the flow's external port there); [on_expire_fast] is its sink twin —
    without it, a table with an [on_expire] callback offers no
    specialized [expire]. *)

val size : t -> int
val capacity : t -> int
val key_len : t -> int

val expire : t -> Exec.Meter.t -> now:int -> int
(** Expire every entry older than [timeout]; returns the count and
    observes it as PCV [e]. *)

val get : t -> Exec.Meter.t -> int array -> now:int -> int option
(** Lookup; on a hit the entry is refreshed (timestamp + LRU tail). *)

val put : t -> Exec.Meter.t -> int array -> value:int -> now:int -> int
(** Insert (or update) and stamp; returns the node index, or [-1] when
    full. *)

val refresh_entry : t -> Exec.Meter.t -> int -> now:int -> unit
(** Re-stamp an entry and move it to the LRU tail (what a hit does). *)

val map : t -> Hash_map.t
(** The underlying hash map (for reseeding and tests). *)

val get_probe :
  t -> Exec.Meter.t -> int array -> now:int -> int option * Hash_map.probe
(** Like {!get}, also returning the probe counters — the MAC table's
    rehash defence triggers on the traversal count. *)

val mem_quiet : t -> int array -> bool
(** Uncharged lookup, for tests and workload synthesis. *)

val key_at : t -> int -> int array
val value_at : t -> int -> int
val hash_of_key : t -> int array -> int
val oldest_first : t -> int list
(** Node indices in LRU order (uncharged — tests). *)

(** {1 Specialized fast paths}

    Sink twins of the metered operations; see {!Hash_map}. *)

val fast_expire : t -> Exec.Ds.sink -> now:int -> int
(** Only sound when [on_expire] is absent or has its sink twin. *)

val fast_get : t -> Exec.Ds.sink -> int array -> off:int -> now:int -> int
(** Value or [-1] (the [to_ds] "get" encoding); refreshes on hit. *)

val fast_put :
  t -> Exec.Ds.sink -> int array -> off:int -> value:int -> now:int -> int

val fast_refresh_entry : t -> Exec.Ds.sink -> int -> now:int -> unit
val fast_size : t -> Exec.Ds.sink -> int

val key_word_at : t -> int -> int -> int
(** In-place key word read (no charges, no copy). *)

val to_ds : t -> Exec.Ds.t
(** Methods: [expire(now)] → count; [get(key…, now)] → value or -1;
    [put(key…, value, now)] → index or -1; [size()].  All four methods
    carry fast paths (expire only when specializable — see
    {!create}). *)

val kind : string

(** {1 Contract recipes} *)

module Recipe : sig
  val refresh : Perf.Cost_vec.t
  (** Cost of re-stamping an entry and moving it to the LRU tail. *)

  val get_hit : key_len:int -> Perf.Cost_vec.t
  val get_miss : key_len:int -> Perf.Cost_vec.t
  val put_new : key_len:int -> Perf.Cost_vec.t
  val put_update : key_len:int -> Perf.Cost_vec.t
  (** [put] of a live key: value updated in place, entry refreshed. *)

  val put_full : key_len:int -> Perf.Cost_vec.t

  val expire : key_len:int -> per_entry_extra:Perf.Cost_vec.t ->
    Perf.Cost_vec.t
  (** Cost over PCVs [e], [c], [t]; [per_entry_extra] is the cost of the
      [on_expire] callback (e.g. the port allocator's free). *)

  val contract : key_len:int -> ?free_cost:Perf.Cost_vec.t -> unit ->
    Perf.Ds_contract.t list
  (** The method contracts for this kind, as registered in the library. *)
end
