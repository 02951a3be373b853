(** Purely functional reference models for the dslib structures — the
    model side of the stateful fuzzer ({!Stateful}).

    Each fake is an assoc-list-simple executable spec whose correctness
    is evident by inspection.  The real structure is replayed against it
    command by command ({!Oracle.stateful_model}) and must agree on every
    observable reply.

    Allocator fakes are output-following: they do not predict {e which}
    free port the real allocator picks (dll and array backends differ),
    they validate that the reply is legal — fresh, in range, [-1] exactly
    on exhaustion — and adopt it. *)

(** Model of the raw {!Dslib.Hash_map}. *)
module Table : sig
  type t

  type put_result = Inserted | Updated | Full

  val create : capacity:int -> t
  val size : t -> int
  val mem : t -> int array -> bool
  val get : t -> int array -> int option
  val put : t -> int array -> int -> t * put_result
  val remove : t -> int array -> t * bool
end

(** Model of {!Dslib.Flow_table} — LRU order, quantized stamps,
    head-stopping expiry, refresh-on-hit.  With [key_len] 1 it also
    models the MAC table's learn/lookup/expire. *)
module Flow : sig
  type t

  type put_result = Inserted | Updated | Full

  val create : capacity:int -> timeout:int -> granularity:int -> t
  val size : t -> int
  val mem : t -> int array -> bool

  val peek : t -> int array -> int option
  (** Find without refreshing — what [Mac_table.lookup] does. *)

  val expire : t -> now:int -> t * int * int list
  (** [(t', count, values)] — [values] are the expired entries' values in
      expiry order (the NAT fake frees these ports). *)

  val get : t -> int array -> now:int -> t * int option
  val put : t -> int array -> value:int -> now:int -> t * put_result
end

(** Model of {!Dslib.Port_alloc}, either backend. *)
module Ports : sig
  type t

  val create : lo:int -> hi:int -> t
  val full : t -> bool
  val is_allocated : t -> int -> bool

  val alloc : t -> returned:int -> (t, string) result
  (** Validate and adopt the real allocator's reply. *)

  val free : t -> int -> [ `Freed of t | `Rejects ]
  (** [`Rejects] when the real structure must raise [Invalid_argument]. *)
end

(** Model of {!Dslib.Nat_table}: flow table whose values are external
    ports, a reverse port map, and a port allocator kept in lock-step
    with expiry. *)
module Nat : sig
  type t

  val create :
    capacity:int -> timeout:int -> granularity:int -> lo:int -> hi:int -> t

  val mem : t -> int array -> bool

  val ports_full : t -> bool
  val table_full : t -> bool

  val add_should_fail : t -> int array -> bool
  (** Ports exhausted, or the flow table full and the key new — the only
      legal reasons for [add_int] of this key to return -1. *)

  val add : t -> int array -> now:int -> returned:int -> (t, string) result
  (** Validate and adopt the real [add_int] reply ([returned] = external
      port or -1).  A live key is remapped: its old port is unmapped and
      freed. *)

  val lookup_int : t -> int array -> now:int -> t * int
  val lookup_ext : t -> port:int -> now:int -> t * int array option
  val expire : t -> now:int -> t * int
end

(** Model of {!Dslib.Token_bucket} with the clamped refill. *)
module Bucket : sig
  type t

  val create : rate:int -> burst:int -> now:int -> t
  val conform : t -> bytes:int -> now:int -> t * int
end

(** Model of both LPM backends: longest-prefix match over an assoc list
    of (prefix, len) routes. *)
module Lpm : sig
  type t

  val create : default_port:int -> t
  val add : t -> prefix:int -> len:int -> port:int -> t
  val lookup : t -> int -> int
end
