(** Set-associative LRU cache simulator.

    Used twice: as the cold, per-path L1D of BOLT's conservative hardware
    model (an access is "provably L1" only if an earlier access on the same
    path brought the line in and it was not evicted), and as the warm
    L1/L2/L3 hierarchy of the realistic model. *)

type t

val create : size_bytes:int -> assoc:int -> t
(** Raises [Invalid_argument] if geometry is inconsistent (sizes must be
    multiples of [assoc * line_size]). *)

val l1d : unit -> t
(** A 32 KiB, 8-way L1 data cache. *)

val l2 : unit -> t
(** A 256 KiB, 8-way L2. *)

val l3 : unit -> t
(** A 2.5 MiB (per-core slice), 20-way L3. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing byte address [addr];
    returns [true] on hit.  On miss the line is filled (LRU victim
    evicted). *)

val probe : t -> int -> bool
(** [probe t addr] is a hit test without state change. *)

val insert : t -> int -> unit
(** Fill a line without counting an access (used for prefetches). *)

val remove : t -> int -> unit
(** Invalidate the line containing the address, if present (DMA). *)

val clear : t -> unit

val line_of_addr : int -> int
(** The line holding a byte address.  Addresses are non-negative
    throughout; every function here takes them as such. *)

val stats : t -> int * int
(** [(hits, misses)] since creation or [clear]. *)
