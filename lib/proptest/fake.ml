(* Purely functional reference models ("fakes") for the dslib
   structures — the model side of the stateful fuzzer ({!Stateful}).

   Each fake is deliberately naive: assoc lists, linear scans, no
   addresses, no costs.  Its correctness is meant to be evident by
   inspection, which is what makes it usable as an oracle — the real
   structure is replayed against it command by command and must agree
   on every observable reply.  The fakes mirror the *semantics* of
   dslib exactly, including the deliberate quirks: LRU-ordered expiry
   over quantized timestamps (the VigNAT granularity bug knob), the
   refresh a flow-table hit performs, the token bucket's clamped
   refill, the NAT's port rollback when the flow table is full.

   Allocator fakes are output-following: a port allocator is free to
   hand out any free port (the dll and array backends pick different
   ones), so the model does not predict WHICH port comes back — it
   validates that the reply is legal (fresh, in range, and -1 exactly
   when the range is exhausted) and then adopts it.  This is the
   standard treatment of nondeterminism in model-based testing. *)

(* ---- Raw hash map ---------------------------------------------------- *)

module Table = struct
  type t = { capacity : int; entries : (int array * int) list }

  type put_result = Inserted | Updated | Full

  let create ~capacity = { capacity; entries = [] }
  let size t = List.length t.entries
  let mem t key = List.exists (fun (k, _) -> k = key) t.entries

  let get t key =
    Option.map snd (List.find_opt (fun (k, _) -> k = key) t.entries)

  let put t key value =
    if mem t key then
      ( {
          t with
          entries =
            List.map
              (fun (k, v) -> if k = key then (k, value) else (k, v))
              t.entries;
        },
        Updated )
    else if size t >= t.capacity then (t, Full)
    else ({ t with entries = t.entries @ [ (key, value) ] }, Inserted)

  let remove t key =
    if mem t key then
      ({ t with entries = List.filter (fun (k, _) -> k <> key) t.entries }, true)
    else (t, false)
end

(* ---- Flow table (and, via key_len 1, the MAC table) ------------------- *)

module Flow = struct
  type entry = { key : int array; value : int; stamp : int }

  (* [entries] in LRU order, oldest first — expiry pops from the front
     and stops at the first survivor, exactly like the real table. *)
  type t = {
    capacity : int;
    timeout : int;
    granularity : int;
    entries : entry list;
  }

  type put_result = Inserted | Updated | Full

  let create ~capacity ~timeout ~granularity =
    { capacity; timeout; granularity; entries = [] }

  let size t = List.length t.entries
  let stamp t now = now / t.granularity * t.granularity
  let mem t key = List.exists (fun e -> e.key = key) t.entries
  let find t key = List.find_opt (fun e -> e.key = key) t.entries

  let peek t key = Option.map (fun e -> e.value) (find t key)
  (** Uncharged read, no refresh — what [Mac_table.lookup] does. *)

  let drop t key =
    { t with entries = List.filter (fun e -> e.key <> key) t.entries }

  let expire t ~now =
    (* pop expired entries from the LRU head; stop at the first entry
       still inside its timeout (the real loop does not scan past it) *)
    let rec go acc n = function
      | e :: rest when e.stamp + t.timeout <= now ->
          go (e.value :: acc) (n + 1) rest
      | rest -> ({ t with entries = rest }, n, List.rev acc)
    in
    go [] 0 t.entries

  let get t key ~now =
    match find t key with
    | None -> (t, None)
    | Some e ->
        (* a hit refreshes: restamp and move to the LRU tail *)
        let t = drop t key in
        ( { t with entries = t.entries @ [ { e with stamp = stamp t now } ] },
          Some e.value )

  let put t key ~value ~now =
    match find t key with
    | Some _ ->
        let t = drop t key in
        ( { t with entries = t.entries @ [ { key; value; stamp = stamp t now } ] },
          Updated )
    | None ->
        if size t >= t.capacity then (t, Full)
        else
          ( { t with entries = t.entries @ [ { key; value; stamp = stamp t now } ] },
            Inserted )
end

(* ---- Port allocator --------------------------------------------------- *)

module Ports = struct
  type t = { lo : int; hi : int; allocated : int list }

  let create ~lo ~hi = { lo; hi; allocated = [] }
  let capacity t = t.hi - t.lo + 1
  let full t = List.length t.allocated >= capacity t
  let is_allocated t p = List.mem p t.allocated

  (* Validate the real allocator's reply and adopt it. *)
  let alloc t ~returned =
    if returned = -1 then
      if full t then Ok t
      else Error "alloc returned -1 with free ports remaining"
    else if returned < t.lo || returned > t.hi then
      Error (Printf.sprintf "alloc returned out-of-range port %d" returned)
    else if is_allocated t returned then
      Error (Printf.sprintf "alloc returned port %d twice" returned)
    else Ok { t with allocated = returned :: t.allocated }

  (* [free] on an unallocated port must raise in the real structure. *)
  let free t p =
    if is_allocated t p then
      `Freed { t with allocated = List.filter (fun q -> q <> p) t.allocated }
    else `Rejects
end

(* ---- NAT: flow table + reverse port map + allocator ------------------- *)

module Nat = struct
  type t = {
    flows : Flow.t;  (** value = the flow's external port *)
    ports : Ports.t;
    ext : (int * int array) list;  (** external port -> internal flow key *)
  }

  let create ~capacity ~timeout ~granularity ~lo ~hi =
    {
      flows = Flow.create ~capacity ~timeout ~granularity;
      ports = Ports.create ~lo ~hi;
      ext = [];
    }

  let mem t key = Flow.mem t.flows key
  let ports_full t = Ports.full t.ports
  let table_full t = Flow.size t.flows >= t.flows.Flow.capacity

  (* add can only fail for want of a port, or of table room when the
     key is new: a live key is updated in place *)
  let add_should_fail t key =
    ports_full t || ((not (mem t key)) && table_full t)

  (* A live key is remapped: the new port replaces the old one, which
     loses its reverse mapping and goes back to the allocator. *)
  let add t key ~now ~returned =
    if returned = -1 then
      if add_should_fail t key then Ok t
      else Error "add_int returned -1 with room and ports available"
    else
      match Ports.alloc t.ports ~returned with
      | Error e -> Error e
      | Ok ports -> (
          let old = Flow.peek t.flows key in
          let flows, r = Flow.put t.flows key ~value:returned ~now in
          let ext = (returned, key) :: t.ext in
          match (r, old) with
          | Flow.Inserted, _ -> Ok { flows; ports; ext }
          | Flow.Updated, Some old -> (
              match Ports.free ports old with
              | `Freed ports ->
                  Ok { flows; ports; ext = List.remove_assoc old ext }
              | `Rejects -> Error "add_int remapped a key whose port was free")
          | Flow.Updated, None -> assert false
          | Flow.Full, _ -> Error "add_int succeeded on a full table")

  let lookup_int t key ~now =
    let flows, v = Flow.get t.flows key ~now in
    ({ t with flows }, match v with Some p -> p | None -> -1)

  let lookup_ext t ~port ~now =
    match List.assoc_opt port t.ext with
    | None -> (t, None)
    | Some key ->
        (* a hit refreshes the owning flow entry *)
        let flows, _ = Flow.get t.flows key ~now in
        ({ t with flows }, Some key)

  let expire t ~now =
    let flows, n, freed = Flow.expire t.flows ~now in
    let ports =
      List.fold_left
        (fun ports p ->
          match Ports.free ports p with
          | `Freed ports -> ports
          | `Rejects -> ports (* impossible under the add discipline *))
        t.ports freed
    in
    let ext = List.filter (fun (p, _) -> not (List.mem p freed)) t.ext in
    ({ flows; ports; ext }, n)
end

(* ---- Token bucket ----------------------------------------------------- *)

module Bucket = struct
  type t = { rate : int; burst : int; level : int; last : int }

  let create ~rate ~burst ~now = { rate; burst; level = burst; last = now }

  let refill t ~now =
    if now <= t.last then t
    else
      let delta = now - t.last in
      let level =
        if delta >= (t.burst + t.rate - 1) / t.rate then t.burst
        else min t.burst (t.level + (t.rate * delta))
      in
      { t with level; last = now }

  let conform t ~bytes ~now =
    let t = refill t ~now in
    if bytes <= t.level then ({ t with level = t.level - bytes }, 1)
    else (t, 0)
end

(* ---- LPM (either backend) --------------------------------------------- *)

module Lpm = struct
  type t = { default_port : int; routes : ((int * int) * int) list }

  let create ~default_port = { default_port; routes = [] }

  let add t ~prefix ~len ~port =
    { t with routes = ((prefix, len), port) :: List.remove_assoc (prefix, len) t.routes }

  let matches ~addr ~prefix ~len =
    len = 0 || addr lsr (32 - len) = prefix lsr (32 - len)

  (* longest matching prefix; at most one route of a given length can
     match an address, and [add] dedupes (prefix, len) pairs *)
  let lookup t addr =
    List.fold_left
      (fun (best_len, best_port) ((prefix, len), port) ->
        if len > best_len && matches ~addr ~prefix ~len then (len, port)
        else (best_len, best_port))
      (-1, t.default_port) t.routes
    |> snd
end
