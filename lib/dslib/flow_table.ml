(* Entry metadata (timestamp + LRU links) lives apart from the hash-map
   nodes: one 32-byte record per entry at [meta_base + 32*i]. *)

type t = {
  map : Hash_map.t;
  ts : int array;
  lru_prev : int array;
  lru_next : int array;
  mutable lru_head : int;  (** oldest *)
  mutable lru_tail : int;  (** newest *)
  meta_base : int;
  timeout : int;
  granularity : int;
  on_expire : (Exec.Meter.t -> value:int -> unit) option;
  on_expire_fast : (Exec.Ds.sink -> value:int -> unit) option;
      (** sink twin of [on_expire]; when absent while [on_expire] is
          present, [expire] cannot be specialized *)
}

let kind = "flow_table"

let create ?seed ~base ~key_len ~capacity ~buckets ~timeout
    ?(granularity = 1) ?on_expire ?on_expire_fast () =
  if timeout <= 0 || granularity <= 0 then
    invalid_arg "Flow_table.create: timeout and granularity must be positive";
  {
    map = Hash_map.create ?seed ~base ~key_len ~capacity ~buckets ();
    ts = Array.make capacity 0;
    lru_prev = Array.make capacity (-1);
    lru_next = Array.make capacity (-1);
    lru_head = -1;
    lru_tail = -1;
    meta_base = base + (8 * buckets) + (64 * capacity);
    timeout;
    granularity;
    on_expire;
    on_expire_fast;
  }

let size t = Hash_map.size t.map
let capacity t = Hash_map.capacity t.map
let key_len t = Hash_map.key_len t.map
let meta_addr t i = t.meta_base + (32 * i)
let stamp t now = now / t.granularity * t.granularity

(* LRU append at tail: 3 stores to the entry's meta line + tail pointer. *)
let lru_append t meter i =
  Costing.charge_store meter ~addr:(meta_addr t i) ();
  Costing.charge_store meter ~addr:(meta_addr t i + 8) ();
  Costing.charge_move meter 2;
  t.lru_prev.(i) <- t.lru_tail;
  t.lru_next.(i) <- -1;
  if t.lru_tail >= 0 then begin
    Costing.charge_store meter ~addr:(meta_addr t t.lru_tail + 16) ();
    t.lru_next.(t.lru_tail) <- i
  end
  else t.lru_head <- i;
  t.lru_tail <- i

let lru_unlink t meter i =
  Costing.charge_store meter ~addr:(meta_addr t i) ();
  Costing.charge_move meter 2;
  let prev = t.lru_prev.(i) and next = t.lru_next.(i) in
  (if prev >= 0 then begin
     Costing.charge_store meter ~addr:(meta_addr t prev + 16) ();
     t.lru_next.(prev) <- next
   end
   else t.lru_head <- next);
  if next >= 0 then begin
    Costing.charge_store meter ~addr:(meta_addr t next + 8) ();
    t.lru_prev.(next) <- prev
  end
  else t.lru_tail <- prev

let refresh t meter i ~now =
  Costing.charge_store meter ~addr:(meta_addr t i + 24) ();
  Costing.charge_alu meter 1;
  t.ts.(i) <- stamp t now;
  lru_unlink t meter i;
  lru_append t meter i

let expire t meter ~now =
  let count = ref 0 in
  Costing.charge_alu meter 2;
  let continue = ref true in
  while !continue do
    Costing.charge_branch meter 1;
    if t.lru_head < 0 then continue := false
    else begin
      let i = t.lru_head in
      Costing.charge_load meter ~addr:(meta_addr t i + 24) ();
      Costing.charge_alu meter 1;
      if t.ts.(i) + t.timeout > now then continue := false
      else begin
        incr count;
        (* read the key back to remove it from the map *)
        let key = Hash_map.key_words t.map i in
        for w = 0 to Hash_map.key_len t.map - 1 do
          Costing.charge_load meter ~addr:(Hash_map.node_addr t.map i + (8 * w))
            ()
        done;
        let value = Hash_map.value_of t.map meter i in
        let probe = Hash_map.remove t.map meter key in
        assert (probe.Hash_map.result = i);
        lru_unlink t meter i;
        Option.iter (fun f -> f meter ~value) t.on_expire
      end
    end
  done;
  Exec.Meter.observe meter Perf.Pcv.expired !count;
  !count

let refresh_entry t meter i ~now = refresh t meter i ~now

let get_probe t meter key ~now =
  let probe = Hash_map.get t.map meter key in
  if probe.Hash_map.result < 0 then (None, probe)
  else begin
    let i = probe.Hash_map.result in
    refresh t meter i ~now;
    (Some (Hash_map.value_of t.map meter i), probe)
  end

let get t meter key ~now = fst (get_probe t meter key ~now)

let map t = t.map

let put t meter key ~value ~now =
  let size_before = Hash_map.size t.map in
  let probe = Hash_map.put t.map meter key value in
  let i = probe.Hash_map.result in
  if i >= 0 then
    if Hash_map.size t.map > size_before then begin
      (* fresh insert: stamp and join the LRU queue *)
      Costing.charge_store meter ~addr:(meta_addr t i + 24) ();
      t.ts.(i) <- stamp t now;
      lru_append t meter i
    end
    else
      (* update in place: the node is already queued — a bare append here
         would corrupt the list (leaving it linked twice) *)
      refresh t meter i ~now;
  i

let mem_quiet t key =
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let probe = Hash_map.get t.map meter key in
  (* quiet lookup must not disturb LRU order, so bypass [get] *)
  probe.Hash_map.result >= 0

let key_at t i = Hash_map.key_words t.map i
let value_at t i =
  Hash_map.value_of t.map (Exec.Meter.create (Hw.Model.null ())) i

let hash_of_key t key = Hash_map.hash_of_key t.map key

let oldest_first t =
  let rec loop i acc = if i < 0 then List.rev acc
    else loop t.lru_next.(i) (i :: acc)
  in
  loop t.lru_head []

(* ---- specialized fast paths ----------------------------------------

   Sink twins of the metered operations above; see {!Hash_map} for the
   discipline.  [fast_expire] is only offered when the [on_expire]
   callback has a sink twin (or there is no callback at all). *)

module S = Costing.Sink

let fast_lru_append t s i =
  S.store s ~addr:(meta_addr t i) ();
  S.store s ~addr:(meta_addr t i + 8) ();
  S.move s 2;
  t.lru_prev.(i) <- t.lru_tail;
  t.lru_next.(i) <- -1;
  if t.lru_tail >= 0 then begin
    S.store s ~addr:(meta_addr t t.lru_tail + 16) ();
    t.lru_next.(t.lru_tail) <- i
  end
  else t.lru_head <- i;
  t.lru_tail <- i

let fast_lru_unlink t s i =
  S.store s ~addr:(meta_addr t i) ();
  S.move s 2;
  let prev = t.lru_prev.(i) and next = t.lru_next.(i) in
  (if prev >= 0 then begin
     S.store s ~addr:(meta_addr t prev + 16) ();
     t.lru_next.(prev) <- next
   end
   else t.lru_head <- next);
  if next >= 0 then begin
    S.store s ~addr:(meta_addr t next + 8) ();
    t.lru_prev.(next) <- prev
  end
  else t.lru_tail <- prev

(* Batched twin of the unlink+append charges: the timestamp store, the
   self-link stores (1 unlink + 2 append), the two moves each side, and
   one neighbour store per live neighbour — counted, then bulk-bumped. *)
let fast_refresh_batched t s i ~now =
  S.alu s 1;
  S.move s 4;
  t.ts.(i) <- stamp t now;
  let prev = t.lru_prev.(i) and next = t.lru_next.(i) in
  let n1 =
    if prev >= 0 then begin
      t.lru_next.(prev) <- next;
      1
    end
    else begin
      t.lru_head <- next;
      0
    end
  in
  let n2 =
    if next >= 0 then begin
      t.lru_prev.(next) <- prev;
      1
    end
    else begin
      t.lru_tail <- prev;
      0
    end
  in
  t.lru_prev.(i) <- t.lru_tail;
  t.lru_next.(i) <- -1;
  let n3 =
    if t.lru_tail >= 0 then begin
      t.lru_next.(t.lru_tail) <- i;
      1
    end
    else begin
      t.lru_head <- i;
      0
    end
  in
  t.lru_tail <- i;
  S.stores_b s (4 + n1 + n2 + n3)

let fast_refresh t s i ~now =
  if S.batched s then fast_refresh_batched t s i ~now
  else begin
    S.store s ~addr:(meta_addr t i + 24) ();
    S.alu s 1;
    t.ts.(i) <- stamp t now;
    fast_lru_unlink t s i;
    fast_lru_append t s i
  end

let fast_refresh_entry = fast_refresh

let fast_expire t s ~now =
  let count = ref 0 in
  S.alu s 2;
  let continue = ref true in
  while !continue do
    S.branch s 1;
    if t.lru_head < 0 then continue := false
    else begin
      let i = t.lru_head in
      S.load s ~addr:(meta_addr t i + 24) ();
      S.alu s 1;
      if t.ts.(i) + t.timeout > now then continue := false
      else begin
        incr count;
        for w = 0 to Hash_map.key_len t.map - 1 do
          S.load s ~addr:(Hash_map.node_addr t.map i + (8 * w)) ()
        done;
        let value = Hash_map.fast_value_of t.map s i in
        let r = Hash_map.fast_remove_node t.map s i in
        assert (r = i);
        fast_lru_unlink t s i;
        (* direct match, not [Option.iter]: no closure allocation on the
           zero-alloc path *)
        (match t.on_expire_fast with None -> () | Some f -> f s ~value)
      end
    end
  done;
  S.observe s Perf.Pcv.expired !count;
  !count

let fast_get t s (key : int array) ~off ~now =
  let node = Hash_map.fast_get t.map s key ~off in
  if node < 0 then -1
  else begin
    fast_refresh t s node ~now;
    Hash_map.fast_value_of t.map s node
  end

let fast_put t s (key : int array) ~off ~value ~now =
  let size_before = Hash_map.size t.map in
  let i = Hash_map.fast_put t.map s key ~off value in
  if i >= 0 then
    if Hash_map.size t.map > size_before then begin
      S.store s ~addr:(meta_addr t i + 24) ();
      t.ts.(i) <- stamp t now;
      fast_lru_append t s i
    end
    else fast_refresh t s i ~now;
  i

let fast_size t s =
  S.alu s 1;
  S.load s ~addr:(t.meta_base - 8) ();
  size t

let key_word_at t i w = Hash_map.key_word t.map i w

let to_ds t =
  let k = key_len t in
  let call meter meth (args : int array) =
    let key_of_args () = Array.sub args 0 k in
    match meth with
    | "expire" ->
        if Array.length args <> 1 then invalid_arg "flow_table.expire/1";
        expire t meter ~now:args.(0)
    | "get" ->
        if Array.length args <> k + 1 then invalid_arg "flow_table.get";
        let now = args.(k) in
        (match get t meter (key_of_args ()) ~now with
        | Some v -> v
        | None -> -1)
    | "put" ->
        if Array.length args <> k + 2 then invalid_arg "flow_table.put";
        put t meter (key_of_args ()) ~value:args.(k) ~now:args.(k + 1)
    | "size" ->
        Costing.charge_alu meter 1;
        Costing.charge_load meter ~addr:(t.meta_base - 8) ();
        size t
    | other -> invalid_arg ("flow_table: unknown method " ^ other)
  in
  let expire_ok =
    match (t.on_expire, t.on_expire_fast) with
    | Some _, None -> false
    | _ -> true
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "expire" when expire_ok ->
        Some
          (fun (args : int array) ->
            if Array.length args <> 1 then invalid_arg "flow_table.expire/1";
            fast_expire t s ~now:args.(0))
    | "get" ->
        Some
          (fun args ->
            if Array.length args <> k + 1 then invalid_arg "flow_table.get";
            fast_get t s args ~off:0 ~now:args.(k))
    | "put" ->
        Some
          (fun args ->
            if Array.length args <> k + 2 then invalid_arg "flow_table.put";
            fast_put t s args ~off:0 ~value:args.(k) ~now:args.(k + 1))
    | "size" -> Some (fun _ -> fast_size t s)
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  (* LRU append/unlink: at most 3 stores + 2 moves, touching 2 meta
     lines. *)
  let lru_append_cost =
    Cost_vec.make ~ic:(Perf_expr.const 5) ~ma:(Perf_expr.const 3)
      ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const 5)
                 ~ma:(Perf_expr.const 2))

  let lru_unlink_cost = lru_append_cost

  (* refresh = stamp (2) + unlink + append *)
  let refresh =
    Cost_vec.add
      (Cost_vec.make ~ic:(Perf_expr.const 2) ~ma:(Perf_expr.const 1)
         ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const 2)
                    ~ma:(Perf_expr.const 1)))
      (Cost_vec.add lru_unlink_cost lru_append_cost)

  let get_hit ~key_len =
    Cost_vec.add (Hash_map.Recipe.get_hit ~key_len) refresh

  let get_miss ~key_len = Hash_map.Recipe.get_miss ~key_len

  let put_new ~key_len =
    Cost_vec.add
      (Hash_map.Recipe.put_new ~key_len)
      (Cost_vec.add
         (Cost_vec.make ~ic:(Perf_expr.const 1) ~ma:(Perf_expr.const 1)
            ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const 1)
                       ~ma:(Perf_expr.const 1)))
         lru_append_cost)

  let put_update ~key_len =
    Cost_vec.add (Hash_map.Recipe.put_update ~key_len) refresh

  let put_full ~key_len = Hash_map.Recipe.put_full ~key_len

  let expire ~key_len ~per_entry_extra =
    let e = Perf_expr.pcv Pcv.expired in
    (* Per expired entry: loop check (2 IC, 1 MA) + key/value read-back
       (k+1 IC, k+1 MA) + map removal (c/t-dependent) + LRU unlink +
       callback. *)
    let per_entry =
      Cost_vec.sum
        [
          Cost_vec.make
            ~ic:(Perf_expr.const (4 + key_len + 1))
            ~ma:(Perf_expr.const (key_len + 2))
            ~cycles:(Costing.cycles_upper
                       ~ic:(Perf_expr.const (4 + key_len + 1))
                       ~ma:(Perf_expr.const 2));
          Hash_map.Recipe.remove_found ~key_len;
          lru_unlink_cost;
          per_entry_extra;
        ]
    in
    let scaled =
      Cost_vec.make
        ~ic:(Perf_expr.mul e (Cost_vec.get per_entry Metric.Instructions))
        ~ma:(Perf_expr.mul e (Cost_vec.get per_entry Metric.Memory_accesses))
        ~cycles:(Perf_expr.mul e (Cost_vec.get per_entry Metric.Cycles))
    in
    (* Fixed part: entry setup + the final surviving-head check. *)
    Cost_vec.add scaled
      (Cost_vec.make ~ic:(Perf_expr.const 5) ~ma:(Perf_expr.const 1)
         ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const 5)
                    ~ma:(Perf_expr.const 1)))

  let contract ~key_len ?(free_cost = Cost_vec.zero) () =
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"expire"
        [ branch ~tag:"expire" ~note:"e entries past their timeout"
            (expire ~key_len ~per_entry_extra:free_cost) ];
      make ~ds_kind:kind ~meth:"get"
        [
          branch ~tag:"hit" ~note:"flow present (refreshes entry)"
            (get_hit ~key_len);
          branch ~tag:"miss" ~note:"flow absent" (get_miss ~key_len);
        ];
      make ~ds_kind:kind ~meth:"put"
        [
          branch ~tag:"ok" ~note:"inserted (table not full)"
            (put_new ~key_len);
          branch ~tag:"full" ~note:"table full, not inserted"
            (put_full ~key_len);
        ];
      make ~ds_kind:kind ~meth:"size"
        [ branch ~tag:"ok" (Cost_vec.of_consts ~ic:2 ~ma:1
                              ~cycles:(6 * 2 + Hw.Cost.dram_cycles)) ];
    ]
end
