let kind = "nat_table"
let key_len = 5

type t = {
  ft : Flow_table.t;
  ext : int array;  (** port - port_lo → flow handle, or -1 *)
  ext_base : int;
  alloc : Port_alloc.t;
  port_lo : int;
  port_hi : int;
}

let create ~base ~capacity ~buckets ~timeout ?granularity ~alloc ~port_lo
    ~port_hi () =
  if port_hi < port_lo then invalid_arg "Nat_table.create: bad port range";
  let ext = Array.make (port_hi - port_lo + 1) (-1) in
  let ext_base = base + (12 * 1024 * 1024) in
  let cell = ref None in
  let on_expire meter ~value =
    match !cell with
    | None -> assert false
    | Some t ->
        (* value is the flow's external port: clear the reverse mapping
           and hand the port back to the allocator *)
        Costing.charge_store meter ~addr:(ext_base + (8 * (value - port_lo)))
          ();
        t.ext.(value - port_lo) <- -1;
        Port_alloc.free t.alloc meter value
  in
  let on_expire_fast s ~value =
    match !cell with
    | None -> assert false
    | Some t ->
        Costing.Sink.store s ~addr:(ext_base + (8 * (value - port_lo))) ();
        t.ext.(value - port_lo) <- -1;
        Port_alloc.fast_free t.alloc s value
  in
  let ft =
    Flow_table.create ~base ~key_len ~capacity ~buckets ~timeout ?granularity
      ~on_expire ~on_expire_fast ()
  in
  let t = { ft; ext; ext_base; alloc; port_lo; port_hi } in
  cell := Some t;
  t

let size t = Flow_table.size t.ft
let capacity t = Flow_table.capacity t.ft
let allocator t = t.alloc
let ext_addr t i = t.ext_base + (8 * i)
let value_addr t handle = Hash_map.node_addr (Flow_table.map t.ft) handle + 56
let expire t meter ~now = Flow_table.expire t.ft meter ~now

let lookup_int t meter key ~now =
  match Flow_table.get t.ft meter key ~now with
  | Some port -> port
  | None -> -1

(* A [put] that did not grow the table updated a live key in place:
   its previous port is read back from the entry, unmapped and freed, so
   the key keeps exactly one port (the new one).  The fresh-insert path
   charges nothing here. *)
let add_int t meter key ~now =
  let port = Port_alloc.alloc t.alloc meter in
  Costing.charge_branch meter 1;
  if port < 0 then -1
  else begin
    let size_before = Flow_table.size t.ft in
    let handle = Flow_table.put t.ft meter key ~value:port ~now in
    Costing.charge_branch meter 1;
    if handle < 0 then begin
      (* table full: roll the allocation back *)
      Port_alloc.free t.alloc meter port;
      -1
    end
    else begin
      if Flow_table.size t.ft = size_before then begin
        let old = Hash_map.replaced (Flow_table.map t.ft) in
        Costing.charge_load meter ~addr:(value_addr t handle) ();
        Costing.charge_branch meter 1;
        Costing.charge_store meter ~addr:(ext_addr t (old - t.port_lo)) ();
        t.ext.(old - t.port_lo) <- -1;
        Port_alloc.free t.alloc meter old
      end;
      Costing.charge_store meter ~addr:(ext_addr t (port - t.port_lo)) ();
      Costing.charge_alu meter 1;
      t.ext.(port - t.port_lo) <- handle;
      port
    end
  end

let lookup_ext t meter ~port ~now =
  Costing.charge_alu meter 2;
  Costing.charge_branch meter 1;
  if port < t.port_lo || port > t.port_hi then -1
  else begin
    let i = port - t.port_lo in
    Costing.charge_load meter ~addr:(ext_addr t i) ();
    Costing.charge_branch meter 1;
    let handle = t.ext.(i) in
    if handle >= 0 then Flow_table.refresh_entry t.ft meter handle ~now;
    handle
  end

let int_field t meter ~handle ~field =
  if field < 0 || field >= key_len then invalid_arg "Nat_table.int_field";
  Costing.charge_load meter ~addr:(0x100 + (handle * 64) + (8 * field)) ();
  Costing.charge_alu meter 1;
  (Flow_table.key_at t.ft handle).(field)

let flow_key_quiet t handle = Flow_table.key_at t.ft handle
let hash_of_flow t key = Flow_table.hash_of_key t.ft key

(* ---- specialized fast paths ----------------------------------------

   Sink twins of the metered operations; see {!Hash_map} for the
   discipline.  Keys are read in place from the caller's argv. *)

module S = Costing.Sink

let fast_expire t s ~now = Flow_table.fast_expire t.ft s ~now

let fast_lookup_int t s (key : int array) ~off ~now =
  Flow_table.fast_get t.ft s key ~off ~now

let fast_add_int t s (key : int array) ~off ~now =
  let port = Port_alloc.fast_alloc t.alloc s in
  S.branch s 1;
  if port < 0 then -1
  else begin
    let size_before = Flow_table.size t.ft in
    let handle = Flow_table.fast_put t.ft s key ~off ~value:port ~now in
    S.branch s 1;
    if handle < 0 then begin
      Port_alloc.fast_free t.alloc s port;
      -1
    end
    else begin
      if Flow_table.size t.ft = size_before then begin
        let old = Hash_map.replaced (Flow_table.map t.ft) in
        S.load s ~addr:(value_addr t handle) ();
        S.branch s 1;
        S.store s ~addr:(ext_addr t (old - t.port_lo)) ();
        t.ext.(old - t.port_lo) <- -1;
        Port_alloc.fast_free t.alloc s old
      end;
      S.store s ~addr:(ext_addr t (port - t.port_lo)) ();
      S.alu s 1;
      t.ext.(port - t.port_lo) <- handle;
      port
    end
  end

let fast_lookup_ext t s ~port ~now =
  S.alu s 2;
  S.branch s 1;
  if port < t.port_lo || port > t.port_hi then -1
  else begin
    let i = port - t.port_lo in
    S.load s ~addr:(ext_addr t i) ();
    S.branch s 1;
    let handle = t.ext.(i) in
    if handle >= 0 then Flow_table.fast_refresh_entry t.ft s handle ~now;
    handle
  end

let fast_int_field t s ~handle ~field =
  if field < 0 || field >= key_len then invalid_arg "Nat_table.int_field";
  S.load s ~addr:(0x100 + (handle * 64) + (8 * field)) ();
  S.alu s 1;
  Flow_table.key_word_at t.ft handle field

let to_ds t =
  let call meter meth (args : int array) =
    let key_of_args () = Array.sub args 0 key_len in
    match meth with
    | "expire" -> expire t meter ~now:args.(0)
    | "lookup_int" -> lookup_int t meter (key_of_args ()) ~now:args.(key_len)
    | "add_int" -> add_int t meter (key_of_args ()) ~now:args.(key_len)
    | "lookup_ext" -> lookup_ext t meter ~port:args.(0) ~now:args.(1)
    | "int_field" -> int_field t meter ~handle:args.(0) ~field:args.(1)
    | other -> invalid_arg ("nat_table: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "expire" -> Some (fun (args : int array) -> fast_expire t s ~now:args.(0))
    | "lookup_int" ->
        Some (fun args -> fast_lookup_int t s args ~off:0 ~now:args.(key_len))
    | "add_int" ->
        Some (fun args -> fast_add_int t s args ~off:0 ~now:args.(key_len))
    | "lookup_ext" ->
        Some (fun args -> fast_lookup_ext t s ~port:args.(0) ~now:args.(1))
    | "int_field" ->
        Some (fun args -> fast_int_field t s ~handle:args.(0) ~field:args.(1))
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  let alloc_recipes = function
    | "dll" -> (Port_alloc.Recipe.alloc_dll, Port_alloc.Recipe.free_dll)
    | "array" -> (Port_alloc.Recipe.alloc_array, Port_alloc.Recipe.free_array)
    | other -> invalid_arg ("Nat_table.Recipe: unknown allocator " ^ other)

  let const_vec ~ic ~ma ~lines =
    Cost_vec.make ~ic:(Perf_expr.const ic) ~ma:(Perf_expr.const ma)
      ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const ic)
                 ~ma:(Perf_expr.const lines))

  let contract ~alloc_name =
    let alloc_c, free_c = alloc_recipes alloc_name in
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"expire"
        [
          branch ~tag:"expire"
            ~note:"e flows past their timeout; each frees its port"
            (Flow_table.Recipe.expire ~key_len
               ~per_entry_extra:
                 (Cost_vec.add free_c (const_vec ~ic:1 ~ma:1 ~lines:1)));
        ];
      make ~ds_kind:kind ~meth:"lookup_int"
        [
          branch ~tag:"hit" ~note:"flow known (refreshes entry)"
            (Flow_table.Recipe.get_hit ~key_len);
          branch ~tag:"miss" ~note:"flow unknown"
            (Flow_table.Recipe.get_miss ~key_len);
        ];
      make ~ds_kind:kind ~meth:"add_int"
        [
          branch ~tag:"ok" ~note:"port allocated, flow installed"
            (Cost_vec.sum
               [
                 alloc_c;
                 Flow_table.Recipe.put_new ~key_len;
                 const_vec ~ic:4 ~ma:1 ~lines:1;
               ]);
          branch ~tag:"remap"
            ~note:"flow already installed: new port mapped, old one freed"
            (Cost_vec.sum
               [
                 alloc_c;
                 Flow_table.Recipe.put_update ~key_len;
                 free_c;
                 const_vec ~ic:7 ~ma:3 ~lines:3;
               ]);
          branch ~tag:"full" ~note:"flow table full (allocation rolled back)"
            (Cost_vec.sum
               [
                 alloc_c;
                 Flow_table.Recipe.put_full ~key_len;
                 free_c;
                 const_vec ~ic:2 ~ma:0 ~lines:0;
               ]);
          branch ~tag:"no_port" ~note:"port range exhausted"
            (Cost_vec.add alloc_c (const_vec ~ic:1 ~ma:0 ~lines:0));
        ];
      make ~ds_kind:kind ~meth:"lookup_ext"
        [
          branch ~tag:"hit" ~note:"port mapped (refreshes entry)"
            (Cost_vec.add
               (const_vec ~ic:5 ~ma:1 ~lines:1)
               (Cost_vec.add Flow_table.Recipe.refresh
                  (const_vec ~ic:2 ~ma:1 ~lines:1)));
          branch ~tag:"miss" ~note:"port unmapped"
            (* the miss path is branch-heavy (2 of its 4 instructions are
               worst-case mispredicts), so the uniform per-instruction
               cycle factor needs extra IC headroom to stay conservative *)
            (const_vec ~ic:7 ~ma:1 ~lines:1);
        ];
      make ~ds_kind:kind ~meth:"int_field"
        [ branch ~tag:"ok" (const_vec ~ic:2 ~ma:1 ~lines:1) ];
    ]
end
