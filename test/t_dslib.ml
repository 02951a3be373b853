(* Tests for the stateful data-structure library, including the
   contract-validation properties: for arbitrary operation sequences, the
   expert-written contract evaluated at the observed PCVs must dominate
   the metered cost of every operation. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let quiet () = Exec.Meter.create (Hw.Model.null ())
let fresh_base = let next = ref 0x4000_0000 in
  fun () -> let b = !next in next := b + 0x100_0000; b

(* Measure one operation: returns (result, ic, ma, cycles, c, t) using a
   conservative model so cycles are comparable to contract cycles. *)
let metered f =
  let meter = Exec.Meter.create (Hw.Model.conservative ()) in
  let r = f meter in
  ( r,
    Exec.Meter.ic meter,
    Exec.Meter.ma meter,
    Exec.Meter.cycles meter,
    Exec.Meter.pcv_max meter )

let dominates_measured ~what (cost : Perf.Cost_vec.t) ~binding ~ic ~ma
    ~cycles =
  let ev m = Perf.Cost_vec.eval_exn binding cost m in
  let p_ic = ev Perf.Metric.Instructions in
  let p_ma = ev Perf.Metric.Memory_accesses in
  let p_cy = ev Perf.Metric.Cycles in
  if p_ic < ic || p_ma < ma || p_cy < cycles then
    Alcotest.fail
      (Printf.sprintf
         "%s: contract (%d,%d,%d) under-approximates measured (%d,%d,%d) at %s"
         what p_ic p_ma p_cy ic ma cycles
         (Fmt.to_to_string Perf.Pcv.pp_binding binding))

let full_binding binding =
  (* contracts may mention PCVs the op did not observe; bind them to 0 *)
  let add pcv b = if Perf.Pcv.lookup b pcv = None then (pcv, 0) :: b else b in
  Perf.Pcv.[ expired; collisions; traversals; occupancy; scan ]
  |> List.fold_left (fun b p -> add p b) binding

(* ---- Hash map ---------------------------------------------------------- *)

let test_hash_map_semantics () =
  let m = Dslib.Hash_map.create ~base:(fresh_base ()) ~key_len:2
      ~capacity:8 ~buckets:4 () in
  let k1 = [| 1; 2 |] and k2 = [| 3; 4 |] in
  check_int "miss" (-1) (Dslib.Hash_map.get m (quiet ()) k1).Dslib.Hash_map.result;
  let p1 = Dslib.Hash_map.put m (quiet ()) k1 100 in
  check_bool "inserted" true (p1.Dslib.Hash_map.result >= 0);
  check_int "size" 1 (Dslib.Hash_map.size m);
  let g = Dslib.Hash_map.get m (quiet ()) k1 in
  check_int "value" 100
    (Dslib.Hash_map.value_of m (quiet ()) g.Dslib.Hash_map.result);
  (* update in place *)
  let p1' = Dslib.Hash_map.put m (quiet ()) k1 200 in
  check_int "same node" p1.Dslib.Hash_map.result p1'.Dslib.Hash_map.result;
  check_int "size unchanged" 1 (Dslib.Hash_map.size m);
  ignore (Dslib.Hash_map.put m (quiet ()) k2 7);
  let r = Dslib.Hash_map.remove m (quiet ()) k1 in
  check_bool "removed" true (r.Dslib.Hash_map.result >= 0);
  check_int "miss after remove" (-1)
    (Dslib.Hash_map.get m (quiet ()) k1).Dslib.Hash_map.result;
  check_int "k2 intact" 7
    (Dslib.Hash_map.value_of m (quiet ())
       (Dslib.Hash_map.get m (quiet ()) k2).Dslib.Hash_map.result)

let test_hash_map_full () =
  let m = Dslib.Hash_map.create ~base:(fresh_base ()) ~key_len:1
      ~capacity:2 ~buckets:2 () in
  ignore (Dslib.Hash_map.put m (quiet ()) [| 1 |] 1);
  ignore (Dslib.Hash_map.put m (quiet ()) [| 2 |] 2);
  check_int "full" (-1) (Dslib.Hash_map.put m (quiet ()) [| 3 |] 3).Dslib.Hash_map.result;
  (* remove then reinsert reuses the slot *)
  ignore (Dslib.Hash_map.remove m (quiet ()) [| 1 |]);
  check_bool "reusable" true
    ((Dslib.Hash_map.put m (quiet ()) [| 3 |] 3).Dslib.Hash_map.result >= 0)

let test_hash_map_collisions () =
  let m = Dslib.Hash_map.create ~base:(fresh_base ()) ~key_len:1
      ~capacity:16 ~buckets:4 () in
  (* force three keys into one bucket *)
  let bucket = Dslib.Hash_map.hash_of_key m [| 0 |] in
  let colliding = ref [] in
  let k = ref 0 in
  while List.length !colliding < 3 do
    if Dslib.Hash_map.hash_of_key m [| !k |] = bucket then
      colliding := [| !k |] :: !colliding;
    incr k
  done;
  List.iter (fun key -> ignore (Dslib.Hash_map.put m (quiet ()) key 1)) !colliding;
  (* inserts push at the chain head, so the first-inserted key (the list
     head) sits at the chain tail *)
  let oldest = List.nth !colliding 0 in
  let probe = Dslib.Hash_map.get m (quiet ()) oldest in
  check_int "walked the chain" 3 probe.Dslib.Hash_map.traversals;
  check_int "collisions en route" 2 probe.Dslib.Hash_map.collisions

let test_hash_map_reseed () =
  let m = Dslib.Hash_map.create ~base:(fresh_base ()) ~key_len:1
      ~capacity:32 ~buckets:8 () in
  for i = 1 to 20 do
    ignore (Dslib.Hash_map.put m (quiet ()) [| i * 7 |] i)
  done;
  Dslib.Hash_map.reseed m (quiet ()) ~seed:991;
  check_int "size preserved" 20 (Dslib.Hash_map.size m);
  for i = 1 to 20 do
    let g = Dslib.Hash_map.get m (quiet ()) [| i * 7 |] in
    check_int "value preserved" i
      (Dslib.Hash_map.value_of m (quiet ()) g.Dslib.Hash_map.result)
  done

(* qcheck: contract domination for random hash-map op sequences *)
let prop_hash_map_contract =
  let key_len = 3 in
  QCheck2.Test.make ~count:60 ~name:"hash_map contracts dominate metered cost"
    QCheck2.Gen.(list_size (int_range 1 60)
                   (pair (int_range 0 2) (int_range 0 9)))
    (fun ops ->
      let m = Dslib.Hash_map.create ~base:(fresh_base ()) ~key_len
          ~capacity:16 ~buckets:4 () in
      List.iter
        (fun (op, kv) ->
          let key = [| kv; kv + 1; kv * 3 |] in
          match op with
          | 0 ->
              let probe, ic, ma, cy, binding =
                metered (fun meter -> Dslib.Hash_map.get m meter key)
              in
              let recipe =
                if probe.Dslib.Hash_map.result >= 0 then
                  Dslib.Hash_map.Recipe.get_hit ~key_len
                else Dslib.Hash_map.Recipe.get_miss ~key_len
              in
              (* the +1 IC/MA slack of get_hit covers the caller's
                 value read, which this raw test does not perform *)
              dominates_measured ~what:"get" recipe
                ~binding:(full_binding binding) ~ic ~ma ~cycles:cy
          | 1 ->
              let probe, ic, ma, cy, binding =
                metered (fun meter -> Dslib.Hash_map.put m meter key kv)
              in
              let recipe =
                if probe.Dslib.Hash_map.result < 0 then
                  Dslib.Hash_map.Recipe.put_full ~key_len
                else Dslib.Hash_map.Recipe.put_new ~key_len
              in
              (* put_new dominates put_update, so we use it for both *)
              dominates_measured ~what:"put" recipe
                ~binding:(full_binding binding) ~ic ~ma ~cycles:cy
          | _ ->
              let probe, ic, ma, cy, binding =
                metered (fun meter -> Dslib.Hash_map.remove m meter key)
              in
              if probe.Dslib.Hash_map.result >= 0 then
                dominates_measured ~what:"remove"
                  (Dslib.Hash_map.Recipe.remove_found ~key_len)
                  ~binding:(full_binding binding) ~ic ~ma ~cycles:cy)
        ops;
      true)

(* ---- Flow table -------------------------------------------------------- *)

let flow_table ?(timeout = 1000) ?granularity ?on_expire () =
  Dslib.Flow_table.create ~base:(fresh_base ()) ~key_len:2 ~capacity:16
    ~buckets:8 ~timeout ?granularity ?on_expire ()

let test_flow_table_expiry_order () =
  let ft = flow_table () in
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 1; 1 |] ~value:1 ~now:100);
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 2; 2 |] ~value:2 ~now:200);
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 3; 3 |] ~value:3 ~now:300);
  (* refresh the oldest: it moves to the back of the expiry queue *)
  ignore (Dslib.Flow_table.get ft (quiet ()) [| 1; 1 |] ~now:400);
  check_int "two expire" 2 (Dslib.Flow_table.expire ft (quiet ()) ~now:1350);
  check_bool "refreshed survives" true
    (Dslib.Flow_table.mem_quiet ft [| 1; 1 |]);
  check_bool "stale gone" false (Dslib.Flow_table.mem_quiet ft [| 2; 2 |])

let test_flow_table_granularity_batching () =
  (* second-granularity timestamps batch expirations (the VigNAT bug) *)
  let ft = flow_table ~timeout:1_000_000 ~granularity:1_000_000 () in
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 1; 0 |] ~value:1 ~now:1_000_100);
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 2; 0 |] ~value:2 ~now:1_900_000);
  (* both were stamped at 1_000_000, so both expire together *)
  check_int "batched" 2
    (Dslib.Flow_table.expire ft (quiet ()) ~now:2_000_001);
  let ft = flow_table ~timeout:1_000_000 ~granularity:1_000 () in
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 1; 0 |] ~value:1 ~now:1_000_100);
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 2; 0 |] ~value:2 ~now:1_900_000);
  check_int "not batched" 1
    (Dslib.Flow_table.expire ft (quiet ()) ~now:2_000_001)

let test_flow_table_update_keeps_lru_sane () =
  (* regression: put on an existing key must re-queue, not double-link
     (found by the maglev per-packet soundness property) *)
  let ft = flow_table () in
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 1; 1 |] ~value:1 ~now:100);
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 2; 2 |] ~value:2 ~now:200);
  (* update the older entry: it must move behind [2;2] in expiry order *)
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 1; 1 |] ~value:9 ~now:300);
  check_int "size unchanged" 2 (Dslib.Flow_table.size ft);
  check_int "value updated" 9
    (Option.get (Dslib.Flow_table.get ft (quiet ()) [| 1; 1 |] ~now:310));
  let order = Dslib.Flow_table.oldest_first ft in
  check_int "lru list intact" 2 (List.length order);
  (* expire everything: must terminate and count correctly *)
  check_int "mass expiry sane" 2
    (Dslib.Flow_table.expire ft (quiet ()) ~now:1_000_000);
  check_int "empty after" 0 (Dslib.Flow_table.size ft)

let test_flow_table_on_expire () =
  let freed = ref [] in
  let ft =
    flow_table ~on_expire:(fun _ ~value -> freed := value :: !freed) ()
  in
  ignore (Dslib.Flow_table.put ft (quiet ()) [| 1; 1 |] ~value:42 ~now:0);
  ignore (Dslib.Flow_table.expire ft (quiet ()) ~now:5000);
  check_bool "callback ran" true (!freed = [ 42 ])

let prop_flow_table_expire_contract =
  QCheck2.Test.make ~count:40
    ~name:"flow_table expire contract dominates metered cost"
    QCheck2.Gen.(int_range 0 14)
    (fun n ->
      let ft = flow_table () in
      for i = 1 to n do
        ignore (Dslib.Flow_table.put ft (quiet ()) [| i; i |] ~value:i ~now:0)
      done;
      let count, ic, ma, cy, binding =
        metered (fun meter -> Dslib.Flow_table.expire ft meter ~now:100_000)
      in
      if count <> n then Alcotest.fail "wrong expiry count";
      dominates_measured ~what:"expire"
        (Dslib.Flow_table.Recipe.expire ~key_len:2
           ~per_entry_extra:Perf.Cost_vec.zero)
        ~binding:(full_binding binding) ~ic ~ma ~cycles:cy;
      true)

(* ---- MAC table ---------------------------------------------------------- *)

let mac_table ?(threshold = 3) ?(buckets = 4) ?(capacity = 32) () =
  Dslib.Mac_table.create ~base:(fresh_base ()) ~capacity ~buckets
    ~timeout:1_000_000 ~threshold ()

let test_mac_table_learn_lookup () =
  let t = mac_table () in
  Dslib.Mac_table.learn t (quiet ()) ~mac:0xaa ~port:2 ~now:0;
  check_int "lookup" 2 (Dslib.Mac_table.lookup t (quiet ()) ~mac:0xaa);
  check_int "unknown" (-1) (Dslib.Mac_table.lookup t (quiet ()) ~mac:0xbb);
  (* station moved: port updates *)
  Dslib.Mac_table.learn t (quiet ()) ~mac:0xaa ~port:5 ~now:10;
  check_int "moved" 5 (Dslib.Mac_table.lookup t (quiet ()) ~mac:0xaa)

let test_mac_table_rehash_defence () =
  let t = mac_table ~threshold:3 ~buckets:4 () in
  (* feed colliding MACs until the probe exceeds the threshold *)
  let bucket = Dslib.Mac_table.hash_of_mac t 0 in
  let colliding = ref [] in
  let m = ref 1 in
  while List.length !colliding < 6 do
    if Dslib.Mac_table.hash_of_mac t !m = bucket then
      colliding := !m :: !colliding;
    incr m
  done;
  List.iter
    (fun mac -> Dslib.Mac_table.learn t (quiet ()) ~mac ~port:1 ~now:0)
    !colliding;
  check_bool "defence fired" true (Dslib.Mac_table.rehash_count t > 0);
  (* all entries survive the rehash *)
  List.iter
    (fun mac ->
      check_int "entry survived" 1 (Dslib.Mac_table.lookup t (quiet ()) ~mac))
    !colliding

let test_mac_table_contract_rehash () =
  let buckets = 4 and capacity = 32 in
  let t = mac_table ~threshold:2 ~buckets ~capacity () in
  let contract_lib =
    Perf.Ds_contract.library
      (Dslib.Mac_table.Recipe.contract ~buckets ~capacity)
  in
  let learn_contract =
    Perf.Ds_contract.find_exn contract_lib ~ds_kind:"mac_table" ~meth:"learn"
  in
  let bucket = Dslib.Mac_table.hash_of_mac t 0 in
  let m = ref 1 in
  let seen_rehash = ref false in
  while not !seen_rehash && !m < 1_000_000 do
    if Dslib.Mac_table.hash_of_mac t !m = bucket then begin
      let rehashes_before = Dslib.Mac_table.rehash_count t in
      let (), ic, ma, cy, binding =
        metered (fun meter ->
            Dslib.Mac_table.learn t meter ~mac:!m ~port:1 ~now:0)
      in
      if Dslib.Mac_table.rehash_count t > rehashes_before then begin
        seen_rehash := true;
        let branch =
          Perf.Ds_contract.find_branch_exn learn_contract ~tag:"rehash"
        in
        let binding =
          (Perf.Pcv.occupancy, Dslib.Mac_table.size t) :: binding
        in
        dominates_measured ~what:"learn+rehash" branch.Perf.Ds_contract.cost
          ~binding:(full_binding binding) ~ic ~ma ~cycles:cy
      end
    end;
    incr m
  done;
  check_bool "exercised a rehash" true !seen_rehash

let test_mac_table_rehash_cliff_high_occupancy () =
  (* the Table 4 cliff at its worst reachable state: a table filled to
     capacity into ONE bucket (adversarial synthesis), then one more
     learn walks the full chain, trips the defence and rehashes every
     entry.  The golden contract's rehash branch — the worst-case row —
     must bound the metered cost of that whole storm. *)
  let buckets = 4 and capacity = 24 in
  let t = mac_table ~threshold:2 ~buckets ~capacity () in
  Workload.Adversarial.fill_mac_table_collided t
    (Workload.Prng.create ~seed:13)
    ~port:1 ~stamped_at:0;
  check_int "synthesized at capacity" capacity (Dslib.Mac_table.size t);
  let contract_lib =
    Perf.Ds_contract.library
      (Dslib.Mac_table.Recipe.contract ~buckets ~capacity)
  in
  let learn_contract =
    Perf.Ds_contract.find_exn contract_lib ~ds_kind:"mac_table" ~meth:"learn"
  in
  (* a fresh mac aimed at the synthesized chain's bucket (the fill
     targets bucket 0): the miss probe walks the whole chain, crosses
     the threshold and trips the defence even though the table is full *)
  let m = ref 0 in
  while
    Dslib.Mac_table.hash_of_mac t !m <> 0
    || Dslib.Mac_table.lookup t (quiet ()) ~mac:!m >= 0
  do
    incr m
  done;
  let before = Dslib.Mac_table.rehash_count t in
  let (), ic, ma, cy, binding =
    metered (fun meter -> Dslib.Mac_table.learn t meter ~mac:!m ~port:2 ~now:0)
  in
  check_bool "crossed the growth threshold" true
    (Dslib.Mac_table.rehash_count t > before);
  let size = Dslib.Mac_table.size t in
  (* the reseed walks chains the meter does not observe as traversals of
     this learn, but occupancy bounds any chain it can meet *)
  let obs_t =
    Option.value ~default:0 (Perf.Pcv.lookup binding Perf.Pcv.traversals)
  in
  let binding =
    (Perf.Pcv.occupancy, size)
    :: (Perf.Pcv.traversals, max obs_t size)
    :: binding
  in
  let branch = Perf.Ds_contract.find_branch_exn learn_contract ~tag:"rehash" in
  dominates_measured ~what:"rehash cliff at capacity"
    branch.Perf.Ds_contract.cost
    ~binding:(full_binding binding) ~ic ~ma ~cycles:cy;
  dominates_measured ~what:"worst-case row at capacity"
    (Perf.Ds_contract.worst_case learn_contract)
    ~binding:(full_binding binding) ~ic ~ma ~cycles:cy

(* ---- LPM ---------------------------------------------------------------- *)

let test_lpm_dir24_8 () =
  let lpm = Dslib.Lpm_dir24_8.create ~base:(fresh_base ()) ~default_port:0 in
  let ip = Net.Ipv4.addr_of_parts in
  Dslib.Lpm_dir24_8.add_route lpm ~prefix:(ip 10 0 0 0) ~len:16 ~port:1;
  Dslib.Lpm_dir24_8.add_route lpm ~prefix:(ip 10 1 0 0) ~len:24 ~port:2;
  Dslib.Lpm_dir24_8.add_route lpm ~prefix:(ip 10 1 0 128) ~len:25 ~port:3;
  check_int "default" 0 (Dslib.Lpm_dir24_8.lookup_quiet lpm (ip 99 0 0 1));
  check_int "/16" 1 (Dslib.Lpm_dir24_8.lookup_quiet lpm (ip 10 0 200 1));
  check_int "/24" 2 (Dslib.Lpm_dir24_8.lookup_quiet lpm (ip 10 1 0 5));
  check_int "/25 wins" 3 (Dslib.Lpm_dir24_8.lookup_quiet lpm (ip 10 1 0 200));
  check_bool "short path" false (Dslib.Lpm_dir24_8.uses_tbl8 lpm (ip 10 0 200 1));
  check_bool "long path" true (Dslib.Lpm_dir24_8.uses_tbl8 lpm (ip 10 1 0 5))

let test_lpm_trie_matches_dir24_8 () =
  (* differential test: both LPM implementations agree *)
  let rng = Workload.Prng.create ~seed:77 in
  let dir = Dslib.Lpm_dir24_8.create ~base:(fresh_base ()) ~default_port:0 in
  let trie = Dslib.Lpm_trie.create ~base:(fresh_base ()) ~default_port:0 in
  for _ = 1 to 40 do
    let len = Workload.Prng.range rng ~lo:10 ~hi:30 in
    let prefix =
      Workload.Prng.below rng (1 lsl 30) land lnot ((1 lsl (32 - len)) - 1)
    in
    let port = Workload.Prng.range rng ~lo:1 ~hi:250 in
    Dslib.Lpm_dir24_8.add_route dir ~prefix ~len ~port;
    Dslib.Lpm_trie.add_route trie ~prefix ~len ~port
  done;
  for _ = 1 to 500 do
    let ip = Workload.Prng.below rng (1 lsl 32) in
    check_int "same route"
      (Dslib.Lpm_dir24_8.lookup_quiet dir ip)
      (Dslib.Lpm_trie.lookup_quiet trie ip)
  done

let test_lpm_trie_exact_cost () =
  (* Table 2: lookup costs exactly 4l+2 instructions and l+1 accesses *)
  let trie = Dslib.Lpm_trie.create ~base:(fresh_base ()) ~default_port:0 in
  Dslib.Lpm_trie.add_route trie ~prefix:(Net.Ipv4.addr_of_parts 192 168 0 0)
    ~len:16 ~port:9;
  let probe ip =
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    let port = Dslib.Lpm_trie.lookup trie meter ip in
    (port, Exec.Meter.ic meter, Exec.Meter.ma meter)
  in
  let l = Dslib.Lpm_trie.matched_len trie (Net.Ipv4.addr_of_parts 192 168 3 4) in
  check_int "matched 16 bits" 16 l;
  let port, ic, ma = probe (Net.Ipv4.addr_of_parts 192 168 3 4) in
  check_int "port" 9 port;
  check_int "ic = 4l+2" ((4 * l) + 2) ic;
  check_int "ma = l+1" (l + 1) ma

(* ---- Hash ring / backend pool ------------------------------------------ *)

let test_hash_ring () =
  let ring = Dslib.Hash_ring.create ~base:(fresh_base ()) ~table_size:4099
      ~backends:[ 1; 2; 3; 4; 5 ] in
  (* balanced within ~2x of fair share *)
  List.iter
    (fun b ->
      let share = Dslib.Hash_ring.share ring b in
      check_bool "balanced" true (share > 0.1 && share < 0.4))
    [ 1; 2; 3; 4; 5 ];
  (* deterministic *)
  check_int "deterministic"
    (Dslib.Hash_ring.backend_for_quiet ring 12345)
    (Dslib.Hash_ring.backend_for_quiet ring 12345);
  (* minimal disruption: removing one backend only remaps its slots *)
  let before = List.init 200 (fun h -> Dslib.Hash_ring.backend_for_quiet ring h) in
  Dslib.Hash_ring.rebuild ring ~backends:[ 1; 2; 3; 4 ];
  let after = List.init 200 (fun h -> Dslib.Hash_ring.backend_for_quiet ring h) in
  let moved =
    List.fold_left2
      (fun acc b a -> if b <> a && b <> 5 then acc + 1 else acc)
      0 before after
  in
  check_bool "mostly stable" true (moved < 60);
  (match Dslib.Hash_ring.create ~base:0 ~table_size:4098 ~backends:[ 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-prime size accepted")

let test_backend_pool () =
  let pool = Dslib.Backend_pool.create ~base:(fresh_base ()) ~count:4
      ~timeout:1000 in
  check_int "dead initially" 0
    (Dslib.Backend_pool.is_alive pool (quiet ()) ~backend:2 ~now:50);
  ignore (Dslib.Backend_pool.heartbeat pool (quiet ()) ~backend:2 ~now:100);
  check_int "alive" 1
    (Dslib.Backend_pool.is_alive pool (quiet ()) ~backend:2 ~now:1000);
  check_int "times out" 0
    (Dslib.Backend_pool.is_alive pool (quiet ()) ~backend:2 ~now:1200);
  check_int "bad id" 0
    (Dslib.Backend_pool.is_alive pool (quiet ()) ~backend:9 ~now:0)

(* ---- Port allocators ----------------------------------------------------- *)

let test_port_alloc_semantics () =
  List.iter
    (fun make ->
      let a = make ~base:(fresh_base ()) ~port_lo:100 ~port_hi:103 in
      let p1 = Dslib.Port_alloc.alloc a (quiet ()) in
      check_bool "in range" true (p1 >= 100 && p1 <= 103);
      check_bool "marked" true (Dslib.Port_alloc.is_allocated a p1);
      let rec drain acc =
        let p = Dslib.Port_alloc.alloc a (quiet ()) in
        if p < 0 then acc else drain (p :: acc)
      in
      let rest = drain [] in
      check_int "exhausted after capacity" 3 (List.length rest);
      check_int "exhausted" (-1) (Dslib.Port_alloc.alloc a (quiet ()));
      Dslib.Port_alloc.free a (quiet ()) p1;
      check_int "free enables alloc" p1 (Dslib.Port_alloc.alloc a (quiet ()));
      (match Dslib.Port_alloc.free a (quiet ()) 999 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bad free accepted"))
    [ Dslib.Port_alloc.dll; Dslib.Port_alloc.array ]

let test_port_alloc_scan_tracks_occupancy () =
  let b = Dslib.Port_alloc.array ~base:(fresh_base ()) ~port_lo:0
      ~port_hi:1023 in
  (* fill 90% *)
  for _ = 1 to 920 do
    ignore (Dslib.Port_alloc.alloc b (quiet ()))
  done;
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  ignore (Dslib.Port_alloc.alloc b meter);
  let scan_full =
    Option.get (Perf.Pcv.lookup (Exec.Meter.pcv_max meter) Perf.Pcv.scan)
  in
  check_bool "long scan when nearly full" true (scan_full >= 10);
  let b2 = Dslib.Port_alloc.array ~base:(fresh_base ()) ~port_lo:0
      ~port_hi:1023 in
  ignore (Dslib.Port_alloc.alloc b2 (quiet ()));
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  ignore (Dslib.Port_alloc.alloc b2 meter);
  let scan_empty =
    Option.get (Perf.Pcv.lookup (Exec.Meter.pcv_max meter) Perf.Pcv.scan)
  in
  check_bool "short scan when empty" true (scan_empty <= 1)

let test_port_alloc_exhaustion_edges () =
  (* the same edge discipline on both backends: exhaustion is a stable
     -1 (not an exception), frees of unallocated ports raise whether
     they are out of range or merely not live, and the single freed port
     is exactly what the next alloc finds *)
  List.iter
    (fun make ->
      let a = make ~base:(fresh_base ()) ~port_lo:200 ~port_hi:207 in
      for _ = 1 to 8 do
        check_bool "fills" true (Dslib.Port_alloc.alloc a (quiet ()) >= 0)
      done;
      check_int "exhausted" (-1) (Dslib.Port_alloc.alloc a (quiet ()));
      check_int "exhaustion is stable" (-1)
        (Dslib.Port_alloc.alloc a (quiet ()));
      List.iter
        (fun bad ->
          match Dslib.Port_alloc.free a (quiet ()) bad with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.fail "out-of-range free accepted")
        [ 199; 208; -1 ];
      Dslib.Port_alloc.free a (quiet ()) 203;
      (match Dslib.Port_alloc.free a (quiet ()) 203 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "double free accepted");
      check_int "finds the one free port" 203
        (Dslib.Port_alloc.alloc a (quiet ()));
      check_int "exhausted again" (-1) (Dslib.Port_alloc.alloc a (quiet ())))
    [ Dslib.Port_alloc.dll; Dslib.Port_alloc.array ]

let test_port_alloc_scan_contract_high_occupancy () =
  (* the array backend's worst case: lowest-free scan with the only
     hole in the last bitmap word, so the scan skips every full word
     before it — the observed scan PCV must be the long one and the
     contract evaluated at it must still dominate the metered cost *)
  let a =
    Dslib.Port_alloc.array ~base:(fresh_base ()) ~port_lo:0 ~port_hi:255
  in
  for _ = 0 to 255 do
    ignore (Dslib.Port_alloc.alloc a (quiet ()))
  done;
  Dslib.Port_alloc.free a (quiet ()) 250;
  let p, ic, ma, cy, binding =
    metered (fun meter -> Dslib.Port_alloc.alloc a meter)
  in
  check_int "recovers the hole" 250 p;
  let s = Option.value ~default:0 (Perf.Pcv.lookup binding Perf.Pcv.scan) in
  (* 256 ports = 4 bitmap words; words 0-2 are full, so the scan skips
     all three before landing in the word holding the hole *)
  check_int "scan skipped every full word" 3 s;
  dominates_measured ~what:"alloc at 255/256 occupancy"
    (Dslib.Port_alloc.Recipe.alloc_cost a)
    ~binding:(full_binding binding) ~ic ~ma ~cycles:cy

let prop_port_alloc_contracts =
  QCheck2.Test.make ~count:40 ~name:"allocator contracts dominate metered cost"
    QCheck2.Gen.(pair bool (list_size (int_range 1 40) bool))
    (fun (use_dll, ops) ->
      let make = if use_dll then Dslib.Port_alloc.dll else Dslib.Port_alloc.array in
      let a = make ~base:(fresh_base ()) ~port_lo:0 ~port_hi:63 in
      let live = ref [] in
      List.iter
        (fun do_alloc ->
          if do_alloc || !live = [] then begin
            let p, ic, ma, cy, binding =
              metered (fun meter -> Dslib.Port_alloc.alloc a meter)
            in
            if p >= 0 then live := p :: !live;
            dominates_measured ~what:"alloc" (Dslib.Port_alloc.Recipe.alloc_cost a)
              ~binding:(full_binding binding) ~ic ~ma ~cycles:cy
          end
          else
            match !live with
            | [] -> ()
            | p :: rest ->
                live := rest;
                let (), ic, ma, cy, binding =
                  metered (fun meter -> Dslib.Port_alloc.free a meter p)
                in
                dominates_measured ~what:"free" (Dslib.Port_alloc.Recipe.free_cost a)
                  ~binding:(full_binding binding) ~ic ~ma ~cycles:cy)
        ops;
      true)

(* ---- NAT table ----------------------------------------------------------- *)

let nat_table () =
  let base = fresh_base () in
  let alloc = Dslib.Port_alloc.dll ~base:(fresh_base ()) ~port_lo:1000
      ~port_hi:1063 in
  Dslib.Nat_table.create ~base ~capacity:16 ~buckets:8 ~timeout:1000
    ~alloc ~port_lo:1000 ~port_hi:1063 ()

let test_nat_table_flow_lifecycle () =
  let nat = nat_table () in
  let key = [| 10; 20; 30; 40; 17 |] in
  check_int "unknown" (-1) (Dslib.Nat_table.lookup_int nat (quiet ()) key ~now:0);
  let port = Dslib.Nat_table.add_int nat (quiet ()) key ~now:0 in
  check_bool "allocated" true (port >= 1000);
  check_int "known" port (Dslib.Nat_table.lookup_int nat (quiet ()) key ~now:10);
  let handle = Dslib.Nat_table.lookup_ext nat (quiet ()) ~port ~now:20 in
  check_bool "reverse mapping" true (handle >= 0);
  check_int "field src_ip" 10
    (Dslib.Nat_table.int_field nat (quiet ()) ~handle ~field:0);
  check_int "field src_port" 30
    (Dslib.Nat_table.int_field nat (quiet ()) ~handle ~field:2);
  (* expiry frees the port and clears the reverse map *)
  check_int "expired" 1 (Dslib.Nat_table.expire nat (quiet ()) ~now:100_000);
  check_int "reverse gone" (-1)
    (Dslib.Nat_table.lookup_ext nat (quiet ()) ~port ~now:100_001);
  check_bool "port recycled" true
    (not (Dslib.Port_alloc.is_allocated (Dslib.Nat_table.allocator nat) port))

let test_nat_table_refresh_via_lookup () =
  let nat = nat_table () in
  let key = [| 1; 2; 3; 4; 6 |] in
  ignore (Dslib.Nat_table.add_int nat (quiet ()) key ~now:0);
  (* keep touching it: must not expire *)
  ignore (Dslib.Nat_table.lookup_int nat (quiet ()) key ~now:900);
  check_int "no expiry" 0 (Dslib.Nat_table.expire nat (quiet ()) ~now:1500);
  check_int "expires eventually" 1
    (Dslib.Nat_table.expire nat (quiet ()) ~now:2500)

(* A second add of a live key remaps it.  It once leaked the first port,
   whose reverse slot kept pointing at the entry: after expiry a
   [lookup_ext] of that port put the freed node back into the LRU list,
   and the next [expire] failed [Flow_table.expire]'s assertion. *)
let test_nat_table_add_live_key () =
  let nat = nat_table () in
  let alloc = Dslib.Nat_table.allocator nat in
  let k = [| 10; 20; 30; 40; 17 |] and k' = [| 11; 21; 31; 41; 6 |] in
  let p1 = Dslib.Nat_table.add_int nat (quiet ()) k ~now:0 in
  let p2 = Dslib.Nat_table.add_int nat (quiet ()) k ~now:10 in
  check_bool "new port" true (p2 >= 1000 && p2 <> p1);
  check_int "one flow" 1 (Dslib.Nat_table.size nat);
  check_bool "old port freed" false (Dslib.Port_alloc.is_allocated alloc p1);
  check_int "old port unmapped" (-1)
    (Dslib.Nat_table.lookup_ext nat (quiet ()) ~port:p1 ~now:20);
  check_int "key maps to the new port" p2
    (Dslib.Nat_table.lookup_int nat (quiet ()) k ~now:30);
  check_int "expired" 1 (Dslib.Nat_table.expire nat (quiet ()) ~now:100_000);
  check_int "stale port stays unmapped" (-1)
    (Dslib.Nat_table.lookup_ext nat (quiet ()) ~port:p1 ~now:100_001);
  check_bool "add after expiry" true
    (Dslib.Nat_table.add_int nat (quiet ()) k' ~now:100_002 >= 1000);
  check_int "expires cleanly" 1
    (Dslib.Nat_table.expire nat (quiet ()) ~now:200_000);
  check_bool "every port free" true
    (List.for_all
       (fun p -> not (Dslib.Port_alloc.is_allocated alloc p))
       [ p1; p2 ])

let suite =
  [
    Alcotest.test_case "hash_map semantics" `Quick test_hash_map_semantics;
    Alcotest.test_case "hash_map full/reuse" `Quick test_hash_map_full;
    Alcotest.test_case "hash_map collisions" `Quick test_hash_map_collisions;
    Alcotest.test_case "hash_map reseed" `Quick test_hash_map_reseed;
    Alcotest.test_case "flow_table expiry order" `Quick
      test_flow_table_expiry_order;
    Alcotest.test_case "flow_table granularity batching" `Quick
      test_flow_table_granularity_batching;
    Alcotest.test_case "flow_table update keeps LRU sane" `Quick
      test_flow_table_update_keeps_lru_sane;
    Alcotest.test_case "flow_table on_expire" `Quick test_flow_table_on_expire;
    Alcotest.test_case "mac_table learn/lookup" `Quick
      test_mac_table_learn_lookup;
    Alcotest.test_case "mac_table rehash defence" `Quick
      test_mac_table_rehash_defence;
    Alcotest.test_case "mac_table rehash contract" `Quick
      test_mac_table_contract_rehash;
    Alcotest.test_case "mac_table rehash cliff at capacity" `Quick
      test_mac_table_rehash_cliff_high_occupancy;
    Alcotest.test_case "lpm dir24_8 semantics" `Quick test_lpm_dir24_8;
    Alcotest.test_case "lpm differential" `Quick test_lpm_trie_matches_dir24_8;
    Alcotest.test_case "lpm trie exact Table 2 cost" `Quick
      test_lpm_trie_exact_cost;
    Alcotest.test_case "hash ring" `Quick test_hash_ring;
    Alcotest.test_case "backend pool" `Quick test_backend_pool;
    Alcotest.test_case "port alloc semantics" `Quick test_port_alloc_semantics;
    Alcotest.test_case "port alloc scan/occupancy" `Quick
      test_port_alloc_scan_tracks_occupancy;
    Alcotest.test_case "port alloc exhaustion edges" `Quick
      test_port_alloc_exhaustion_edges;
    Alcotest.test_case "port alloc scan contract at high occupancy" `Quick
      test_port_alloc_scan_contract_high_occupancy;
    Alcotest.test_case "nat table lifecycle" `Quick
      test_nat_table_flow_lifecycle;
    Alcotest.test_case "nat table refresh" `Quick
      test_nat_table_refresh_via_lookup;
    Alcotest.test_case "nat table add of a live key" `Quick
      test_nat_table_add_live_key;
    QCheck_alcotest.to_alcotest prop_hash_map_contract;
    QCheck_alcotest.to_alcotest prop_flow_table_expire_contract;
    QCheck_alcotest.to_alcotest prop_port_alloc_contracts;
  ]
