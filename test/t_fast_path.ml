(* Fast-path twin differential (DESIGN §12).

   Every dslib structure whose [to_ds] offers a [Ds.fast_path] must
   charge exactly what its metered [call] charges.  Three identical
   instances replay the same random method sequence:

   - through [ds.call] on a tracing null meter (the oracle);
   - through [ds.fast_path] on an unbatched sink that records every
     memory access in order;
   - through [ds.fast_path] on a batched sink, which only counts them.

   After every call the three must agree on the return value, the
   per-kind instruction totals and the PCV observations; the unbatched
   sink must see the oracle's [E_mem] list exactly (address, write,
   dependent, in order) and the batched sink its length. *)

module G = QCheck2.Gen

type call = string * int array

type structure = {
  name : string;
  make : unit -> Exec.Ds.t;  (** a fresh instance, the same every time *)
  calls : call list G.t;
}

type charges = {
  ret : int;
  instrs : int array;  (** per kind, indexed by [Hw.Cost.kind_index] *)
  mems : (int * bool * bool) list;  (** (addr, write, dependent), in order *)
  mem_count : int;
  obs : (Perf.Pcv.t * int) list;
}

let nkinds = Hw.Cost.nkinds

let metered (ds : Exec.Ds.t) =
  let meter = Exec.Meter.create ~trace:true (Hw.Model.null ()) in
  fun (meth, args) ->
    Exec.Meter.reset_observations meter;
    let ret = ds.Exec.Ds.call meter meth (Array.copy args) in
    let instrs = Array.make nkinds 0 in
    let mems =
      List.filter_map
        (function
          | Exec.Meter.E_instr (k, n) ->
              let i = Hw.Cost.kind_index k in
              instrs.(i) <- instrs.(i) + n;
              None
          | Exec.Meter.E_mem { addr; write; dependent } ->
              Some (addr, write, dependent)
          | _ -> None)
        (Exec.Meter.events meter)
    in
    {
      ret;
      instrs;
      mems;
      mem_count = List.length mems;
      obs = Exec.Meter.observations meter;
    }

(* The sink the specializer builds (its [s_mem] bumps the batch slot on
   a batched model), with an unbatched sink's accesses recorded. *)
let fast ~batched (ds : Exec.Ds.t) =
  let counts = Array.make (nkinds + 1) 0 in
  let mems = ref [] in
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let sink =
    {
      Exec.Ds.s_counts = counts;
      s_mem =
        (fun ~addr ~write ~dependent ->
          if batched then counts.(nkinds) <- counts.(nkinds) + 1
          else mems := (addr, write, dependent) :: !mems);
      s_mem_batched = batched;
      s_meter = meter;
    }
  in
  fun (meth, args) ->
    Array.fill counts 0 (nkinds + 1) 0;
    mems := [];
    Exec.Meter.reset_observations meter;
    let f =
      match ds.Exec.Ds.fast_path sink meth with
      | Some f -> f
      | None ->
          Alcotest.failf "%s.%s offers no fast path" ds.Exec.Ds.kind meth
    in
    let ret = f (Array.copy args) in
    {
      ret;
      instrs = Array.sub counts 0 nkinds;
      mems = List.rev !mems;
      mem_count = counts.(nkinds);
      obs = Exec.Meter.observations meter;
    }

let show_call (meth, args) =
  Printf.sprintf "%s(%s)" meth
    (String.concat "," (Array.to_list (Array.map string_of_int args)))

let show_calls calls = String.concat "; " (List.map show_call calls)

let prop (st : structure) =
  QCheck2.Test.make ~count:150 ~name:(st.name ^ " fast path = metered call")
    ~print:show_calls st.calls (fun calls ->
      let oracle = metered (st.make ()) in
      let unbatched = fast ~batched:false (st.make ()) in
      let batched = fast ~batched:true (st.make ()) in
      List.iteri
        (fun i c ->
          let m = oracle c and u = unbatched c and b = batched c in
          let fail what =
            QCheck2.Test.fail_reportf "call %d %s: %s differs" i (show_call c)
              what
          in
          if u.ret <> m.ret || b.ret <> m.ret then fail "return value";
          if u.instrs <> m.instrs then fail "unbatched instruction totals";
          if b.instrs <> m.instrs then fail "batched instruction totals";
          if u.mems <> m.mems then fail "unbatched memory accesses";
          if u.mem_count <> 0 then fail "unbatched batch count";
          if b.mem_count <> m.mem_count then fail "batched access count";
          if u.obs <> m.obs || b.obs <> m.obs then fail "PCV observations")
        calls;
      true)

(* ---- call generators ------------------------------------------------- *)

(* A method sequence whose [now] advances by [dt] per call; each step
   builds its call from the current time. *)
let timed ?(dt = G.int_range 0 30) (step : (int -> call) G.t) =
  G.map
    (fun l ->
      let now = ref 1_000 in
      List.map
        (fun (d, f) ->
          now := !now + d;
          f !now)
        l)
    (G.list_size (G.int_range 1 60) (G.pair dt step))

let word = G.map (fun x -> x land max_int) G.int

(* A small pool of 5-word keys, so calls revisit, collide and fill. *)
let key5 =
  let pool =
    Array.init 12 (fun i -> [| i; 7 * i; 0x0a000000 + i; 80; 6 + (i mod 2) |])
  in
  G.map (fun i -> pool.(i)) (G.int_range 0 11)

let ip_in a b c d bits =
  let base = Net.Ipv4.addr_of_parts a b c d in
  G.map (fun r -> base lor (r land ((1 lsl bits) - 1))) word

let hash_ring =
  {
    name = "hash_ring";
    make =
      (fun () ->
        Dslib.Hash_ring.to_ds
          (Dslib.Hash_ring.create ~base:0x1000 ~table_size:251
             ~backends:[ 0; 1; 2; 3; 4 ]));
    calls =
      G.list_size (G.int_range 1 60)
        (G.map
           (fun h -> ("backend_for", [| h |]))
           (G.oneof [ G.int_range 0 600; word ]));
  }

(* Ids -3..11 around a pool of 8: out-of-range on both sides. *)
let backend_pool =
  {
    name = "backend_pool";
    make =
      (fun () ->
        Dslib.Backend_pool.to_ds
          (Dslib.Backend_pool.create ~base:0x2000 ~count:8 ~timeout:50));
    calls =
      timed
        (G.map2
           (fun meth b now -> (meth, [| b; now |]))
           (G.oneofl [ "heartbeat"; "is_alive"; "is_alive" ])
           (G.int_range (-3) 11));
  }

(* rate 3, burst 40: a gap of 14 or more hits the refill clamp; huge
   jumps exercise the overflow guard, negative ones a clock that stands
   still for the bucket. *)
let token_bucket =
  {
    name = "token_bucket";
    make =
      (fun () ->
        Dslib.Token_bucket.to_ds
          (Dslib.Token_bucket.create ~base:0x3000 ~rate:3 ~burst:40 ()));
    calls =
      timed
        ~dt:
          (G.frequency
             [
               (6, G.int_range 0 20);
               (1, G.int_range (-5) (-1));
               (1, G.return (1 lsl 50));
             ])
        (G.map
           (fun bytes now -> ("conform", [| bytes; now |]))
           (G.int_range 0 60));
  }

let count_min =
  {
    name = "count_min";
    make =
      (fun () ->
        Dslib.Count_min.to_ds
          (Dslib.Count_min.create ~base:0x4000 ~rows:4 ~width:16));
    calls =
      G.list_size (G.int_range 1 60)
        (G.map2
           (fun meth key -> (meth, Array.copy key))
           (G.oneofl [ "update"; "update"; "estimate" ])
           (G.oneof [ key5; G.array_size (G.return 5) word ]));
  }

(* Routes of every length class: /16 and /24 in tbl24, /25, /28 and /32
   in tbl8 groups. *)
let lpm_dir24_8 =
  {
    name = "lpm_dir24_8";
    make =
      (fun () ->
        let t = Dslib.Lpm_dir24_8.create ~base:0x10_0000 ~default_port:0 in
        List.iter
          (fun (a, b, c, d, len, port) ->
            Dslib.Lpm_dir24_8.add_route t
              ~prefix:(Net.Ipv4.addr_of_parts a b c d)
              ~len ~port)
          [
            (10, 0, 0, 0, 16, 1);
            (10, 0, 5, 0, 24, 2);
            (10, 0, 5, 128, 25, 3);
            (10, 0, 7, 16, 28, 4);
            (192, 168, 1, 1, 32, 5);
          ];
        Dslib.Lpm_dir24_8.to_ds t);
    calls =
      G.list_size (G.int_range 1 60)
        (G.map
           (fun ip -> ("lookup", [| ip |]))
           (G.oneof
              [
                G.map (fun x -> x land 0xffffffff) word;
                ip_in 10 0 0 0 16;
                ip_in 10 0 5 0 8;
                ip_in 10 0 7 0 8;
                ip_in 192 168 1 0 8;
              ]));
  }

(* A default route plus nested prefixes down to /31 and /32, so walks
   stop at every depth up to the full 32 bits. *)
let lpm_trie =
  {
    name = "lpm_trie";
    make =
      (fun () ->
        let t = Dslib.Lpm_trie.create ~base:0x20_0000 ~default_port:0 in
        List.iter
          (fun (a, b, c, d, len, port) ->
            Dslib.Lpm_trie.add_route t
              ~prefix:(Net.Ipv4.addr_of_parts a b c d)
              ~len ~port)
          [
            (0, 0, 0, 0, 0, 9);
            (10, 0, 0, 0, 8, 1);
            (10, 1, 0, 0, 16, 2);
            (10, 1, 2, 0, 24, 3);
            (10, 1, 2, 128, 31, 4);
            (10, 1, 2, 3, 32, 5);
          ];
        Dslib.Lpm_trie.to_ds t);
    calls =
      G.list_size (G.int_range 1 60)
        (G.map
           (fun ip -> ("lookup", [| ip |]))
           (G.oneof
              [
                G.map (fun x -> x land 0xffffffff) word;
                ip_in 10 1 0 0 16;
                ip_in 10 1 2 0 8;
                ip_in 10 1 2 0 2;
                ip_in 10 1 2 128 1;
              ]));
  }

let flow_table =
  {
    name = "flow_table";
    make =
      (fun () ->
        Dslib.Flow_table.to_ds
          (Dslib.Flow_table.create ~base:0x30_0000 ~key_len:5 ~capacity:8
             ~buckets:4 ~timeout:100 ()));
    calls =
      timed
        (G.oneof
           [
             G.return (fun now -> ("expire", [| now |]));
             G.map
               (fun k now -> ("get", Array.append k [| now |]))
               key5;
             G.map2
               (fun k v now -> ("put", Array.append k [| v; now |]))
               key5 (G.int_range 0 99);
             G.return (fun _ -> ("size", [||]));
           ]);
  }

let mac_table =
  {
    name = "mac_table";
    make =
      (fun () ->
        Dslib.Mac_table.to_ds
          (Dslib.Mac_table.create ~seed:5 ~base:0x40_0000 ~capacity:8
             ~buckets:4 ~timeout:100 ~threshold:2 ()));
    calls =
      timed
        (G.oneof
           [
             G.return (fun now -> ("expire", [| now |]));
             G.map2
               (fun mac port now -> ("learn", [| mac; port; now |]))
               (G.int_range 0x0200_0000_0000 0x0200_0000_000b)
               (G.int_range 0 3);
             G.map
               (fun mac _ -> ("lookup", [| mac |]))
               (G.int_range 0x0200_0000_0000 0x0200_0000_000b);
           ]);
  }

(* Ports [100, port_hi] behind a [capacity]-entry table, so one variant
   runs out of entries and the other out of ports; lookup_ext probes
   just outside the range too. *)
let nat_table ~allocator ~capacity ~port_hi =
  {
    name = "nat_table/" ^ allocator;
    make =
      (fun () ->
        let alloc =
          (if allocator = "dll" then Dslib.Port_alloc.dll
           else Dslib.Port_alloc.array)
            ~base:0x50_0000 ~port_lo:100 ~port_hi
        in
        Dslib.Nat_table.to_ds
          (Dslib.Nat_table.create ~base:0x60_0000 ~capacity ~buckets:4
             ~timeout:100 ~alloc ~port_lo:100 ~port_hi ()));
    calls =
      timed
        (G.oneof
           [
             G.return (fun now -> ("expire", [| now |]));
             G.map
               (fun k now -> ("lookup_int", Array.append k [| now |]))
               key5;
             G.map (fun k now -> ("add_int", Array.append k [| now |])) key5;
             G.map
               (fun port now -> ("lookup_ext", [| port; now |]))
               (G.int_range 97 (port_hi + 3));
             G.map2
               (fun handle field _ -> ("int_field", [| handle; field |]))
               (G.int_range 0 (capacity - 1))
               (G.int_range 0 4);
           ]);
  }

let structures =
  [
    hash_ring;
    backend_pool;
    token_bucket;
    count_min;
    lpm_dir24_8;
    lpm_trie;
    flow_table;
    mac_table;
    nat_table ~allocator:"dll" ~capacity:6 ~port_hi:107;
    nat_table ~allocator:"array" ~capacity:8 ~port_hi:104;
  ]

let suite =
  List.map (fun st -> QCheck_alcotest.to_alcotest (prop st)) structures
