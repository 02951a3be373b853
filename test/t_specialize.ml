(* Equivalence and zero-allocation guarantees for the config-specialized
   executor (Exec.Specialize, DESIGN §12):

   - parity: every registry NF must take the specialized body and agree
     with the interpreter packet for packet — outcome, IC, MA, cycles,
     PCV observations and final packet bytes — on both an address-blind
     (null, mem-batched) and an address-insensitive-but-unbatched
     (conservative) model;
   - zero allocation: every registry NF allocates exactly 0 minor words
     per packet through [Exec.Specialize.exec] in steady state;
   - stuck parity: runtime-contract violations raise the same message as
     the interpreter (charges are equivalent, not identical — the final
     segment's pack may differ, so only the message is compared);
   - fallbacks: a tracing meter, a coupled-memory model and analysis
     mode must each decline to specialize yet still execute exactly, and
     every bind counts its engine (or its fallback reason) once. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

type side = {
  run : (Exec.Interp.run, string) result;
  observations : (Perf.Pcv.t * int) list;
  bytes : Bytes.t;
}

let copy_stream stream =
  List.map
    (fun e ->
      { e with Workload.Stream.packet = Net.Packet.copy e.Workload.Stream.packet })
    stream

let replay ~engine ~model ?(must_specialize = false)
    (entry : Nf.Registry.entry) stream =
  let meter = Exec.Meter.create (model ()) in
  let exec =
    match engine with
    | `Interp ->
        let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
        fun ~in_port ~now packet ->
          Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~in_port
            ~now entry.Nf.Registry.program packet
    | `Specialized ->
        let sp, _ = Nf.Registry.specialize entry ~meter in
        if must_specialize then
          check_bool
            (entry.Nf.Registry.name ^ " runs the specialized body")
            true
            (Exec.Specialize.specialized sp);
        fun ~in_port ~now packet -> Exec.Specialize.run sp ~in_port ~now packet
  in
  List.map
    (fun { Workload.Stream.packet; now; in_port } ->
      Exec.Meter.reset_observations meter;
      let run =
        match exec ~in_port ~now packet with
        | r -> Ok r
        | exception Exec.Interp.Stuck msg -> Error msg
      in
      {
        run;
        observations = Exec.Meter.observations meter;
        bytes = Net.Packet.to_bytes packet;
      })
    stream

let check_parity ?(packets = 200) ?(seed = 77) ?must_specialize ~model ~mname
    nf =
  let entry = Nf.Registry.find nf in
  let stream =
    Proptest.Gen_net.stream_for (Workload.Prng.create ~seed) ~nf ~packets
  in
  let interp = replay ~engine:`Interp ~model entry (copy_stream stream) in
  let spec =
    replay ~engine:`Specialized ~model ?must_specialize entry
      (copy_stream stream)
  in
  List.iteri
    (fun i (a, b) ->
      let ctx what = Printf.sprintf "%s/%s packet %d %s" nf mname i what in
      check_bool (ctx "run") true (a.run = b.run);
      check_bool (ctx "observations") true (a.observations = b.observations);
      check_bool (ctx "bytes") true (Bytes.equal a.bytes b.bytes))
    (List.combine interp spec)

(* Every registry NF must actually take the specialized body (not the
   fallback) under both models. *)
let test_parity_null () =
  List.iter
    (check_parity ~model:Hw.Model.null ~mname:"null" ~must_specialize:true)
    (Nf.Registry.names ())

let test_parity_conservative () =
  List.iter
    (check_parity ~model:Hw.Model.conservative ~mname:"conservative"
       ~must_specialize:true)
    (Nf.Registry.names ())

(* A second, differently-seeded stream across the whole registry. *)
let test_parity_all_nfs () =
  List.iter
    (check_parity ~packets:120 ~seed:13 ~model:Hw.Model.null ~mname:"null"
       ~must_specialize:true)
    (Nf.Registry.names ())

(* Longer, differently-seeded streams for the two stateful NFs whose
   fast paths carry the most machinery: NAT translation rewrites both
   directions through the port allocator, and the bridge walks
   collision chains as the MAC table fills. *)
let test_nat_stress_parity () =
  check_parity ~packets:800 ~seed:91 ~model:Hw.Model.null ~mname:"null"
    ~must_specialize:true "nat"

let test_bridge_stress_parity () =
  check_parity ~packets:800 ~seed:91 ~model:Hw.Model.null ~mname:"null"
    ~must_specialize:true "bridge"

(* ---- Zero allocation -------------------------------------------------- *)

(* The steady-state stream: 64 distinct flows, replayed.  Maglev's also
   carries heartbeats (in_port 1) from backends 0..7, so in steady state
   its flows pinned to those backends find them alive while the rest
   take the dead-backend reassignment; the routers' also carries
   packets into their 10.0.0.0/16 route, so lookups hit it as well as
   the default. *)
let steady_stream nf n =
  let flows = Workload.Gen.distinct_flows (Workload.Prng.create ~seed:42) 64 in
  let extra =
    match nf with
    | "maglev" ->
        List.map
          (fun p -> (1, p))
          (Workload.Gen.heartbeat_frames ~backend_ids:(List.init 8 Fun.id)
             ~port:Nf.Maglev.heartbeat_port)
    | "lpm_router" | "trie_router" ->
        List.init 16 (fun i ->
            ( 0,
              Net.Build.udp
                ~src_ip:(Net.Ipv4.addr_of_parts 10 9 0 1)
                ~dst_ip:(Net.Ipv4.addr_of_parts 10 0 i (7 * i))
                ~src_port:1024 ~dst_port:80 () ))
    | _ -> []
  in
  let base =
    Array.of_list
      (List.map (fun p -> (0, p)) (Workload.Gen.packets_of_flows flows) @ extra)
  in
  Array.init n (fun i ->
      let in_port, p = base.(i mod Array.length base) in
      {
        Workload.Stream.packet = Net.Packet.copy p;
        now = 1_000_000 + (i * 100);
        in_port;
      })

(* The stateful calls (method, result) the interpreter makes on
   [stream.(lo .. hi-1)] after replaying the packets before [lo]. *)
let calls_in nf stream lo hi =
  let entry = Nf.Registry.find nf in
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let calls = ref [] and i = ref 0 in
  let record (instance, (ds : Exec.Ds.t)) =
    ( instance,
      Exec.Ds.make ~kind:ds.kind (fun meter meth args ->
          let ret = ds.call meter meth args in
          if !i >= lo && !i < hi then calls := (meth, ret) :: !calls;
          ret) )
  in
  let dss =
    List.map record (entry.Nf.Registry.setup (Dslib.Layout.allocator ()))
  in
  Array.iteri
    (fun k (e : Workload.Stream.entry) ->
      i := k;
      ignore
        (Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss)
           ~in_port:e.in_port ~now:e.now entry.Nf.Registry.program
           (Net.Packet.copy e.packet)))
    stream;
  !calls

(* Steady state through [exec]: warm one pass (tables populated, meter
   observation buffers grown), then demand EXACTLY zero minor words per
   packet.  The two trailing [Gc.minor_words] reads measure the probe's
   own cost so it can be subtracted. *)
let test_zero_alloc () =
  let n = 1024 in
  (* the measured half must take the paths these calls mark *)
  List.iter
    (fun (nf, expected) ->
      let measured = calls_in nf (steady_stream nf (2 * n)) n (2 * n) in
      List.iter
        (fun (what, call) ->
          check_bool
            (Printf.sprintf "%s's measured pass takes %s" nf what)
            true (List.mem call measured))
        expected)
    [
      ( "maglev",
        [
          ("the heartbeat path", ("heartbeat", 1));
          ("the live-backend path", ("is_alive", 1));
          ("the dead-backend path", ("is_alive", 0));
        ] );
      ("lpm_router", [ ("a route hit", ("lookup", 1)) ]);
      ("trie_router", [ ("a route hit", ("lookup", 1)) ]);
    ];
  List.iter
    (fun nf ->
      let entry = Nf.Registry.find nf in
      let meter = Exec.Meter.create (Hw.Model.null ()) in
      let sp, _ = Nf.Registry.specialize entry ~meter in
      let stream = steady_stream nf (2 * n) in
      let run lo hi =
        for i = lo to hi - 1 do
          let e = stream.(i) in
          Exec.Meter.reset_observations meter;
          ignore
            (Exec.Specialize.exec sp ~in_port:e.Workload.Stream.in_port
               ~now:e.Workload.Stream.now e.Workload.Stream.packet
              : int)
        done
      in
      run 0 n;
      let w0 = Gc.minor_words () in
      run n (2 * n);
      let w1 = Gc.minor_words () in
      let w2 = Gc.minor_words () in
      let words = w1 -. w0 -. (w2 -. w1) in
      check_int (nf ^ " minor words over a steady-state pass") 0
        (int_of_float words))
    (Nf.Registry.names ())

(* ---- Stuck parity ----------------------------------------------------- *)

(* Charge equivalence, not identity: a Stuck packet may differ from the
   interpreter by part of its final segment's pack, so only the message
   (and the fact of being stuck) is pinned here. *)
let run_stuck program packet engine =
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let mode = Exec.Interp.Production [] in
  match
    match engine with
    | `Interp -> Exec.Interp.run ~meter ~mode program packet
    | `Specialized ->
        Exec.Specialize.run
          (Exec.Specialize.bind (Exec.Compiled.compile program) ~meter ~mode)
          packet
  with
  | (_ : Exec.Interp.run) -> "no-stuck"
  | exception Exec.Interp.Stuck msg -> msg

let check_stuck_parity name program =
  let packet = Net.Packet.create 64 in
  let msg_i = run_stuck program (Net.Packet.copy packet) `Interp in
  let msg_s = run_stuck program (Net.Packet.copy packet) `Specialized in
  check_bool (name ^ " stuck at all") true (msg_i <> "no-stuck");
  check_string (name ^ " message") msg_i msg_s

let test_stuck_parity () =
  let open Ir in
  check_stuck_parity "folded division by zero"
    (Program.make ~name:"divz" ~state:[]
       [ Stmt.assign "x" Expr.(int 1 / int 0); Stmt.drop ]);
  check_stuck_parity "dynamic division by zero"
    (Program.make ~name:"divz_dyn" ~state:[]
       [
         Stmt.assign "z" Expr.(load8 (int 0));
         Stmt.assign "x" Expr.(int 1 / var "z");
         Stmt.drop;
       ]);
  check_stuck_parity "negative packet offset"
    (Program.make ~name:"negoff" ~state:[]
       [ Stmt.assign "x" (Expr.load8 Expr.(int 0 - int 4)); Stmt.drop ]);
  check_stuck_parity "out-of-bounds load"
    (Program.make ~name:"oob" ~state:[]
       [ Stmt.assign "x" (Expr.load32 (Expr.int 2000)); Stmt.drop ]);
  check_stuck_parity "out-of-bounds store"
    (Program.make ~name:"oob_store" ~state:[]
       [ Stmt.store16 (Expr.int 63) (Expr.int 7); Stmt.drop ])

(* ---- Fallbacks -------------------------------------------------------- *)

(* [bind] must decline to specialize — and still execute exactly —
   whenever its charging discipline cannot reproduce what the
   configuration demands: a tracing meter (per-event stream), a model
   that couples memory pricing to instruction counts, or analysis
   mode. *)
let test_fallback_tracing () =
  let entry = Nf.Registry.find "firewall" in
  let meter = Exec.Meter.create ~trace:true (Hw.Model.null ()) in
  let sp, _ = Nf.Registry.specialize entry ~meter in
  check_bool "tracing meter falls back" false (Exec.Specialize.specialized sp)

let test_fallback_coupled_mem () =
  let entry = Nf.Registry.find "firewall" in
  let meter = Exec.Meter.create (Hw.Model.realistic ()) in
  let sp, _ = Nf.Registry.specialize entry ~meter in
  check_bool "coupled-memory model falls back" false
    (Exec.Specialize.specialized sp)

let test_fallback_analysis_mode () =
  let program =
    Ir.(
      Program.make ~name:"t_specialize_analysis"
        ~state:[ { Ir.Program.instance = "ft"; kind = "flow_table" } ]
        [
          Stmt.assign "h" Expr.(load32 (int 26));
          Stmt.call ~ret:"r" "ft" "get" [ Expr.var "h"; Expr.var "now" ];
          Stmt.if_
            Expr.(var "r" != int 0)
            [ Stmt.forward Expr.(var "r" - int 1) ]
            [ Stmt.call "ft" "put" [ Expr.var "h" ]; Stmt.drop ];
        ])
  in
  let run engine =
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    let mode = Exec.Interp.Analysis [ 3; 0 ] in
    let packet = Net.Packet.create 64 in
    let r =
      match engine with
      | `Interp -> Exec.Interp.run ~meter ~mode ~in_port:1 ~now:5 program packet
      | `Specialized ->
          let sp =
            Exec.Specialize.bind (Exec.Compiled.compile program) ~meter ~mode
          in
          check_bool "analysis mode falls back" false
            (Exec.Specialize.specialized sp);
          Exec.Specialize.run sp ~in_port:1 ~now:5 packet
    in
    (r, Exec.Meter.observations meter)
  in
  check_bool "analysis run equal" true (run `Interp = run `Specialized)

(* Fallback streams still agree over a whole stateful replay. *)
let test_fallback_parity () =
  check_parity ~packets:120 ~model:Hw.Model.realistic ~mname:"realistic"
    "firewall"

(* ---- Engine-selection counters ---------------------------------------- *)

let engine_counters =
  [
    "specialized";
    "fallback.tracing";
    "fallback.coupled_mem";
    "fallback.analysis";
    "fallback.no_fast_path";
  ]

(* What [f] adds to each engine counter, with [Obs] on. *)
let engine_deltas f =
  let read () =
    List.map
      (fun n -> Obs.Metrics.value (Obs.Metrics.counter ("exec.engine." ^ n)))
      engine_counters
  in
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Obs.disable ())
    (fun () ->
      let before = read () in
      f ();
      List.map2 ( - ) (read ()) before)

let check_deltas what expected f =
  Alcotest.(check (list (pair string int)))
    what
    (List.combine engine_counters expected)
    (List.combine engine_counters (engine_deltas f))

(* One hand-made bind per reason; the [counter] structure offers no fast
   path, so the one-call program on it is the no_fast_path case. *)
let test_engine_counters () =
  let bind_nf ?(trace = false) ?(model = Hw.Model.null) nf () =
    let meter = Exec.Meter.create ~trace (model ()) in
    ignore (Nf.Registry.specialize (Nf.Registry.find nf) ~meter)
  in
  let program =
    Ir.(
      Program.make ~name:"t_specialize_counter"
        ~state:[ { Ir.Program.instance = "ctr"; kind = "counter" } ]
        [ Stmt.call ~ret:"x" "ctr" "add" [ Expr.int 1 ]; Stmt.drop ])
  in
  let bind_counter mode () =
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    ignore (Exec.Specialize.bind (Exec.Compiled.compile program) ~meter ~mode)
  in
  let counter = Exec.Ds.make ~kind:"counter" (fun _ _ _ -> 1) in
  check_deltas "specialized" [ 1; 0; 0; 0; 0 ] (bind_nf "maglev");
  check_deltas "tracing" [ 0; 1; 0; 0; 0 ] (bind_nf ~trace:true "maglev");
  check_deltas "tracing is checked before coupled_mem" [ 0; 1; 0; 0; 0 ]
    (bind_nf ~trace:true ~model:Hw.Model.realistic "maglev");
  check_deltas "coupled_mem" [ 0; 0; 1; 0; 0 ]
    (bind_nf ~model:Hw.Model.realistic "maglev");
  check_deltas "analysis" [ 0; 0; 0; 1; 0 ]
    (bind_counter (Exec.Interp.Analysis [ 1 ]));
  check_deltas "no_fast_path" [ 0; 0; 0; 0; 1 ]
    (bind_counter (Exec.Interp.Production [ ("ctr", counter) ]));
  let n = List.length (Nf.Registry.names ()) in
  check_int "registry size" 11 n;
  check_deltas "every registry NF specializes under null" [ n; 0; 0; 0; 0 ]
    (fun () -> List.iter (fun nf -> bind_nf nf ()) (Nf.Registry.names ()));
  (* per bind, never per packet *)
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let sp, _ = Nf.Registry.specialize (Nf.Registry.find "maglev") ~meter in
  let stream = steady_stream "maglev" 200 in
  check_deltas "packets count nothing" [ 0; 0; 0; 0; 0 ] (fun () ->
      Array.iter
        (fun (e : Workload.Stream.entry) ->
          ignore
            (Exec.Specialize.exec sp ~in_port:e.in_port ~now:e.now e.packet
              : int))
        stream)

let suite =
  [
    Alcotest.test_case "parity on the null model" `Quick test_parity_null;
    Alcotest.test_case "parity on the conservative model" `Quick
      test_parity_conservative;
    Alcotest.test_case "parity across the whole registry" `Quick
      test_parity_all_nfs;
    Alcotest.test_case "nat stress parity" `Quick test_nat_stress_parity;
    Alcotest.test_case "bridge stress parity" `Quick test_bridge_stress_parity;
    Alcotest.test_case "zero minor words per packet" `Quick test_zero_alloc;
    Alcotest.test_case "stuck message parity" `Quick test_stuck_parity;
    Alcotest.test_case "tracing meter falls back" `Quick test_fallback_tracing;
    Alcotest.test_case "coupled-memory model falls back" `Quick
      test_fallback_coupled_mem;
    Alcotest.test_case "analysis mode falls back" `Quick
      test_fallback_analysis_mode;
    Alcotest.test_case "fallback stream parity" `Quick test_fallback_parity;
    Alcotest.test_case "engine-selection counters" `Quick test_engine_counters;
  ]
