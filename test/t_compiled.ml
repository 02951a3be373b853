(* Golden equivalence for the closure-compiled hot path: on every
   registry NF, Exec.Compiled must be bit-identical to Exec.Interp —
   outcome, IC, MA, cycles, PCV observations, the full traced event
   stream (branch events included) and the final packet bytes — at
   --jobs 1 and 4, in both production and analysis modes, and on the
   runtime-contract violations (Stuck message parity, charge parity). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

type obs_run = {
  outcome : Exec.Interp.outcome;
  ic : int;
  ma : int;
  cycles : int;
  observations : (Perf.Pcv.t * int) list;
  events : Exec.Meter.event list;
  bytes : Bytes.t;
}

let copy_stream stream =
  List.map
    (fun e ->
      { e with Workload.Stream.packet = Net.Packet.copy e.Workload.Stream.packet })
    stream

(* Replay [stream] with the Distiller's per-packet discipline (shared
   warm meter, observation reset, DMA boundary) on either engine. *)
let replay ~engine (entry : Nf.Registry.entry) stream =
  let model = Hw.Model.realistic () in
  let meter = Exec.Meter.create ~trace:true model in
  let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  let dma =
    [ (Exec.Interp.packet_base, 2048); (Exec.Interp.rx_ring_base, 256) ]
  in
  let compiled =
    match engine with
    | `Interp -> None
    | `Compiled -> Some (Exec.Compiled.compile entry.Nf.Registry.program)
  in
  List.map
    (fun { Workload.Stream.packet; now; in_port } ->
      Exec.Meter.reset_observations meter;
      model.Hw.Model.boundary dma;
      let r =
        match compiled with
        | None ->
            Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~in_port
              ~now entry.Nf.Registry.program packet
        | Some c ->
            Exec.Compiled.run c ~meter ~mode:(Exec.Interp.Production dss)
              ~in_port ~now packet
      in
      {
        outcome = r.Exec.Interp.outcome;
        ic = r.Exec.Interp.ic;
        ma = r.Exec.Interp.ma;
        cycles = r.Exec.Interp.cycles;
        observations = Exec.Meter.observations meter;
        events = Exec.Meter.events meter;
        bytes = Net.Packet.to_bytes packet;
      })
    stream

(* Replays one NF on both engines.  Runs inside [Exec.Pool.map] worker
   domains, so it only computes: Alcotest's shared formatter is not
   domain-safe, and every assertion runs on the main domain in
   [check_nf]. *)
let replay_nf nf =
  let entry = Nf.Registry.find nf in
  let prng = Workload.Prng.create ~seed:77 in
  let stream = Proptest.Gen_net.stream_for prng ~nf ~packets:40 in
  let interp = replay ~engine:`Interp entry (copy_stream stream) in
  let compiled = replay ~engine:`Compiled entry (copy_stream stream) in
  (nf, interp, compiled)

let check_nf (nf, interp, compiled) =
  check_int (nf ^ " packets") (List.length interp) (List.length compiled);
  List.iteri
    (fun i (a, b) ->
      let ctx fmt = Printf.sprintf "%s packet %d %s" nf i fmt in
      check_bool (ctx "outcome") true (a.outcome = b.outcome);
      check_int (ctx "ic") a.ic b.ic;
      check_int (ctx "ma") a.ma b.ma;
      check_int (ctx "cycles") a.cycles b.cycles;
      check_bool (ctx "observations") true (a.observations = b.observations);
      check_bool (ctx "events") true (a.events = b.events);
      check_bool (ctx "bytes") true (Bytes.equal a.bytes b.bytes))
    (List.combine interp compiled)

let test_golden_all_nfs ~jobs () =
  let names = Nf.Registry.names () in
  let runs = Exec.Pool.map ~jobs replay_nf names in
  check_int "every NF replayed" (List.length names) (List.length runs);
  List.iter check_nf runs

(* A stateful program replayed in analysis mode: stub consumption, the
   no-LTO call-overhead charge and E_call events must line up too. *)
let analysis_program =
  Ir.Program.make ~name:"t_compiled_analysis"
    ~state:[ { Ir.Program.instance = "ft"; kind = "flow_table" } ]
    Ir.
      [
        Stmt.assign "h" Expr.(load32 (int 26));
        Stmt.call ~ret:"r" "ft" "get" [ Expr.var "h"; Expr.var "now" ];
        Stmt.if_
          Expr.(var "r" != int 0)
          [ Stmt.forward Expr.(var "r" - int 1) ]
          [ Stmt.call "ft" "put" [ Expr.var "h" ]; Stmt.drop ];
      ]

let test_analysis_mode () =
  let packet = Net.Packet.create 64 in
  let run engine =
    let meter = Exec.Meter.create ~trace:true (Hw.Model.null ()) in
    let mode = Exec.Interp.Analysis [ 3; 0 ] in
    let r =
      match engine with
      | `Interp ->
          Exec.Interp.run ~meter ~mode ~in_port:1 ~now:5 analysis_program
            packet
      | `Compiled ->
          Exec.Compiled.run
            (Exec.Compiled.compile analysis_program)
            ~meter ~mode ~in_port:1 ~now:5 packet
    in
    (r, Exec.Meter.events meter)
  in
  let (ra, ea) = run `Interp and (rb, eb) = run `Compiled in
  check_bool "analysis run equal" true (ra = rb);
  check_bool "analysis events equal" true (ea = eb)

(* Stuck parity: same message, same charges up to the raise. *)
let run_stuck program packet engine =
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let mode = Exec.Interp.Production [] in
  let result =
    match
      match engine with
      | `Interp -> Exec.Interp.run ~meter ~mode program packet
      | `Compiled ->
          Exec.Compiled.run (Exec.Compiled.compile program) ~meter ~mode packet
    with
    | (_ : Exec.Interp.run) -> "no-stuck"
    | exception Exec.Interp.Stuck msg -> msg
  in
  (result, Exec.Meter.ic meter, Exec.Meter.ma meter)

let check_stuck_parity name program =
  let packet = Net.Packet.create 64 in
  let msg_i, ic_i, ma_i = run_stuck program (Net.Packet.copy packet) `Interp in
  let msg_c, ic_c, ma_c =
    run_stuck program (Net.Packet.copy packet) `Compiled
  in
  check_string (name ^ " message") msg_i msg_c;
  check_bool (name ^ " stuck at all") true (msg_i <> "no-stuck");
  check_int (name ^ " ic") ic_i ic_c;
  check_int (name ^ " ma") ma_i ma_c

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
       [ Stmt.store16 (Expr.int 63) (Expr.int 7); Stmt.drop ]);
  check_stuck_parity "unroll bound exceeded"
    (Program.make ~name:"bound" ~state:[]
       [
         Stmt.assign "i" (Expr.int 0);
         Stmt.While
           (Stmt.Unroll 2, Expr.(var "i" < int 100),
            [ Stmt.assign "i" Expr.(var "i" + int 1) ]);
         Stmt.drop;
       ])

(* The compiled form must leave a PCV loop's observation, loop events
   and suppressed interior branches exactly as the interpreter does. *)
let test_pcv_loop_parity () =
  let open Ir in
  let program =
    Program.make ~name:"pcv_walk" ~state:[]
      [
        Stmt.assign "i" (Expr.int 0);
        Stmt.While
          (Stmt.Pcv_loop ("walk", 8), Expr.(var "i" < load8 (int 1)),
           [
             Stmt.if_
               Expr.(var "i" > int 2)
               [ Stmt.assign "i" Expr.(var "i" + int 2) ]
               [ Stmt.assign "i" Expr.(var "i" + int 1) ];
           ]);
        Stmt.forward (Expr.var "i");
      ]
  in
  let packet = Net.Packet.create 64 in
  Net.Packet.set_u8 packet 1 6;
  let run engine =
    let meter = Exec.Meter.create ~trace:true (Hw.Model.null ()) in
    let r =
      match engine with
      | `Interp ->
          Exec.Interp.run ~meter ~mode:(Exec.Interp.Production []) program
            (Net.Packet.copy packet)
      | `Compiled ->
          Exec.Compiled.run (Exec.Compiled.compile program) ~meter
            ~mode:(Exec.Interp.Production []) (Net.Packet.copy packet)
    in
    (r, Exec.Meter.events meter, Exec.Meter.observations meter)
  in
  let a = run `Interp and b = run `Compiled in
  check_bool "pcv parity" true (a = b);
  let _, _, obs = a in
  check_bool "pcv observed" true
    (List.exists (fun (p, v) -> p = Perf.Pcv.v "walk" && v > 0) obs)

(* The untraced fast path — deferred charging plus [runner]'s frame
   reuse across a stream — must match the interpreter packet-for-packet
   under both an uncoupled (null) and a coupled (realistic burst-window)
   model; the latter exercises the flush-before-mem discipline. *)
let test_fast_path_parity () =
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun nf ->
          let entry = Nf.Registry.find nf in
          let prng = Workload.Prng.create ~seed:33 in
          let stream = Proptest.Gen_net.stream_for prng ~nf ~packets:40 in
          let replay engine =
            let meter = Exec.Meter.create (model ()) in
            let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
            let mode = Exec.Interp.Production dss in
            let process =
              match engine with
              | `Interp ->
                  fun ~in_port ~now packet ->
                    Exec.Interp.run ~meter ~mode ~in_port ~now
                      entry.Nf.Registry.program packet
              | `Compiled ->
                  let r =
                    Exec.Compiled.runner
                      (Exec.Compiled.compile entry.Nf.Registry.program)
                      ~meter ~mode
                  in
                  fun ~in_port ~now packet -> r ~in_port ~now packet
            in
            List.map
              (fun { Workload.Stream.packet; now; in_port } ->
                Exec.Meter.reset_observations meter;
                let r = process ~in_port ~now (Net.Packet.copy packet) in
                (r, Exec.Meter.observations meter))
              stream
          in
          check_bool
            (Printf.sprintf "%s fast path under %s model" nf mname)
            true
            (replay `Interp = replay `Compiled))
        [ "firewall"; "nat"; "bridge"; "conntrack" ])
    [ ("null", Hw.Model.null); ("realistic", Hw.Model.realistic) ]

let test_batch_parity () =
  let entry = Nf.Registry.find "firewall" in
  let prng = Workload.Prng.create ~seed:9 in
  let stream = Proptest.Gen_net.stream_for prng ~nf:"firewall" ~packets:16 in
  let batch_of s =
    List.map
      (fun { Workload.Stream.packet; now; in_port } ->
        (Net.Packet.copy packet, in_port, now))
      s
  in
  let run engine =
    let meter = Exec.Meter.create (Hw.Model.realistic ()) in
    let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
    let runs =
      match engine with
      | `Interp ->
          Exec.Interp.run_batch ~meter ~mode:(Exec.Interp.Production dss)
            entry.Nf.Registry.program (batch_of stream)
      | `Compiled ->
          Exec.Compiled.run_batch
            (Exec.Compiled.compile entry.Nf.Registry.program)
            ~meter ~mode:(Exec.Interp.Production dss) (batch_of stream)
    in
    (runs, Exec.Meter.ic meter, Exec.Meter.ma meter, Exec.Meter.cycles meter)
  in
  check_bool "batch parity" true (run `Interp = run `Compiled)

let suite =
  [
    Alcotest.test_case "golden vs interp, all NFs, jobs 1" `Slow
      (test_golden_all_nfs ~jobs:1);
    Alcotest.test_case "golden vs interp, all NFs, jobs 4" `Slow
      (test_golden_all_nfs ~jobs:4);
    Alcotest.test_case "analysis-mode parity" `Quick test_analysis_mode;
    Alcotest.test_case "stuck parity" `Quick test_stuck_parity;
    Alcotest.test_case "pcv loop parity" `Quick test_pcv_loop_parity;
    Alcotest.test_case "fast path parity (null + realistic)" `Quick
      test_fast_path_parity;
    Alcotest.test_case "run_batch parity" `Quick test_batch_parity;
  ]
