(* Workload [distill_churn]: writes.  Every packet opens a new flow
   (Workload.Soak.churn_packets) into a small NAT — 1024 entries, a
   timeout of 1024 packet gaps — so each packet expires one entry,
   inserts one and allocates and frees a port.  The trace is replayed
   through the Distiller (Distiller.Run.run) under the realistic hardware
   model, in closed-loop chunks: the next chunk starts when the previous
   replay returns.  Every replayed packet is checked against the NAT's
   worst-case contract evaluated at its own observed PCVs. *)

let chunk = 1024
let gap = 100
let capacity = 1024

let nat_config =
  {
    Nf.Nat.default_config with
    capacity;
    buckets = 1024;
    timeout = capacity * gap;
    granularity = gap;
    port_lo = 1024;
    port_hi = 3071;
  }

let spec = Nf.Spec.Nat nat_config

(* Index-encoded flows from a seed-chosen base; packet [k] of the run
   carries flow [base + k] at time [start + k * gap]. *)
let flow_base seed = (seed land 0x3f) * 131_072
let start = 1_000_000

let stream ~base k n =
  Workload.Stream.constant_rate ~in_port:0 ~start:(start + (k * gap)) ~gap
    (Workload.Soak.churn_packets ~offset:(base + k) n)

let copy_stream s =
  List.map
    (fun (e : Workload.Stream.entry) -> { e with packet = Net.Packet.copy e.packet })
    s

type env = {
  entry : Nf.Registry.entry;
  worst : Perf.Cost_vec.t;
  analyze_s : float;
}

let analyze () =
  let entry = Nf.Registry.of_spec spec in
  let t, analyze_s =
    Timing.time (fun () ->
        Bolt.Pipeline.analyze
          ~config:
            Bolt.Pipeline.Config.(
              default |> with_contracts entry.Nf.Registry.contracts |> with_jobs 1)
          entry.Nf.Registry.program)
  in
  { entry; worst = Bolt.Pipeline.worst_case t; analyze_s }

(* A NAT state in steady churn: its table filled and cycled once by the
   first [warm] packets of the run. *)
let warm = 2 * capacity

let warm_dss env ~base ~hw =
  let dss = env.entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  ignore
    (Distiller.Run.run ~hw ~dss env.entry.Nf.Registry.program (stream ~base 0 warm)
      : Distiller.Run.t);
  dss

(* Per-packet soundness at observed PCVs, and the contract's slack. *)
type verdict = {
  mutable packets : int;
  mutable violations : int;
  mutable slack_ic : float;
  mutable slack_cycles : float;
}

let check env v r =
  let pcvs = Perf.Cost_vec.pcvs env.worst in
  for i = 0 to Distiller.Run.count r - 1 do
    let obs = Distiller.Run.observations r i in
    let binding =
      List.map
        (fun pcv ->
          ( pcv,
            List.fold_left
              (fun acc (p, x) -> if Perf.Pcv.equal p pcv then max acc x else acc)
              0 obs ))
        pcvs
    in
    let bound m = Perf.Cost_vec.eval_exn binding env.worst m in
    let ic = Distiller.Run.ic r i and ma = Distiller.Run.ma r i in
    let b_ic = bound Perf.Metric.Instructions
    and b_ma = bound Perf.Metric.Memory_accesses
    and b_cy = bound Perf.Metric.Cycles in
    v.packets <- v.packets + 1;
    if ic > b_ic || ma > b_ma then v.violations <- v.violations + 1;
    v.slack_ic <- v.slack_ic +. (float_of_int (b_ic - ic) /. float_of_int b_ic);
    v.slack_cycles <-
      v.slack_cycles
      +. (float_of_int (b_cy - Distiller.Run.cycles r i) /. float_of_int b_cy)
  done

type log = {
  ops : Timing.Samples.t;
  mutable replayed : int;
  mutable stuck : int;
  mutable expired : int;
  mutable ic : int;
  mutable ma : int;
}

let new_log () =
  { ops = Timing.Samples.create (); replayed = 0; stuck = 0; expired = 0; ic = 0; ma = 0 }

let replay env ~dss ~hw s =
  Distiller.Run.run ~hw ~dss env.entry.Nf.Registry.program s

(* The closed loop: generate a chunk (untimed), replay it (timed), check
   every packet (untimed). *)
let loop ?(tick = ignore) env ~base ~dss ~hw ~next ~verdict ~budget log =
  let t0 = Timing.now () in
  while Timing.since t0 < budget || log.replayed < 10 * chunk do
    let s = stream ~base !next chunk in
    next := !next + chunk;
    (match
       Timing.time (fun () -> Spans.with_ "replay chunk" (fun () -> replay env ~dss ~hw s))
     with
    | r, dt ->
        Timing.Samples.add log.ops dt;
        for i = 0 to Distiller.Run.count r - 1 do
          log.ic <- log.ic + Distiller.Run.ic r i;
          log.ma <- log.ma + Distiller.Run.ma r i
        done;
        log.expired <-
          log.expired
          + List.fold_left ( + ) 0 (Distiller.Run.pcv_sums r Perf.Pcv.expired);
        check env verdict r
    | exception Exec.Interp.Stuck _ -> log.stuck <- log.stuck + chunk);
    log.replayed <- log.replayed + chunk;
    tick ()
  done

(* ns per packet of the same chunks through the compiled runner, alone,
   under a given model (fresh state in steady churn, DMA boundary per
   packet as the Distiller does). *)
let compiled_runner env ~base ~hw =
  let dss = warm_dss env ~base ~hw in
  let meter = Exec.Meter.create hw in
  let run =
    Exec.Compiled.runner
      (Exec.Compiled.compile env.entry.Nf.Registry.program)
      ~meter ~mode:(Exec.Interp.Production dss)
  in
  let dma = [ (Exec.Interp.packet_base, 2048); (Exec.Interp.rx_ring_base, 256) ] in
  fun s ->
    List.iter
      (fun (e : Workload.Stream.entry) ->
        Exec.Meter.reset_observations meter;
        hw.Hw.Model.boundary dma;
        ignore (run ~in_port:e.in_port ~now:e.now e.packet : Exec.Interp.run))
      s

let run ~seed ~seconds ~trace =
  let base = flow_base seed in
  let analyze_ms = Timing.Samples.create () in
  let set_up () =
    let env = analyze () in
    Timing.Samples.add analyze_ms (1e3 *. env.analyze_s);
    let hw = Hw.Model.realistic () in
    (env, hw, warm_dss env ~base ~hw)
  in
  let setup, (env, hw, dss) = Timing.repeat_setup set_up in
  let next = ref warm in
  let verdict = { packets = 0; violations = 0; slack_ic = 0.; slack_cycles = 0. } in
  let notes = ref [] in
  let note s = notes := s :: !notes in
  note
    (Printf.sprintf
       "distill_churn: every packet a new flow into a NAT of %d entries (timeout \
        %d packet gaps, ports %d-%d), Distiller replay under the realistic \
        model in %d-packet chunks, closed loop"
       capacity (nat_config.timeout / gap) nat_config.port_lo nat_config.port_hi chunk);
  let slack () =
    let n = float_of_int (max 1 verdict.packets) in
    (100. *. verdict.slack_ic /. n, 100. *. verdict.slack_cycles /. n)
  in
  let finish logs metrics =
    let sum f = List.fold_left (fun acc l -> acc + f l) 0 logs in
    let ic_slack, cy_slack = slack () in
    note
      (Printf.sprintf
         "checks: %d packets against the contract at observed PCVs, %d violations; \
          mean slack IC %.2f%%, cycles %.2f%%"
         verdict.packets verdict.violations ic_slack cy_slack);
    {
      Metric.attempted = sum (fun l -> l.replayed);
      failed = verdict.violations + sum (fun l -> l.stuck);
      metrics;
      notes = List.rev !notes;
    }
  in
  if not trace then begin
    let log = new_log () in
    let r = Timing.resetup setup set_up in
    loop ~tick:(fun () -> Timing.tick r) env ~base ~dss ~hw ~next ~verdict
      ~budget:seconds log;
    note (Metric.describe_ops "replay chunk" log.ops);
    note
      (Printf.sprintf "expired per packet %.3f"
         (float_of_int log.expired /. float_of_int (max 1 log.replayed)));
    finish [ log ] (Metric.e2e ~setup ~ops:log.ops ~items:log.replayed)
  end
  else begin
    let third = seconds /. 3. in
    let plain = new_log () and traced = new_log () in
    let block log budget = loop env ~base ~dss ~hw ~next ~verdict ~budget log in
    Spans.alternate ~budget:(2. *. third) ~plain:(block plain)
      ~traced:(block traced);
    (* one chunk at a time through four replays of the same packets: the
       Distiller under the realistic model (the workload), the compiled
       runner under the null and the realistic model, and the Distiller
       under the null model *)
    let null_hw = Hw.Model.null () in
    let b_run = compiled_runner env ~base ~hw:null_hw in
    let c_hw = Hw.Model.realistic () in
    let c_run = compiled_runner env ~base ~hw:c_hw in
    let d_hw = Hw.Model.null () in
    let d_dss = warm_dss env ~base ~hw:d_hw in
    let a = Timing.Samples.create () and b = Timing.Samples.create ()
    and c = Timing.Samples.create () and d = Timing.Samples.create () in
    let per_pkt f s = snd (Timing.time (fun () -> f s)) *. 1e9 /. float_of_int chunk in
    let probed = new_log () in
    let t0 = Timing.now () in
    while Timing.since t0 < third || probed.replayed < 10 * chunk do
      let s = stream ~base !next chunk in
      next := !next + chunk;
      probed.replayed <- probed.replayed + chunk;
      try
        let result = ref None in
        let ta =
          per_pkt (fun s -> result := Some (replay env ~dss ~hw s)) (copy_stream s)
        in
        Option.iter (check env verdict) !result;
        let tb = per_pkt b_run (copy_stream s) in
        let tc = per_pkt c_run (copy_stream s) in
        let td =
          per_pkt
            (fun s -> ignore (replay env ~dss:d_dss ~hw:d_hw s : Distiller.Run.t))
            s
        in
        List.iter2 Timing.Samples.add [ a; b; c; d ] [ ta; tb; tc; td ]
      with Exec.Interp.Stuck _ -> probed.stuck <- probed.stuck + chunk
    done;
    let med s = Timing.median (Timing.Samples.to_array s) in
    let compiled = med b and realistic = med c -. med b and record = med d -. med b in
    let whole = med a in
    note (Metric.describe_ops "untraced chunk" plain.ops);
    note (Metric.describe_ops "traced chunk" traced.ops);
    let check, check_failed, check_metrics =
      Metric.parts_sum
        ~what:
          (Printf.sprintf
             "compiled %.0f + realistic model %.0f + distiller recording %.0f \
              ns/packet against %.0f"
             compiled realistic record whole)
        ~whole:(Timing.Samples.to_array a)
        ~parts:
          (List.map
             (fun (k, s) -> (k, Timing.Samples.to_array s))
             [ (1., c); (1., d); (-1., b) ])
    in
    note check;
    note ("chrome trace: " ^ Spans.write_trace ~name:"distill_churn" ~obs:(Obs.Span.dump ()));
    let logs = [ plain; traced ] in
    let total f = float_of_int (List.fold_left (fun acc l -> acc + f l) 0 logs) in
    let pkts = total (fun l -> l.replayed) in
    let s = Dataplane_wl.sink () in
    let alloc = Dslib.Layout.allocator () in
    let put =
      let tbl_base = Dslib.Layout.region alloc in
      let nat =
        Dslib.Nat_table.create ~base:tbl_base ~capacity ~buckets:1024
          ~timeout:nat_config.timeout ~granularity:gap
          ~alloc:
            (Dslib.Port_alloc.dll ~base:(tbl_base + 0x800000) ~port_lo:1024
               ~port_hi:3071)
          ~port_lo:1024 ~port_hi:3071 ()
      in
      let key = Array.make 5 0 in
      fun i ->
        let f = Workload.Soak.flow_of_index (base + i) in
        key.(0) <- f.Net.Flow.src_ip;
        key.(1) <- f.dst_ip;
        key.(2) <- f.src_port;
        key.(3) <- f.dst_port;
        key.(4) <- f.proto;
        let now = start + (i * gap) in
        Exec.Meter.reset_observations s.Exec.Ds.s_meter;
        ignore (Dslib.Nat_table.fast_expire nat s ~now : int);
        ignore (Dslib.Nat_table.fast_add_int nat s key ~off:0 ~now : int)
    in
    let alloc_free =
      let pa =
        Dslib.Port_alloc.dll ~base:(Dslib.Layout.region alloc) ~port_lo:1024
          ~port_hi:3071
      in
      for _ = 1 to capacity do
        ignore (Dslib.Port_alloc.fast_alloc pa s : int)
      done;
      fun _ -> Dslib.Port_alloc.fast_free pa s (Dslib.Port_alloc.fast_alloc pa s)
    in
    let probe_budget = third /. 8. in
    let specialized =
      Exec.Specialize.specialized
        (Exec.Specialize.bind
           (Exec.Compiled.compile env.entry.Nf.Registry.program)
           ~meter:(Exec.Meter.create (Hw.Model.realistic ()))
           ~mode:(Exec.Interp.Production dss))
    in
    let ic_slack, cy_slack = slack () in
    let o =
      finish (probed :: logs)
      ([
        Metric.v "exec.compiled.ns_per_pkt" "ns" compiled;
        Metric.v "hw.realistic.ns_per_pkt" "ns" realistic;
        Metric.v "distiller.record_ns_per_pkt" "ns" record;
        Metric.v "exec.ic_per_pkt" "count" (total (fun l -> l.ic) /. pkts);
        Metric.v "hw.ma_per_pkt" "count" (total (fun l -> l.ma) /. pkts);
        Metric.v "dslib.expired_per_pkt" "count" (total (fun l -> l.expired) /. pkts);
        Metric.v "exec.fast_path_share" "ratio" (if specialized then 1. else 0.);
        Metric.v "dslib.nat_table.put_ns" "ns"
          (Dataplane_wl.per_call ~budget:probe_budget ~calls:chunk put);
        Metric.v "dslib.port_alloc.alloc_free_ns" "ns"
          (Dataplane_wl.per_call ~budget:probe_budget ~calls:chunk alloc_free);
        Metric.v "bolt.analyze_ms" "ms" (Timing.median (Timing.Samples.to_array analyze_ms));
        Metric.v "contract.slack_ic_pct" "%" ic_slack;
        Metric.v "contract.slack_cycles_pct" "%" cy_slack;
        Metric.trace_overhead ~plain:plain.ops ~traced:traced.ops;
      ]
      @ check_metrics)
    in
    { o with attempted = o.attempted + 1; failed = o.failed + check_failed }
  end
