(* Workload [steady_zipf]: established-flow reads through
   Dataplane.Shard.drain at one shard (the dispatcher bypassed), on the
   specialized engine.

   Three NFs — firewall, nat, maglev — each get their own engine.  Their
   traffic is Zipf(theta) popular over a universe of flows that fits the
   default tables; a prelude (maglev's backend heartbeats, then one
   packet per flow) establishes every flow before timing, so every NAT
   lookup afterwards hits.  The timed loop is closed: a round sends one
   burst to each NF in turn, each drain starting when the previous one
   returns.  Timestamps stay inside every timeout, so replaying the
   burst pool cyclically never expires a flow or a backend.

   Sharding is checked and probed here too, at two shards: the 2-shard
   replay must match the 1-shard reference, and the traced run measures
   steering, skew, the worker handoff and the 2-over-1 speedup.  A timed
   2-shard workload was left out: on a shared two-CPU host its run-to-run
   spread reached 30-74%. *)

let probe_shards = 2
let nfs = [ "firewall"; "nat"; "maglev" ]
let universe = 2048
let theta = 0.99
let burst = 1024
let pool_bursts = 8
let gap = 100

type nf = {
  name : string;
  spec : Nf.Spec.t;
  prelude : Workload.Stream.t;
  bursts : Workload.Stream.t array;
}

(* Flow universe [base, base + universe) of Workload.Soak's index-encoded
   flows; the seed picks [base] and the Zipf draws. *)
let flow_base seed = (seed land 0xfff) * 4096

let traffic ~seed name =
  let base = flow_base seed in
  let rng = Workload.Prng.create ~seed in
  let z = Workload.Soak.zipf ~n:universe ~theta in
  let heartbeats =
    if name = "maglev" then
      Workload.Stream.constant_rate ~in_port:1 ~start:500_000 ~gap
        (Workload.Gen.heartbeat_frames
           ~backend_ids:(List.init 16 Fun.id)
           ~port:Nf.Maglev.heartbeat_port)
    else []
  in
  let warm =
    Workload.Stream.constant_rate ~in_port:0 ~start:600_000 ~gap:10
      (List.init universe (fun i -> Workload.Soak.packet_of_index (base + i)))
  in
  let bursts =
    Array.init pool_bursts (fun b ->
        Workload.Stream.constant_rate ~in_port:0
          ~start:(1_000_000 + (b * burst * gap))
          ~gap
          (List.init burst (fun _ ->
               Workload.Soak.packet_of_index
                 (base + Workload.Soak.zipf_draw z rng))))
  in
  { name; spec = Nf.Spec.of_name name; prelude = heartbeats @ warm; bursts }

let make_engines ~shards nfs =
  List.map
    (fun nf ->
      let e = Dataplane.Shard.create (Dataplane.Plan.make ~shards nf.spec) in
      ignore (Dataplane.Shard.drain ~parallel:(shards > 1) e nf.prelude : float);
      e)
    nfs

(* ---- correctness, outside every timed region ------------------------- *)

let bytes_of p = Bytes.to_string (Net.Packet.to_bytes p)

(* Interpreter parity of the 1-shard engine on the head sample. *)
let interp_mismatches nf (reference : Dataplane.Shard.result array) sample =
  let entry = Nf.Registry.of_spec nf.spec in
  let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let bad = ref 0 in
  List.iteri
    (fun i (e : Workload.Stream.entry) ->
      let p = Net.Packet.copy e.packet in
      Exec.Meter.reset_observations meter;
      let ok =
        match
          Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss)
            ~in_port:e.in_port ~now:e.now entry.Nf.Registry.program p
        with
        | r ->
            r.Exec.Interp.outcome = reference.(i).outcome
            && bytes_of p = reference.(i).bytes
        | exception Exec.Interp.Stuck _ -> false
      in
      if not ok then incr bad)
    sample;
  !bad

let check nf =
  let sample = nf.prelude @ nf.bursts.(0) in
  let fresh s = Dataplane.Shard.create (Dataplane.Plan.make ~shards:s nf.spec) in
  match Dataplane.Shard.replay (fresh 1) sample with
  | exception Exec.Interp.Stuck _ -> (List.length sample, List.length sample)
  | reference ->
      let plan = Dataplane.Plan.make ~shards:probe_shards nf.spec in
      let serial = Dataplane.Shard.replay (fresh probe_shards) sample in
      let parallel =
        Dataplane.Shard.with_engine plan (fun e ->
            Dataplane.Shard.replay ~parallel:true e sample)
      in
      ( List.length sample,
        interp_mismatches nf reference sample
        + List.length
            (Dataplane.Oracle.equivalence ~strict_bytes:true ~nf:nf.name serial
               parallel)
        + List.length
            (Dataplane.Oracle.equivalence ~strict_bytes:(nf.name <> "nat")
               ~nf:nf.name reference parallel) )

(* ---- the timed loop -------------------------------------------------- *)

type round_log = {
  rounds : Timing.Samples.t;  (** seconds per round of one burst per NF *)
  drains : Timing.Samples.t array;  (** per NF, outside-timed drain *)
  overhead : Timing.Samples.t array;  (** per NF, outside minus drain's own *)
  mutable packets : int;
  mutable stuck : int;
}

let new_log nfs =
  let k = List.length nfs in
  {
    rounds = Timing.Samples.create ();
    drains = Array.init k (fun _ -> Timing.Samples.create ());
    overhead = Array.init k (fun _ -> Timing.Samples.create ());
    packets = 0;
    stuck = 0;
  }

(* Rounds for [budget] seconds, appended to [log] (a fresh one by
   default), which is returned.  [before i b] runs, untimed, before NF
   [i] drains burst [b]. *)
let timed_loop ?(tick = ignore) ?(before = fun _ _ -> ()) ?log ~shards ~budget
    nfs engines =
  let log = match log with Some l -> l | None -> new_log nfs in
  let nfs = Array.of_list nfs and engines = Array.of_list engines in
  let k = Array.length nfs in
  let t0 = Timing.now () in
  let r = ref 0 in
  while Timing.since t0 < budget || Timing.Samples.length log.rounds < 10 do
    let total = ref 0. in
    for i = 0 to k - 1 do
      let b = nfs.(i).bursts.(!r mod pool_bursts) in
      before i b;
      Spans.with_ ("drain " ^ nfs.(i).name) (fun () ->
          let t = Timing.now () in
          match Dataplane.Shard.drain ~parallel:(shards > 1) engines.(i) b with
          | inner ->
              let dt = Timing.since t in
              total := !total +. dt;
              Timing.Samples.add log.drains.(i) dt;
              Timing.Samples.add log.overhead.(i) (dt -. inner)
          | exception Exec.Interp.Stuck _ -> log.stuck <- log.stuck + burst);
      log.packets <- log.packets + burst
    done;
    Timing.Samples.add log.rounds !total;
    incr r;
    tick ()
  done;
  log

(* ---- per-layer probes (traced run only) ------------------------------ *)

let median_of s = Timing.median (Timing.Samples.to_array s)

let copies (b : Workload.Stream.t) =
  Array.of_list
    (List.map
       (fun (e : Workload.Stream.entry) -> (Net.Packet.copy e.packet, e.now, e.in_port))
       b)

(* The Specialize.exec loop alone, on a twin of an NF's engine: a runner
   warmed by the same prelude, which then sees the same bursts just
   before the engine drains them, so the two are measured under the same
   conditions.  Per burst: seconds and minor words per packet. *)
type twin = {
  sp : Exec.Specialize.t;
  meter : Exec.Meter.t;
  exec_s : Timing.Samples.t;
  words : Timing.Samples.t;
}

let twin_exec tw (p, now, in_port) =
  Exec.Meter.reset_observations tw.meter;
  ignore (Exec.Specialize.exec tw.sp ~in_port ~now p : int)

let twin nf =
  let entry = Nf.Registry.of_spec nf.spec in
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let sp, _ = Nf.Registry.specialize entry ~meter in
  let tw =
    { sp; meter; exec_s = Timing.Samples.create (); words = Timing.Samples.create () }
  in
  Array.iter (twin_exec tw) (copies nf.prelude);
  tw

let gc_cost =
  let a = Gc.minor_words () in
  Gc.minor_words () -. a

let twin_burst tw b =
  let pkts = copies b in
  let w0 = Gc.minor_words () in
  let _, dt = Timing.time (fun () -> Array.iter (twin_exec tw) pkts) in
  let w1 = Gc.minor_words () in
  Timing.Samples.add tw.exec_s dt;
  Timing.Samples.add tw.words ((w1 -. w0 -. gc_cost) /. float_of_int burst)

(* PCV traversals of one more burst through the twin. *)
let twin_traversals tw b =
  Array.fold_left
    (fun acc pkt ->
      twin_exec tw pkt;
      acc
      + Option.value ~default:0
          (Perf.Pcv.lookup (Exec.Meter.pcv_sum tw.meter) Perf.Pcv.traversals))
    0 (copies b)

let sink () =
  {
    Exec.Ds.s_counts = Array.make (Hw.Cost.nkinds + 1) 0;
    s_mem = (fun ~addr:_ ~write:_ ~dependent:_ -> ());
    s_mem_batched = true;
    s_meter = Exec.Meter.create (Hw.Model.null ());
  }

(* ns per call of [f i], over the keys of the burst pool in order. *)
let per_call ~budget ~calls f =
  let s = Timing.Samples.create () in
  let t0 = Timing.now () and round = ref 0 in
  while Timing.since t0 < budget || Timing.Samples.length s < 5 do
    let _, dt =
      Timing.time (fun () ->
          for i = 0 to calls - 1 do
            f ((!round * calls) + i)
          done)
    in
    Timing.Samples.add s (dt *. 1e9 /. float_of_int calls);
    incr round
  done;
  median_of s

(* Direct dslib calls with the workload's keys: the 5-word flow keys of
   the Zipf bursts, against tables holding the whole universe. *)
let dslib_probes ~budget nf =
  let flows =
    Array.concat
      (Array.to_list
         (Array.map
            (fun b ->
              Array.of_list
                (List.filter_map
                   (fun (e : Workload.Stream.entry) -> Net.Flow.of_packet e.packet)
                   b))
            nf.bursts))
  in
  let n = Array.length flows in
  let keys = Array.make (5 * n) 0 in
  Array.iteri
    (fun i (f : Net.Flow.t) ->
      keys.(5 * i) <- f.src_ip;
      keys.((5 * i) + 1) <- f.dst_ip;
      keys.((5 * i) + 2) <- f.src_port;
      keys.((5 * i) + 3) <- f.dst_port;
      keys.((5 * i) + 4) <- f.proto)
    flows;
  let alloc = Dslib.Layout.allocator () in
  let s = sink () in
  let hm =
    Dslib.Hash_map.create ~base:(Dslib.Layout.region alloc) ~key_len:5
      ~capacity:4096 ~buckets:4096 ()
  in
  let nat =
    let base = Dslib.Layout.region alloc in
    Dslib.Nat_table.create ~base ~capacity:4096 ~buckets:4096
      ~timeout:10_000_000
      ~alloc:(Dslib.Port_alloc.dll ~base:(base + 0x800000) ~port_lo:1024 ~port_hi:65535)
      ~port_lo:1024 ~port_hi:65535 ()
  in
  let ring =
    Dslib.Hash_ring.create ~base:(Dslib.Layout.region alloc)
      ~table_size:Nf.Maglev.default_config.ring_size
      ~backends:(List.init Nf.Maglev.default_config.backend_count Fun.id)
  in
  let meter = s.Exec.Ds.s_meter in
  for i = 0 to n - 1 do
    ignore (Dslib.Hash_map.fast_put hm s keys ~off:(5 * i) i : int);
    ignore (Dslib.Nat_table.fast_add_int nat s keys ~off:(5 * i) ~now:600_000 : int);
    Exec.Meter.reset_observations meter
  done;
  let hashes = Array.map Net.Flow.hash_key flows in
  let calls = min n 4096 in
  let get i =
    Exec.Meter.reset_observations meter;
    ignore (Dslib.Hash_map.fast_get hm s keys ~off:(5 * (i mod n)) : int)
  and lookup i =
    Exec.Meter.reset_observations meter;
    ignore
      (Dslib.Nat_table.fast_lookup_int nat s keys ~off:(5 * (i mod n))
         ~now:1_000_000
        : int)
  and backend i =
    ignore (Dslib.Hash_ring.backend_for ring meter hashes.(i mod n) : int)
  in
  [
    Metric.v "dslib.hash_map.get_ns" "ns" (per_call ~budget ~calls get);
    Metric.v "dslib.nat_table.lookup_ns" "ns" (per_call ~budget ~calls lookup);
    Metric.v "dslib.hash_ring.backend_for_ns" "ns" (per_call ~budget ~calls backend);
  ]

(* Steering alone: Plan.steer over one burst per NF. *)
let steer_probe ~budget ~shards nfs =
  let plans = List.map (fun nf -> (Dataplane.Plan.make ~shards nf.spec, nf)) nfs in
  let s = Timing.Samples.create () in
  let t0 = Timing.now () and r = ref 0 in
  while Timing.since t0 < budget || Timing.Samples.length s < 5 do
    let work =
      List.map (fun (plan, nf) -> (plan, copies nf.bursts.(!r mod pool_bursts))) plans
    in
    let _, dt =
      Timing.time (fun () ->
          List.iter
            (fun (plan, pkts) ->
              Array.iter
                (fun (p, _, in_port) ->
                  ignore (Sys.opaque_identity (Dataplane.Plan.steer plan ~in_port p)))
                pkts)
            work)
    in
    Timing.Samples.add s (dt *. 1e9 /. float_of_int (burst * List.length nfs));
    incr r
  done;
  median_of s

(* Skew of the flow-hash histogram: max shard load over the mean. *)
let skew_pct ~shards nfs =
  let mx = ref 0 and total = ref 0 in
  List.iter
    (fun nf ->
      let h =
        Dataplane.Shard.load_histogram
          (Dataplane.Plan.make ~shards nf.spec)
          (List.concat (Array.to_list nf.bursts))
      in
      mx := !mx + Array.fold_left max 0 h;
      total := !total + Array.fold_left ( + ) 0 h)
    nfs;
  100. *. ((float_of_int !mx *. float_of_int shards /. float_of_int !total) -. 1.)

(* Worker wake/park handoff: a parallel drain carrying one packet per
   shard of the firewall, timed from outside. *)
let handoff_probe ~budget ~shards nf =
  let plan = Dataplane.Plan.make ~shards nf.spec in
  let all = List.concat (Array.to_list nf.bursts) in
  let one_per_shard =
    List.init shards (fun s ->
        List.find
          (fun (e : Workload.Stream.entry) ->
            Dataplane.Plan.steer plan ~in_port:e.in_port e.packet
            = Dataplane.Dispatch.Shard s)
          all)
  in
  Dataplane.Shard.with_engine plan (fun e ->
      ignore (Dataplane.Shard.drain ~parallel:true e nf.prelude : float);
      let s = Timing.Samples.create () in
      let t0 = Timing.now () in
      while Timing.since t0 < budget || Timing.Samples.length s < 20 do
        let _, dt =
          Timing.time (fun () -> Dataplane.Shard.drain ~parallel:true e one_per_shard)
        in
        Timing.Samples.add s (dt *. 1e6)
      done;
      median_of s)

(* ---- the workload ---------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let nfs = List.map (traffic ~seed) nfs in
  let setup, engines =
    Timing.repeat_setup
      ~release:(List.iter Dataplane.Shard.stop)
      (fun () -> make_engines ~shards:1 nfs)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Dataplane.Shard.stop engines)
    (fun () ->
      let checked, bad =
        List.fold_left
          (fun (c, b) nf ->
            let c', b' = check nf in
            (c + c', b + b'))
          (0, 0) nfs
      in
      let notes = ref [] in
      let note s = notes := s :: !notes in
      note
        (Printf.sprintf
           "steady_zipf: firewall, nat, maglev at 1 shard; Zipf theta %.2f over %d \
            flows, %d-packet bursts, closed loop (one burst per NF per round)"
           theta universe burst);
      note
        (Printf.sprintf
           "checks: %d packets against the interpreter and, at %d shards, the \
            1-shard reference; %d mismatched"
           checked probe_shards bad);
      let finish (logs : round_log list) metrics =
        let sum f = List.fold_left (fun acc l -> acc + f l) 0 logs in
        {
          Metric.attempted = sum (fun l -> l.packets) + checked;
          failed = bad + sum (fun l -> l.stuck);
          metrics;
          notes = List.rev !notes;
        }
      in
      if not trace then begin
        let r =
          Timing.resetup setup
            ~release:(List.iter Dataplane.Shard.stop)
            (fun () -> make_engines ~shards:1 nfs)
        in
        let log =
          timed_loop ~tick:(fun () -> Timing.tick r) ~shards:1 ~budget:seconds nfs
            engines
        in
        note (Metric.describe_ops "round" log.rounds);
        List.iteri
          (fun i nf -> note (Metric.describe_ops ("  drain " ^ nf.name) log.drains.(i)))
          nfs;
        finish [ log ] (Metric.e2e ~setup ~ops:log.rounds ~items:log.packets)
      end
      else begin
        let third = seconds /. 3. in
        let plain = new_log nfs and traced = new_log nfs in
        let block log budget =
          ignore (timed_loop ~log ~shards:1 ~budget nfs engines : round_log)
        in
        Spans.alternate ~budget:(2. *. third) ~plain:(block plain)
          ~traced:(block traced);
        note (Metric.describe_ops "untraced round" plain.rounds);
        note (Metric.describe_ops "traced round" traced.rounds);
        let probe_budget = third /. 10. in
        (* the parts of a round, in the same rounds as the whole: each NF's
           exec loop on its twin, then its drain, timed from outside *)
        let twins = Array.of_list (List.map twin nfs) in
        let parts =
          timed_loop ~shards:1 ~budget:(3. *. probe_budget)
            ~before:(fun i b -> twin_burst twins.(i) b)
            nfs engines
        in
        let per_nf f = Array.to_list (Array.map f twins) in
        let fast =
          List.length (List.filter Fun.id (per_nf (fun tw -> Exec.Specialize.specialized tw.sp)))
        in
        let words =
          List.fold_left ( +. ) 0. (per_nf (fun tw -> median_of tw.words))
          /. float_of_int (Array.length twins)
        in
        let traversals =
          List.fold_left ( + ) 0
            (List.map2 (fun tw nf -> twin_traversals tw nf.bursts.(0)) (per_nf Fun.id) nfs)
        in
        let nat = List.find (fun nf -> nf.name = "nat") nfs in
        let whole = median_of plain.rounds in
        let sharded_metrics =
          let shards = probe_shards in
          let steer = steer_probe ~budget:probe_budget ~shards nfs in
          let handoff = handoff_probe ~budget:probe_budget ~shards (List.hd nfs) in
          let sharded = make_engines ~shards nfs in
          let two =
            Fun.protect
              ~finally:(fun () -> List.iter Dataplane.Shard.stop sharded)
              (fun () -> timed_loop ~shards ~budget:(2. *. probe_budget) nfs sharded)
          in
          [
            Metric.v "dataplane.steer_ns_per_pkt" "ns" steer;
            Metric.v "dataplane.skew_pct" "%" (skew_pct ~shards nfs);
            Metric.v "exec.pool.handoff_us" "us" handoff;
            Metric.v "dataplane.speedup_2_over_1" "ratio"
              (whole /. median_of two.rounds);
          ]
        in
        let samples = Timing.Samples.to_array in
        let check, check_failed, check_metrics =
          Metric.parts_sum ~what:"exec loop + drain overhead"
            ~whole:(samples parts.rounds)
            ~parts:
              (per_nf (fun tw -> (1., samples tw.exec_s))
              @ Array.to_list (Array.map (fun s -> (1., samples s)) parts.overhead))
        in
        note check;
        note
          ("chrome trace: "
          ^ Spans.write_trace ~name:"steady_zipf" ~obs:(Obs.Span.dump ()));
        let layer_metrics =
          List.map2
            (fun nf tw ->
              Metric.v ("exec.specialize.ns_per_pkt." ^ nf.name) "ns"
                (median_of tw.exec_s *. 1e9 /. float_of_int burst))
            nfs (per_nf Fun.id)
          @ [
              Metric.v "exec.fast_path_share" "ratio"
                (float_of_int fast /. float_of_int (Array.length twins));
              Metric.v "exec.alloc_words_per_pkt" "words" words;
              Metric.v "dataplane.drain_overhead_us" "us"
                (1e6
                *. Array.fold_left (fun acc s -> acc +. median_of s) 0. parts.overhead
                /. float_of_int (Array.length parts.overhead));
              Metric.v "dslib.traversals_per_pkt" "count"
                (float_of_int traversals /. float_of_int (burst * List.length nfs));
            ]
          @ dslib_probes ~budget:probe_budget nat
          @ sharded_metrics
          @ [
              Metric.trace_overhead ~plain:plain.rounds ~traced:traced.rounds;
            ]
          @ check_metrics
        in
        let o = finish [ plain; traced; parts ] layer_metrics in
        { o with attempted = o.attempted + 1; failed = o.failed + check_failed }
      end)
