(* Metric names, units and the result a workload hands back. *)

type t = { name : string; value : float; unit_ : string }

let v name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;
  metrics : t list;
      (** end-to-end metrics in an untraced run, per-layer ones in a
          traced run *)
  notes : string list;  (** human-readable lines printed before the result *)
}

(* Per-layer metrics, named [<layer>.<quantity>]: their units and the
   workloads that measure them come from perfbench/layers.json (read from
   the checkout root, where the benchmark runs).  A traced run reports
   each of them; a layer the workload does not exercise reads 0. *)
type layer = { lname : string; lunit : string; workloads : string list }

let per_layer =
  lazy
    (let open Perf.Json in
     let str k r = Result.bind (member k r) to_str in
     let all f xs =
       List.fold_right
         (fun x acc ->
           let* y = f x in
           let* acc = acc in
           Ok (y :: acc))
         xs (Ok [])
     in
     let row r =
       let* lname = str "name" r in
       let* lunit = str "unit" r in
       let* ws = Result.bind (member "workloads" r) to_list in
       let* workloads = all to_str ws in
       Ok { lname; lunit; workloads }
     in
     let text =
       In_channel.with_open_bin "perfbench/layers.json" In_channel.input_all
     in
     match Result.bind (Result.bind (of_string text) to_list) (all row) with
     | Ok layers -> layers
     | Error e -> failwith ("perfbench/layers.json: " ^ e))

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* The end-to-end metrics, which every workload reports, from set-up
   samples (seconds), operation samples (seconds) and the items those
   operations completed.  An operation is one closed-loop unit of the
   workload (a derivation round, a round of bursts, a replayed chunk);
   [throughput] counts its items (contracts or packets) per timed
   second. *)
let e2e ~setup ~ops ~items =
  let ops_a = Timing.Samples.to_array ops in
  let _, tail = Timing.tail ops_a in
  [
    v "setup_s" "s" (Timing.median (Timing.Samples.to_array setup));
    v "latency_ms" "ms" (1e3 *. Timing.typical ops_a);
    v "tail_ms" "ms" (1e3 *. tail);
    v "throughput" "1/s" (float_of_int items /. Timing.Samples.sum ops);
    v "peak_heap_mb" "MB" (peak_heap_mb ());
  ]

(* Complete a traced run's metrics: every per-layer name, in the
   canonical order, 0 where the workload did not measure it.  A workload
   must measure exactly the metrics layers.json lists for it. *)
let complete_layers ~workload ms =
  let layers = Lazy.force per_layer in
  List.iter
    (fun m ->
      match List.find_opt (fun l -> l.lname = m.name) layers with
      | Some l when List.mem workload l.workloads -> ()
      | _ -> failwith (workload ^ " measures " ^ m.name ^ ", not listed for it in layers.json"))
    ms;
  List.map
    (fun l ->
      match List.find_opt (fun m -> m.name = l.lname) ms with
      | Some m -> { m with unit_ = l.lunit }
      | None when List.mem workload l.workloads ->
          failwith (workload ^ " does not measure " ^ l.lname)
      | None -> v l.lname l.lunit 0.)
    layers

(* The traced run's overhead: traced against untraced operations, by
   their windowed medians. *)
let trace_overhead ~plain ~traced =
  let m s = Timing.typical (Timing.Samples.to_array s) in
  v "obs.trace_overhead_pct" "%" (100. *. (m traced -. m plain) /. m plain)

(* The parts-sum check: the whole (its samples) against the sum of its
   measured parts, each a coefficient times the median of its samples.
   The residual, the share of the whole the parts leave unattributed, must
   stay within the spread of the measurements it is made of (the whole's
   IQR/median plus each part's, weighted by the part's share of the
   whole) or 1%.  It counts as one checked operation, failed when it does
   not hold. *)
let parts_sum ~what ~whole ~parts =
  let m = Timing.median whole in
  let share (k, xs) = k *. Timing.median xs /. m in
  let residual =
    100. *. (1. -. List.fold_left (fun acc p -> acc +. share p) 0. parts)
  in
  let spread =
    100.
    *. List.fold_left
         (fun acc ((_, xs) as p) -> acc +. (Float.abs (share p) *. Timing.spread xs))
         (Timing.spread whole) parts
  in
  let holds = Float.abs residual <= Float.max spread 1. in
  ( Printf.sprintf
      "parts-sum: %s leave %.2f%% of the whole unattributed (spread %.2f%%): %s"
      what residual spread
      (if holds then "holds" else "FAILS"),
    (if holds then 0 else 1),
    [
      v "trace.parts_residual_pct" "%" residual;
      v "trace.parts_spread_pct" "%" spread;
    ] )

let describe_ops name ops =
  let a = Timing.Samples.to_array ops in
  let p, tail = Timing.tail a in
  let q x = 1e3 *. Timing.quantile a x in
  Printf.sprintf
    "%s: %d samples, whole-run p10/p25/p50/p75/p90 \
     %.4f/%.4f/%.4f/%.4f/%.4f ms, windowed p50 %.4f ms, windowed p%g %.4f \
     ms, IQR/median %.1f%%"
    name (Array.length a) (q 0.1) (q 0.25) (q 0.5) (q 0.75) (q 0.9)
    (1e3 *. Timing.typical a)
    p (1e3 *. tail)
    (100. *. Timing.spread a)

let number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "metric value is not finite"

let json_line ~correct ~attempted ~failed ms =
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
      (Spans.json_string m.name) (number m.value) (Spans.json_string m.unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric ms))
