(* The BOLT benchmark: one process, one workload, one seed.

     bolt_bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints provenance and human-readable lines, then, as the last line of
   standard output, one JSON object: correctness, operations attempted and
   failed, and the metrics — end-to-end ones untraced, per-layer ones with
   --trace 1. *)

let workloads =
  [
    ("contracts", Contracts.run);
    ("steady_zipf", Dataplane_wl.run);
    ("distill_churn", Churn.run);
  ]

let usage () =
  prerr_endline
    ("usage: bolt_bench.exe --workload ("
    ^ String.concat "|" (List.map fst workloads)
    ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_arg n; parse rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some x when x > 0. -> seconds := x
        | _ -> usage ());
        parse rest
    | "--trace" :: t :: rest ->
        (match t with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> usage ()
  in
  let parallelism = Host.parallelism_probe () in
  Printf.printf "provenance %s\n%!" (Host.json ~seed:!seed ~parallelism);
  Obs.disable ();
  Obs.reset ();
  let o = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let metrics =
    if !trace then Metric.complete_layers ~workload:!workload o.Metric.metrics
    else o.metrics
  in
  Printf.printf "== %s (seed %d, %s)\n" !workload !seed
    (if !trace then "traced" else "untraced");
  List.iter (Printf.printf "  %s\n") o.notes;
  Printf.printf "  error_rate = %d/%d = %g\n" o.failed o.attempted
    (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  List.iter
    (fun m -> Printf.printf "  %-38s %14.6g %s\n" m.Metric.name m.value m.unit_)
    metrics;
  print_endline
    (Metric.json_line ~correct:(o.failed = 0) ~attempted:o.attempted
       ~failed:o.failed metrics)
