(* Provenance printed with every result: what the process saw of the
   host, and how much parallelism it actually got. *)

(* Iterations of a dependent multiply-add chain: pure CPU, no memory
   traffic, no allocation. *)
let spin n =
  let x = ref 1 in
  for i = 1 to n do
    x := (!x * 1103515245) + i
  done;
  Sys.opaque_identity !x

(* Effective parallelism: the same calibrated spin on one domain, then on
   two domains at once.  A host with two real cores runs both in about
   the single-domain time (about 2.0); a host that advertises two CPUs
   but schedules one at a time takes twice as long (about 1.0). *)
let parallelism_probe () =
  let n = ref 1_000_000 in
  while snd (Timing.time (fun () -> spin !n)) < 0.02 do
    n := !n * 2
  done;
  let n = !n in
  let once () =
    let _, t1 = Timing.time (fun () -> spin n) in
    let _, t2 =
      Timing.time (fun () ->
          let d = Domain.spawn (fun () -> spin n) in
          let a = spin n in
          let b = Domain.join d in
          a + b)
    in
    2. *. t1 /. t2
  in
  Timing.median (Array.init 5 (fun _ -> once ()))

(* The CPUs this process may run on, as the kernel lists them in
   /proc/self/status (e.g. "0-1"), and their count: what `nproc` reports. *)
let cpus_allowed () =
  let prefix = "Cpus_allowed_list:" in
  let line =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          In_channel.input_all ic |> String.split_on_char '\n'
          |> List.find (String.starts_with ~prefix))
    with Sys_error _ | Not_found -> failwith "no Cpus_allowed_list in /proc/self/status"
  in
  let list =
    String.trim
      (String.sub line (String.length prefix)
         (String.length line - String.length prefix))
  in
  let count range =
    match String.split_on_char '-' range with
    | [ _ ] -> 1
    | [ a; b ] -> int_of_string b - int_of_string a + 1
    | _ -> failwith ("bad Cpus_allowed_list " ^ list)
  in
  (list, List.fold_left (fun n r -> n + count r) 0 (String.split_on_char ',' list))

let json ~seed ~parallelism =
  let cpus, nproc = cpus_allowed () in
  let base =
    match Perf.Provenance.json () with Perf.Json.Obj f -> f | _ -> []
  in
  Perf.Json.to_string
    (Perf.Json.Obj
       (base
       @ [
           ("seed", Perf.Json.Int seed);
           ("nproc", Perf.Json.Int nproc);
           ("cpus_allowed_list", Perf.Json.String cpus);
           ( "effective_parallelism",
             Perf.Json.String (Printf.sprintf "%.3f" parallelism) );
           ("clock", Perf.Json.String "bechamel monotonic (CLOCK_MONOTONIC)");
         ]))
