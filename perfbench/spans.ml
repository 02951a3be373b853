(* The benchmark's own spans, recorded around its calls into each layer
   on the monotonic clock.  They live in memory (capped) and are written
   out once, at the end of a traced run, as Chrome trace-event JSON next
   to the library's own [Obs] spans.  Spans are opened on the main
   domain only, so nesting is a plain stack. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start_ns : int64;
  dur_ns : int64;
}

let enabled = ref false
let cap = 100_000
let recorded : span list ref = ref []
let count = ref 0
let next_id = ref 1
let stack : int list ref = ref []
let origin = ref 0L

let enable () =
  enabled := true;
  if !origin = 0L then origin := Timing.now ()

(* Alternate untraced and traced blocks of half a second for [budget]
   seconds (at least one of each), so that the traced and the untraced
   samples see the same host conditions and their difference is the
   tracing overhead.  A traced block switches the library's [Obs] runtime
   and this recorder on. *)
let alternate ~budget ~plain ~traced =
  let t0 = Timing.now () and k = ref 0 in
  while Timing.since t0 < budget || !k < 2 do
    if !k mod 2 = 0 then plain 0.5
    else begin
      Obs.enable ();
      enable ();
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          enabled := false)
        (fun () -> traced 0.5)
    end;
    incr k
  done

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Timing.now () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ns = Int64.sub (Timing.now ()) t0 in
        stack := List.tl !stack;
        if !count < cap then begin
          incr count;
          recorded := { id; parent; name; start_ns = t0; dur_ns } :: !recorded
        end)
      f
  end

(* Self time per span name: a span's duration minus the part its direct
   children cover. *)
let self_times spans ~id ~parent ~name ~dur =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let p = parent s in
      Hashtbl.replace children p
        (dur s +. Option.value (Hashtbl.find_opt children p) ~default:0.))
    spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value (Hashtbl.find_opt children (id s)) ~default:0.
      in
      Hashtbl.replace totals (name s)
        (self +. Option.value (Hashtbl.find_opt totals (name s)) ~default:0.))
    spans;
  fun n -> Option.value (Hashtbl.find_opt totals n) ~default:0.

(* Self seconds per name over a list of library spans. *)
let obs_self (spans : Obs.Span.t list) =
  self_times spans
    ~id:(fun (s : Obs.Span.t) -> s.id)
    ~parent:(fun (s : Obs.Span.t) -> s.parent)
    ~name:(fun (s : Obs.Span.t) -> s.name)
    ~dur:(fun (s : Obs.Span.t) -> float_of_int s.dur_us *. 1e-6)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace: the benchmark's spans as process 1 (monotonic clock,
   microseconds since the first span) and the kept library spans as
   process 2 (the library's own clock and origin). *)
let write_chrome ~path ~(obs : Obs.Span.t list) =
  let oc = open_out path in
  let first = ref true in
  let event fmt =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc fmt
  in
  output_string oc "{\"traceEvents\":[\n";
  event
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"benchmark \
     (monotonic clock)\"}}";
  event
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"library \
     Obs spans\"}}";
  List.iter
    (fun s ->
      event
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (json_string s.name)
        (Int64.to_float (Int64.sub s.start_ns !origin) /. 1e3)
        (Int64.to_float s.dur_ns /. 1e3)
        s.id s.parent)
    (List.rev !recorded);
  List.iter
    (fun (s : Obs.Span.t) ->
      event
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":2,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"id\":%d,\"parent\":%d}}"
        (json_string s.name) (json_string s.cat) s.tid s.start_us s.dur_us s.id
        s.parent)
    obs;
  output_string oc "\n]}\n";
  close_out oc

(* Traces go to .bench_out/ under the working directory (the checkout). *)
let write_trace ~name ~obs =
  let dir = ".bench_out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (name ^ ".trace.json") in
  write_chrome ~path ~obs;
  path
