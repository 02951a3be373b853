(* Every duration the benchmark reports comes from bechamel's monotonic
   clock (CLOCK_MONOTONIC, nanoseconds, allocation-free).  Timings are
   kept as samples and summarised by order statistics, never best-of. *)

let now () = Monotonic_clock.now ()

(* Seconds elapsed since [t0]. *)
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* A growable float sample buffer. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add s x =
    if s.len = Array.length s.data then begin
      let d = Array.make (2 * s.len) 0. in
      Array.blit s.data 0 d 0 s.len;
      s.data <- d
    end;
    s.data.(s.len) <- x;
    s.len <- s.len + 1

  let length s = s.len
  let to_array s = Array.sub s.data 0 s.len
  let sum s = Array.fold_left ( +. ) 0. (to_array s)
end

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear-interpolated quantile of a sorted, non-empty array, [q] in [0,1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile of no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* On a shared host the neighbours' load comes and goes in periods of
   seconds and slows every operation in them alike, by up to 1.6x.  A
   whole-run order statistic then reads the share of the run that fell in
   such periods: a run's median flips between the fast and the slow level
   as that share crosses one half (the medians of ten steady_zipf runs
   of the same code spread by 30%), and a whole-run p99 moved from 3.9 to
   8.0 ms.  So the benchmark takes each order statistic within short
   windows of consecutive operations — robust to the odd slow operation,
   as a median is — and averages the windows, which moves smoothly with
   the share of slow periods instead of flipping. *)

(* Mean over consecutive windows of [w] samples (a trailing partial
   window is dropped) of the [q]-quantile of each window. *)
let windowed ~w q xs =
  let k = Array.length xs / w in
  let sum = ref 0. in
  for i = 0 to k - 1 do
    sum := !sum +. quantile_sorted (sorted (Array.sub xs (i * w) w)) q
  done;
  !sum /. float_of_int k

(* The typical operation time: windowed median over windows of ten. *)
let typical xs =
  if Array.length xs >= 20 then windowed ~w:10 0.5 xs else median xs

(* The tail: the highest of p90, p75 and p50 whose windows — sized so that
   ten samples lie beyond the percentile (100, 40, 20 operations) — fit at
   least twice in the run, windowed likewise. *)
let tail xs =
  let n = Array.length xs in
  match
    List.find_opt
      (fun (_, w) -> n >= 2 * w)
      [ (90., 100); (75., 40); (50., 20) ]
  with
  | Some (p, w) -> (p, windowed ~w (p /. 100.) xs)
  | None -> (50., median xs)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let a = sorted xs in
  let m = quantile_sorted a 0.5 in
  if m = 0. then 0.
  else (quantile_sorted a 0.75 -. quantile_sorted a 0.25) /. Float.abs m

(* One set-up sample: the mean time of [batch] set-ups in a row, every
   result but the last released.  A set-up of tens of microseconds cannot
   be timed one at a time on a shared host, so cheap set-ups are batched
   into samples of milliseconds. *)
let setup_sample ~batch ~release f =
  let t0 = now () in
  for _ = 2 to batch do
    release (f ())
  done;
  let r = f () in
  (r, since t0 /. float_of_int batch)

(* Set-up is timed five times before a run, and reported as the median
   with the samples taken during the run (see [resetup]).  [release]
   disposes of every result but the last, which is returned with the
   samples. *)
let repeat_setup ?(batch = 1) ?(release = ignore) f =
  let samples = Samples.create () in
  let last = ref None in
  for _ = 1 to 5 do
    Option.iter release !last;
    let r, dt = setup_sample ~batch ~release f in
    Samples.add samples dt;
    last := Some r
  done;
  (samples, Option.get !last)

(* Set-up samples spread over the timed loop: a set-up timed only at the
   start reads the neighbours' load of that one moment, so the loop also
   times a fresh, discarded set-up about once a second ([tick] between
   operations), and these samples outnumber the five taken at the start. *)
type resetup = { mutable last : int64; sample : unit -> unit }

let resetup samples ?(batch = 1) ?(release = ignore) f =
  {
    last = now ();
    sample =
      (fun () ->
        let r, dt = setup_sample ~batch ~release f in
        Samples.add samples dt;
        release r);
  }

let tick r =
  if since r.last >= 1. then begin
    r.sample ();
    r.last <- now ()
  end
