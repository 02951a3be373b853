let kind = "token_bucket"

type t = {
  rate : int;
  burst : int;
  base : int;
  mutable level : int;
  mutable last : int;
}

let create ~base ~rate ~burst ?(now = 0) () =
  if rate < 1 || burst < 1 then invalid_arg "Token_bucket.create";
  { rate; burst; base; level = burst; last = now }

let refill t now =
  if now > t.last then begin
    let delta = now - t.last in
    (* Clamp before multiplying: once [delta] alone refills the bucket
       from empty the exact product is irrelevant, and [rate * delta]
       would overflow for pathological clock jumps. *)
    if delta >= (t.burst + t.rate - 1) / t.rate then t.level <- t.burst
    else t.level <- min t.burst (t.level + (t.rate * delta));
    t.last <- now
  end

let tokens t ~now =
  refill t now;
  t.level

(* The whole bucket state lives on one cache line: one load, one store. *)
let conform t meter ~bytes ~now =
  Costing.charge_load meter ~addr:t.base ();
  Costing.charge_alu meter 4 (* delta, scale, add, clamp *);
  Costing.charge_branch meter 1;
  refill t now;
  Costing.charge_alu meter 1;
  Costing.charge_branch meter 1;
  if bytes <= t.level then begin
    t.level <- t.level - bytes;
    Costing.charge_store meter ~addr:t.base ();
    Costing.charge_alu meter 1;
    1
  end
  else begin
    Costing.charge_store meter ~addr:(t.base + 8) ();
    0
  end

(* ---- specialized fast path ----------------------------------------

   Sink twin of [conform]; see {!Hash_map} for the discipline. *)

module S = Costing.Sink

let fast_conform t s ~bytes ~now =
  S.load s ~addr:t.base ();
  S.alu s 4;
  S.branch s 1;
  refill t now;
  S.alu s 1;
  S.branch s 1;
  if bytes <= t.level then begin
    t.level <- t.level - bytes;
    S.store s ~addr:t.base ();
    S.alu s 1;
    1
  end
  else begin
    S.store s ~addr:(t.base + 8) ();
    0
  end

let to_ds t =
  let call meter meth (args : int array) =
    match meth with
    | "conform" -> conform t meter ~bytes:args.(0) ~now:args.(1)
    | other -> invalid_arg ("token_bucket: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "conform" ->
        Some
          (fun (args : int array) ->
            fast_conform t s ~bytes:args.(0) ~now:args.(1))
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  let vec ic ma =
    Cost_vec.make ~ic:(Perf_expr.const ic) ~ma:(Perf_expr.const ma)
      ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const ic)
                 ~ma:(Perf_expr.const ma))

  let contract =
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"conform"
        [
          branch ~tag:"conform" ~note:"tokens available, consumed"
            (vec 10 2);
          branch ~tag:"exceed" ~note:"bucket too low, packet out of profile"
            (vec 9 2);
        ];
    ]
end
