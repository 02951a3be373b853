(* Stateful model-based fuzzing of the dslib structures (the Rewbert
   recipe: generate a command sequence, replay it against the real
   structure and a purely-functional fake, compare observable replies at
   every step).

   Each {!case} packages one structure: a command generator and a [run]
   function that replays a command list and reports the first violation
   of either property —

   - {e model agreement}: every observable reply matches the {!Fake};
   - {e contract bounds}: the structure's [Perf.Ds_contract] branch for
     the taken path upper-bounds the metered cost of the command, at a
     binding built from the PCVs the command observed.

   The two properties are surfaced as separate oracles
   ({!Oracle.stateful_model} / {!Oracle.stateful_bounds}); both share
   this replay engine, and each carries a fault-injection hook ([tamper]
   corrupts the real structure's replies before the comparison, [weaken]
   shrinks the contract branch before the bound check) so the catch
   tests can prove the oracles detect what they claim to. *)

module P = Workload.Prng

(* ---- Commands --------------------------------------------------------- *)

(* One flat command vocabulary across all cases; each case's generator
   emits only its own constructors.  Commands carry concrete arguments
   (keys, clocks), so a printed trace is replayable verbatim. *)
type cmd =
  | H_get of int array
  | H_put of int array * int
  | H_remove of int array
  | F_get of int array * int
  | F_put of int array * int * int
  | F_expire of int
  | M_learn of { mac : int; port : int; now : int }
  | M_lookup of int
  | M_expire of int
  | N_add of int array * int
  | N_lookup_int of int array * int
  | N_lookup_ext of int * int
  | N_expire of int
  | T_conform of { bytes : int; now : int }
  | P_alloc
  | P_free of int
  | L_route of { prefix : int; len : int; port : int }
  | L_lookup of int

let pp_key ppf k =
  Format.fprintf ppf "[%s]"
    (String.concat "," (List.map string_of_int (Array.to_list k)))

let pp_cmd ppf = function
  | H_get k -> Format.fprintf ppf "get %a" pp_key k
  | H_put (k, v) -> Format.fprintf ppf "put %a <- %d" pp_key k v
  | H_remove k -> Format.fprintf ppf "remove %a" pp_key k
  | F_get (k, now) -> Format.fprintf ppf "get %a @@ %d" pp_key k now
  | F_put (k, v, now) -> Format.fprintf ppf "put %a <- %d @@ %d" pp_key k v now
  | F_expire now | M_expire now | N_expire now ->
      Format.fprintf ppf "expire @@ %d" now
  | M_learn { mac; port; now } ->
      Format.fprintf ppf "learn mac:%d port:%d @@ %d" mac port now
  | M_lookup mac -> Format.fprintf ppf "lookup mac:%d" mac
  | N_add (k, now) -> Format.fprintf ppf "add_int %a @@ %d" pp_key k now
  | N_lookup_int (k, now) ->
      Format.fprintf ppf "lookup_int %a @@ %d" pp_key k now
  | N_lookup_ext (p, now) -> Format.fprintf ppf "lookup_ext %d @@ %d" p now
  | T_conform { bytes; now } ->
      Format.fprintf ppf "conform bytes:%d @@ %d" bytes now
  | P_alloc -> Format.fprintf ppf "alloc"
  | P_free p -> Format.fprintf ppf "free %d" p
  | L_route { prefix; len; port } ->
      Format.fprintf ppf "route 0x%x/%d -> %d" prefix len port
  | L_lookup a -> Format.fprintf ppf "lookup 0x%x" a

let pp_trace ppf cmds =
  List.iteri (fun i c -> Format.fprintf ppf "  %2d: %a@\n" i pp_cmd c) cmds

(* Pointwise argument shrinks (the structural list shrinks live in
   {!Shrink.sequence}).  Keys and clocks are left alone — clocks must
   stay monotone and key identity is usually the point. *)
let shrink_cmd c =
  let few xs = List.filteri (fun i _ -> i < 3) xs in
  match c with
  | H_put (k, v) -> few (List.map (fun v -> H_put (k, v)) (Shrink.int ~lo:0 v))
  | F_put (k, v, now) ->
      few (List.map (fun v -> F_put (k, v, now)) (Shrink.int ~lo:0 v))
  | M_learn { mac; port; now } ->
      few
        (List.map (fun port -> M_learn { mac; port; now }) (Shrink.int ~lo:0 port))
  | T_conform { bytes; now } ->
      few
        (List.map
           (fun bytes -> T_conform { bytes; now })
           (Shrink.int ~lo:0 bytes))
  | P_free p -> few (List.map (fun p -> P_free p) (Shrink.int ~lo:0 p))
  | L_lookup a -> few (List.map (fun a -> L_lookup a) (Shrink.int ~lo:0 a))
  | _ -> []

(* ---- Replay engine ---------------------------------------------------- *)

type hooks = {
  tamper : int list -> int list;
      (** Applied to the real structure's observable reply before the
          model comparison — identity in production. *)
  weaken : Perf.Cost_vec.t -> Perf.Cost_vec.t;
      (** Applied to the contract branch before the bound check —
          identity in production. *)
}

let no_hooks = { tamper = (fun o -> o); weaken = (fun c -> c) }

type outcome = {
  model_error : string option;
  bounds_error : string option;
}

type t = {
  name : string;
  gen : P.t -> cmd list;
  run : hooks -> cmd list -> outcome;
}

(* One executed command, as reported by a case's [exec]:
   [raw_obs] is the real structure's observable reply; [finish] receives
   the (possibly tampered) reply, commits the fake transition and
   returns a disagreement message if any; [bounds] names the contract
   branch the command took — [(meth, tag, binding overrides)] — or
   [None] for commands outside the contract (config-time route installs,
   updates the flow-table contract deliberately has no branch for). *)
type step = {
  raw_obs : int list;
  finish : int list -> string option;
  bounds : (string * string * (Perf.Pcv.t * int) list) option;
}

type stepr = Skip | Step of step

let pp_ints ppf xs =
  Format.fprintf ppf "[%s]" (String.concat ";" (List.map string_of_int xs))

let expect expected got =
  if got = expected then None
  else
    Some
      (Format.asprintf "real replied %a, model expected %a" pp_ints got
         pp_ints expected)

let drive ~ds_kind ~contracts ~hooks ~exec cmds =
  let lib = Perf.Ds_contract.library contracts in
  let meter = Exec.Meter.create (Hw.Model.conservative ()) in
  let model_error = ref None and bounds_error = ref None in
  List.iteri
    (fun stepi cmd ->
      if !model_error = None || !bounds_error = None then begin
        Exec.Meter.reset_observations meter;
        let ic0 = Exec.Meter.ic meter
        and ma0 = Exec.Meter.ma meter
        and cy0 = Exec.Meter.cycles meter in
        match exec meter cmd with
        | Skip -> ()
        | Step { raw_obs; finish; bounds } ->
            let ic = Exec.Meter.ic meter - ic0
            and ma = Exec.Meter.ma meter - ma0
            and cycles = Exec.Meter.cycles meter - cy0 in
            (match finish (hooks.tamper raw_obs) with
            | Some msg when !model_error = None ->
                model_error :=
                  Some (Format.asprintf "step %d: %a — %s" stepi pp_cmd cmd msg)
            | _ -> ());
            (match bounds with
            | Some (meth, tag, overrides) when !bounds_error = None ->
                let contract =
                  Perf.Ds_contract.find_exn lib ~ds_kind ~meth
                in
                let branch =
                  Perf.Ds_contract.find_branch_exn contract ~tag
                in
                let cost = hooks.weaken branch.Perf.Ds_contract.cost in
                let pcv_max = Exec.Meter.pcv_max meter in
                let binding =
                  List.map
                    (fun pcv ->
                      let v =
                        match List.assoc_opt pcv overrides with
                        | Some v -> v
                        | None ->
                            Option.value (Perf.Pcv.lookup pcv_max pcv)
                              ~default:0
                      in
                      (pcv, v))
                    (Perf.Cost_vec.pcvs cost)
                in
                let check metric measured =
                  let bound = Perf.Cost_vec.eval_exn binding cost metric in
                  if bound < measured && !bounds_error = None then
                    bounds_error :=
                      Some
                        (Format.asprintf
                           "step %d: %a — %s.%s/%s %s bound %d < measured \
                            %d at %a"
                           stepi pp_cmd cmd ds_kind meth tag
                           (Perf.Metric.to_string metric)
                           bound measured Perf.Pcv.pp_binding binding)
                in
                check Perf.Metric.Instructions ic;
                check Perf.Metric.Memory_accesses ma;
                check Perf.Metric.Cycles cycles
            | _ -> ())
      end)
    cmds;
  { model_error = !model_error; bounds_error = !bounds_error }

(* Monotone command clock: small steps with occasional expiry storms. *)
let clock rng ~step ~storm =
  let now = ref 0 in
  fun () ->
    (if P.bool rng 0.12 then now := !now + storm + P.below rng storm
     else now := !now + P.below rng step);
    !now

let gen_length rng = 5 + P.below rng 35

(* ---- Case: raw hash map ----------------------------------------------- *)

let hash_case =
  let key_len = 2 and capacity = 24 and buckets = 8 in
  let base = 0x5100_0000 in
  let gen rng =
    let key () = [| P.below rng 24; P.below rng 4 |] in
    List.init (gen_length rng) (fun _ ->
        match P.below rng 10 with
        | 0 | 1 | 2 -> H_get (key ())
        | 3 | 4 | 5 | 6 -> H_put (key (), P.below rng 100)
        | _ -> H_remove (key ()))
  in
  let run hooks cmds =
    let map =
      Dslib.Hash_map.create ~base ~key_len ~capacity ~buckets ()
    in
    let fake = ref (Fake.Table.create ~capacity) in
    drive ~ds_kind:"hash_map"
      ~contracts:(Dslib.Hash_map.Recipe.contract ~key_len)
      ~hooks cmds
      ~exec:(fun meter cmd ->
        match cmd with
        | H_get key ->
            let probe = Dslib.Hash_map.get map meter key in
            let hit = probe.Dslib.Hash_map.result >= 0 in
            let obs =
              if hit then
                [ 1; Dslib.Hash_map.value_of map meter probe.Dslib.Hash_map.result ]
              else [ 0 ]
            in
            let expected =
              match Fake.Table.get !fake key with
              | Some v -> [ 1; v ]
              | None -> [ 0 ]
            in
            Step
              {
                raw_obs = obs;
                finish = expect expected;
                bounds = Some ("get", (if hit then "hit" else "miss"), []);
              }
        | H_put (key, v) ->
            let present = Fake.Table.mem !fake key in
            let probe = Dslib.Hash_map.put map meter key v in
            let ok = probe.Dslib.Hash_map.result >= 0 in
            let fake', r = Fake.Table.put !fake key v in
            let expected =
              match r with Fake.Table.Full -> [ 0 ] | _ -> [ 1 ]
            in
            let tag = if not ok then "full" else if present then "update" else "new" in
            Step
              {
                raw_obs = [ (if ok then 1 else 0) ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect expected obs);
                bounds = Some ("put", tag, []);
              }
        | H_remove key ->
            let probe = Dslib.Hash_map.remove map meter key in
            let found = probe.Dslib.Hash_map.result >= 0 in
            let fake', removed = Fake.Table.remove !fake key in
            Step
              {
                raw_obs = [ (if found then 1 else 0) ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [ (if removed then 1 else 0) ] obs);
                bounds = Some ("remove", (if found then "found" else "absent"), []);
              }
        | _ -> Skip)
  in
  { name = "hash_map"; gen; run }

(* ---- Case: flow table ------------------------------------------------- *)

let flow_case =
  let key_len = 2 and capacity = 16 and buckets = 4 in
  let timeout = 64 and granularity = 8 in
  let base = 0x5200_0000 in
  let gen rng =
    let now = clock rng ~step:16 ~storm:timeout in
    let key () = [| P.below rng 16; P.below rng 3 |] in
    List.init (gen_length rng) (fun _ ->
        let t = now () in
        match P.below rng 10 with
        | 0 | 1 | 2 -> F_get (key (), t)
        | 3 | 4 | 5 | 6 | 7 -> F_put (key (), P.below rng 100, t)
        | _ -> F_expire t)
  in
  let run hooks cmds =
    let ft =
      Dslib.Flow_table.create ~base ~key_len ~capacity ~buckets ~timeout
        ~granularity ()
    in
    let fake = ref (Fake.Flow.create ~capacity ~timeout ~granularity) in
    drive ~ds_kind:"flow_table"
      ~contracts:(Dslib.Flow_table.Recipe.contract ~key_len ())
      ~hooks cmds
      ~exec:(fun meter cmd ->
        match cmd with
        | F_get (key, now) ->
            let r = Dslib.Flow_table.get ft meter key ~now in
            let fake', e = Fake.Flow.get !fake key ~now in
            let obs = match r with Some v -> [ 1; v ] | None -> [ 0 ] in
            let expected = match e with Some v -> [ 1; v ] | None -> [ 0 ] in
            Step
              {
                raw_obs = obs;
                finish =
                  (fun obs ->
                    fake := fake';
                    expect expected obs);
                bounds =
                  Some ("get", (if r <> None then "hit" else "miss"), []);
              }
        | F_put (key, v, now) ->
            let present = Fake.Flow.mem !fake key in
            let idx = Dslib.Flow_table.put ft meter key ~value:v ~now in
            let fake', r = Fake.Flow.put !fake key ~value:v ~now in
            let expected =
              match r with Fake.Flow.Full -> [ 0 ] | _ -> [ 1 ]
            in
            Step
              {
                raw_obs = [ (if idx >= 0 then 1 else 0) ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect expected obs);
                bounds =
                  (* the contract has no update branch: updates are the
                     refresh the NFs do via [get], so only check
                     fresh-insert and full outcomes *)
                  (if present then None
                   else Some ("put", (if idx >= 0 then "ok" else "full"), []));
              }
        | F_expire now ->
            let n = Dslib.Flow_table.expire ft meter ~now in
            let fake', en, _ = Fake.Flow.expire !fake ~now in
            Step
              {
                raw_obs = [ n ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [ en ] obs);
                bounds = Some ("expire", "expire", []);
              }
        | _ -> Skip)
  in
  { name = "flow_table"; gen; run }

(* ---- Case: MAC table (learning bridge) -------------------------------- *)

let mac_case =
  let capacity = 24 and buckets = 4 and timeout = 64 and threshold = 2 in
  let base = 0x5300_0000 in
  let gen rng =
    let now = clock rng ~step:16 ~storm:timeout in
    let mac () = P.below rng 512 in
    List.init (gen_length rng) (fun _ ->
        let t = now () in
        match P.below rng 10 with
        | 0 | 1 | 2 | 3 | 4 ->
            M_learn { mac = mac (); port = P.below rng 8; now = t }
        | 5 | 6 | 7 -> M_lookup (mac ())
        | _ -> M_expire t)
  in
  let run hooks cmds =
    let mt =
      Dslib.Mac_table.create ~base ~capacity ~buckets ~timeout ~threshold ()
    in
    let fake = ref (Fake.Flow.create ~capacity ~timeout ~granularity:1) in
    drive ~ds_kind:"mac_table"
      ~contracts:(Dslib.Mac_table.Recipe.contract ~buckets ~capacity)
      ~hooks cmds
      ~exec:(fun meter cmd ->
        match cmd with
        | M_learn { mac; port; now } ->
            let key = [| mac |] in
            let known = Fake.Flow.peek !fake key <> None in
            let full =
              (not known) && Fake.Flow.size !fake >= capacity
            in
            let rc0 = Dslib.Mac_table.rehash_count mt in
            Dslib.Mac_table.learn mt meter ~mac ~port ~now;
            let rehashed = Dslib.Mac_table.rehash_count mt > rc0 in
            let fake', _ = Fake.Flow.put !fake key ~value:port ~now in
            let tag =
              if rehashed then "rehash"
              else if known then "known"
              else if full then "full"
              else "learned"
            in
            let overrides =
              if rehashed then
                (* the reseed's dup-check walks run under the fresh seed,
                   so their lengths are not observed as [t]; chain length
                   is bounded by occupancy, so bind [t] and [o] to the
                   resident-entry count *)
                let o = Dslib.Mac_table.size mt in
                [
                  (Perf.Pcv.occupancy, o);
                  ( Perf.Pcv.traversals,
                    max o (Dslib.Mac_table.last_learn_traversals mt) );
                ]
              else []
            in
            Step
              {
                raw_obs = [];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [] obs);
                bounds = Some ("learn", tag, overrides);
              }
        | M_lookup mac ->
            let p = Dslib.Mac_table.lookup mt meter ~mac in
            let expected =
              match Fake.Flow.peek !fake [| mac |] with
              | Some v -> [ v ]
              | None -> [ -1 ]
            in
            Step
              {
                raw_obs = [ p ];
                finish = expect expected;
                bounds = Some ("lookup", (if p >= 0 then "hit" else "miss"), []);
              }
        | M_expire now ->
            let n = Dslib.Mac_table.expire mt meter ~now in
            let fake', en, _ = Fake.Flow.expire !fake ~now in
            Step
              {
                raw_obs = [ n ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [ en ] obs);
                bounds = Some ("expire", "expire", []);
              }
        | _ -> Skip)
  in
  { name = "mac_table"; gen; run }

(* ---- Case: NAT table + port allocator --------------------------------- *)

let nat_case which =
  let capacity = 8 and buckets = 2 and timeout = 64 and granularity = 4 in
  let port_lo = 1000 in
  (* dll gets more ports than flows so "full" is reachable; array gets
     fewer so "no_port" is *)
  let port_hi, alloc_name, name =
    match which with
    | `Dll -> (1011, "dll", "nat_dll")
    | `Array -> (1005, "array", "nat_array")
  in
  let base = 0x5400_0000 in
  let gen rng =
    let now = clock rng ~step:16 ~storm:timeout in
    let key () =
      [|
        0x0a000000 + P.below rng 4;
        0x30000000 + P.below rng 2;
        P.below rng 2;
        80 + P.below rng 2;
        (if P.bool rng 0.5 then 6 else 17);
      |]
    in
    List.init (gen_length rng) (fun _ ->
        let t = now () in
        match P.below rng 20 with
        | n when n < 7 -> N_add (key (), t)
        | n when n < 13 -> N_lookup_int (key (), t)
        | n when n < 17 ->
            N_lookup_ext (port_lo - 2 + P.below rng (port_hi - port_lo + 5), t)
        | _ -> N_expire t)
  in
  let run hooks cmds =
    let alloc =
      match which with
      | `Dll -> Dslib.Port_alloc.dll ~base:(base + 0x10_0000) ~port_lo ~port_hi
      | `Array ->
          Dslib.Port_alloc.array ~base:(base + 0x10_0000) ~port_lo ~port_hi
    in
    let nat =
      Dslib.Nat_table.create ~base ~capacity ~buckets ~timeout ~granularity
        ~alloc ~port_lo ~port_hi ()
    in
    let fake =
      ref (Fake.Nat.create ~capacity ~timeout ~granularity ~lo:port_lo ~hi:port_hi)
    in
    drive ~ds_kind:"nat_table"
      ~contracts:(Dslib.Nat_table.Recipe.contract ~alloc_name)
      ~hooks cmds
      ~exec:(fun meter cmd ->
        match cmd with
        | N_add (key, now) ->
            let pre = !fake in
            (* the allocator runs first, so its exhaustion decides the
               branch even when the table is also full; a live key is
               remapped *)
            let no_port = Fake.Nat.ports_full pre in
            let live = Fake.Nat.mem pre key in
            let p = Dslib.Nat_table.add_int nat meter key ~now in
            let tag =
              if p >= 0 then if live then "remap" else "ok"
              else if no_port then "no_port"
              else "full"
            in
            Step
              {
                raw_obs = [ p ];
                finish =
                  (fun obs ->
                    match obs with
                    | [ p ] -> (
                        match Fake.Nat.add pre key ~now ~returned:p with
                        | Ok fake' ->
                            fake := fake';
                            None
                        | Error e -> Some e)
                    | other ->
                        Some
                          (Format.asprintf "malformed add reply %a" pp_ints
                             other));
                bounds = Some ("add_int", tag, []);
              }
        | N_lookup_int (key, now) ->
            let p = Dslib.Nat_table.lookup_int nat meter key ~now in
            let fake', e = Fake.Nat.lookup_int !fake key ~now in
            Step
              {
                raw_obs = [ p ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [ e ] obs);
                bounds =
                  Some ("lookup_int", (if p >= 0 then "hit" else "miss"), []);
              }
        | N_lookup_ext (port, now) ->
            let h = Dslib.Nat_table.lookup_ext nat meter ~port ~now in
            let obs =
              if h < 0 then [ 0 ]
              else 1 :: Array.to_list (Dslib.Nat_table.flow_key_quiet nat h)
            in
            let fake', e = Fake.Nat.lookup_ext !fake ~port ~now in
            let expected =
              match e with
              | Some key -> 1 :: Array.to_list key
              | None -> [ 0 ]
            in
            Step
              {
                raw_obs = obs;
                finish =
                  (fun obs ->
                    fake := fake';
                    expect expected obs);
                bounds =
                  Some ("lookup_ext", (if h >= 0 then "hit" else "miss"), []);
              }
        | N_expire now ->
            let n = Dslib.Nat_table.expire nat meter ~now in
            let fake', en = Fake.Nat.expire !fake ~now in
            Step
              {
                raw_obs = [ n ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [ en ] obs);
                bounds = Some ("expire", "expire", []);
              }
        | _ -> Skip)
  in
  { name; gen; run }

(* ---- Case: token bucket ----------------------------------------------- *)

let token_case =
  let rate = 3 and burst = 400 in
  let base = 0x5500_0000 in
  let gen rng =
    let now = ref 0 in
    List.init (gen_length rng) (fun _ ->
        (if P.bool rng 0.05 then now := !now + (1 lsl 45)
         else if P.bool rng 0.2 then () (* zero-elapsed re-poll *)
         else now := !now + P.below rng 40);
        let bytes = if P.below rng 10 = 0 then 0 else P.below rng 500 in
        T_conform { bytes; now = !now })
  in
  let run hooks cmds =
    let tb = Dslib.Token_bucket.create ~base ~rate ~burst () in
    let fake = ref (Fake.Bucket.create ~rate ~burst ~now:0) in
    drive ~ds_kind:"token_bucket" ~contracts:Dslib.Token_bucket.Recipe.contract
      ~hooks cmds
      ~exec:(fun meter cmd ->
        match cmd with
        | T_conform { bytes; now } ->
            let r = Dslib.Token_bucket.conform tb meter ~bytes ~now in
            let fake', e = Fake.Bucket.conform !fake ~bytes ~now in
            Step
              {
                raw_obs = [ r ];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [ e ] obs);
                bounds =
                  Some ("conform", (if r = 1 then "conform" else "exceed"), []);
              }
        | _ -> Skip)
  in
  { name = "token_bucket"; gen; run }

(* ---- Case: port allocator (both backends) ----------------------------- *)

let port_contract alloc =
  let open Perf.Ds_contract in
  [
    make ~ds_kind:"port_alloc" ~meth:"alloc"
      [
        branch ~tag:"ok" ~note:"free port handed out, or -1 on exhaustion"
          (Dslib.Port_alloc.Recipe.alloc_cost alloc);
      ];
    make ~ds_kind:"port_alloc" ~meth:"free"
      [
        branch ~tag:"ok" ~note:"allocated port returned"
          (Dslib.Port_alloc.Recipe.free_cost alloc);
      ];
  ]

let port_case which =
  let port_lo = 100 and port_hi = 115 in
  let base = 0x5600_0000 in
  let name = match which with `Dll -> "port_dll" | `Array -> "port_array" in
  let gen rng =
    List.init (gen_length rng) (fun _ ->
        if P.below rng 10 < 6 then P_alloc
        else P_free (port_lo - 2 + P.below rng (port_hi - port_lo + 5)))
  in
  let run hooks cmds =
    let alloc =
      match which with
      | `Dll -> Dslib.Port_alloc.dll ~base ~port_lo ~port_hi
      | `Array -> Dslib.Port_alloc.array ~base ~port_lo ~port_hi
    in
    let fake = ref (Fake.Ports.create ~lo:port_lo ~hi:port_hi) in
    drive ~ds_kind:"port_alloc" ~contracts:(port_contract alloc) ~hooks cmds
      ~exec:(fun meter cmd ->
        match cmd with
        | P_alloc ->
            let p = Dslib.Port_alloc.alloc alloc meter in
            Step
              {
                raw_obs = [ p ];
                finish =
                  (fun obs ->
                    match obs with
                    | [ p ] -> (
                        match Fake.Ports.alloc !fake ~returned:p with
                        | Ok fake' ->
                            fake := fake';
                            None
                        | Error e -> Some e)
                    | other ->
                        Some
                          (Format.asprintf "malformed alloc reply %a" pp_ints
                             other));
                bounds = Some ("alloc", "ok", []);
              }
        | P_free p ->
            let obs =
              match Dslib.Port_alloc.free alloc meter p with
              | () -> [ 1 ]
              | exception Invalid_argument _ -> [ -2 ]
            in
            let expected, fake' =
              match Fake.Ports.free !fake p with
              | `Freed f -> ([ 1 ], f)
              | `Rejects -> ([ -2 ], !fake)
            in
            Step
              {
                raw_obs = obs;
                finish =
                  (fun obs ->
                    fake := fake';
                    expect expected obs);
                bounds = Some ("free", "ok", []);
              }
        | _ -> Skip)
  in
  { name; gen; run }

(* ---- Case: LPM (both backends) ---------------------------------------- *)

(* lsl/lsr are right-associative: the inner shift needs its own parens *)
let mask_prefix p len =
  if len = 0 then 0 else (p lsr (32 - len)) lsl (32 - len)

let lpm_case which =
  let name, ds_kind, min_len =
    match which with
    | `Trie -> ("lpm_trie", "lpm_trie", 0)
    | `Dir -> ("lpm_dir24_8", "lpm", 10)
  in
  let base = 0x5700_0000 in
  let gen rng =
    let addr () = P.below rng 0x1_0000_0000 in
    let routes =
      List.init
        (1 + P.below rng 6)
        (fun _ ->
          let len = min_len + P.below rng (33 - min_len) in
          let prefix = mask_prefix (addr ()) len in
          (prefix, len, 1 + P.below rng 15))
    in
    (* dir-24-8 resolves overlaps positionally, not by depth, so routes
       are installed shortest-prefix first — the order a control plane
       loading a RIB would use; subsequences of a sorted list stay
       sorted, so shrinking preserves the discipline *)
    let routes =
      List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b) routes
    in
    let near (prefix, len, _) =
      if len >= 32 then prefix
      else prefix lor P.below rng (1 lsl (32 - len))
    in
    let arr = Array.of_list routes in
    List.concat_map
      (fun (prefix, len, port) ->
        L_route { prefix; len; port }
        :: List.init (P.below rng 4) (fun _ ->
               if P.bool rng 0.5 then
                 L_lookup (near arr.(P.below rng (Array.length arr)))
               else L_lookup (addr ())))
      routes
  in
  let run hooks cmds =
    let contracts =
      match which with
      | `Trie -> Dslib.Lpm_trie.Recipe.contract
      | `Dir -> Dslib.Lpm_dir24_8.Recipe.contract
    in
    let trie, dir =
      match which with
      | `Trie -> (Some (Dslib.Lpm_trie.create ~base ~default_port:0), None)
      | `Dir -> (None, Some (Dslib.Lpm_dir24_8.create ~base ~default_port:0))
    in
    let fake = ref (Fake.Lpm.create ~default_port:0) in
    drive ~ds_kind ~contracts ~hooks cmds
      ~exec:(fun meter cmd ->
        match cmd with
        | L_route { prefix; len; port } ->
            (match (trie, dir) with
            | Some t, _ -> Dslib.Lpm_trie.add_route t ~prefix ~len ~port
            | _, Some d -> Dslib.Lpm_dir24_8.add_route d ~prefix ~len ~port
            | None, None -> assert false);
            let fake' = Fake.Lpm.add !fake ~prefix ~len ~port in
            Step
              {
                raw_obs = [];
                finish =
                  (fun obs ->
                    fake := fake';
                    expect [] obs);
                bounds = None (* config-time, uncharged *);
              }
        | L_lookup addr ->
            let p, tag =
              match (trie, dir) with
              | Some t, _ -> (Dslib.Lpm_trie.lookup t meter addr, "ok")
              | _, Some d ->
                  ( Dslib.Lpm_dir24_8.lookup d meter addr,
                    if Dslib.Lpm_dir24_8.uses_tbl8 d addr then "long"
                    else "short" )
              | None, None -> assert false
            in
            Step
              {
                raw_obs = [ p ];
                finish = expect [ Fake.Lpm.lookup !fake addr ];
                bounds = Some ("lookup", tag, []);
              }
        | _ -> Skip)
  in
  { name; gen; run }

(* ---- Registry --------------------------------------------------------- *)

let all () =
  [
    hash_case;
    flow_case;
    mac_case;
    nat_case `Dll;
    nat_case `Array;
    token_case;
    port_case `Dll;
    port_case `Array;
    lpm_case `Trie;
    lpm_case `Dir;
  ]

let find name = List.find_opt (fun c -> c.name = name) (all ())
