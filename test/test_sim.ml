(* Discrete-event simulator tests: engine, arrivals, balancer policies,
   warmup curves and the rolling-push model. *)

module Engine = Js_sim.Engine
module Arrival = Js_sim.Arrival
module Balancer = Js_sim.Balancer
module Warmup_curve = Js_sim.Warmup_curve
module Push = Js_sim.Push
module S = Cluster.Server
module MA = Workload.Macro_app

let small_app =
  lazy
    (MA.generate
       { MA.default_params with
         MA.n_funcs = 4_000;
         core_funcs = 400;
         tail_p_max = 5e-3;
         instrs_per_request = 20.0e6
       })

let small_cfg =
  lazy
    { S.default_config with
      S.profile_request_target = 400;
      init_seconds_sequential = 20.;
      init_seconds_parallel = 8.;
      seeder_collect_seconds = 60.;
      traffic_ramp_seconds = 60.;
      cold_decay_seconds = 30.
    }

(* --- engine (closure baseline) --- *)

let test_engine_order () =
  let eng = Engine.Closure.create () in
  let fired = ref [] in
  let mark tag () = fired := (tag, Engine.Closure.now eng) :: !fired in
  Engine.Closure.schedule eng ~at:5. (mark "c");
  Engine.Closure.schedule eng ~at:1. (mark "a");
  Engine.Closure.schedule eng ~at:3. (mark "b");
  (* same-time events fire in insertion order *)
  Engine.Closure.schedule eng ~at:3. (mark "b2");
  Engine.Closure.run eng ~until:10.;
  Alcotest.(check (list (pair string (float 1e-9))))
    "time order with fifo ties"
    [ ("a", 1.); ("b", 3.); ("b2", 3.); ("c", 5.) ]
    (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at horizon" 10. (Engine.Closure.now eng)

let test_engine_cascade_and_clamp () =
  let eng = Engine.Closure.create () in
  let fired = ref [] in
  Engine.Closure.schedule eng ~at:2. (fun () ->
      (* events scheduled in the past fire at the current time, not before *)
      Engine.Closure.schedule eng ~at:1. (fun () ->
          fired := ("late", Engine.Closure.now eng) :: !fired);
      Engine.Closure.after eng ~delay:1. (fun () ->
          fired := ("next", Engine.Closure.now eng) :: !fired));
  Engine.Closure.run eng ~until:10.;
  Alcotest.(check (list (pair string (float 1e-9))))
    "clamped then cascaded"
    [ ("late", 2.); ("next", 3.) ]
    (List.rev !fired);
  Alcotest.(check int) "all dispatched" 3 (Engine.Closure.dispatched eng);
  Alcotest.(check int) "queue drained" 0 (Engine.Closure.pending eng)

let test_engine_run_stops_at_until () =
  let eng = Engine.Closure.create () in
  let fired = ref 0 in
  Engine.Closure.schedule eng ~at:5. (fun () -> incr fired);
  Engine.Closure.run eng ~until:4.;
  Alcotest.(check int) "not yet" 0 !fired;
  Engine.Closure.run eng ~until:6.;
  Alcotest.(check int) "fired on resume" 1 !fired

(* --- engine (flat event representation) --- *)

type flat_ev = Fnone | Mark of string | Cascade

let test_flat_engine_order () =
  let eng = Engine.create ~dummy:Fnone () in
  let fired = ref [] in
  let dispatch eng ev =
    match ev with
    | Mark tag -> fired := (tag, Engine.now eng) :: !fired
    | Fnone | Cascade -> Alcotest.fail "unexpected event"
  in
  Engine.schedule eng ~at:5. (Mark "c");
  Engine.schedule eng ~at:1. (Mark "a");
  Engine.schedule eng ~at:3. (Mark "b");
  Engine.schedule eng ~at:3. (Mark "b2");
  Engine.run eng ~until:10. ~dispatch;
  Alcotest.(check (list (pair string (float 1e-9))))
    "time order with fifo ties"
    [ ("a", 1.); ("b", 3.); ("b2", 3.); ("c", 5.) ]
    (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at horizon" 10. (Engine.now eng);
  Alcotest.(check int) "dispatched" 4 (Engine.dispatched eng);
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

let test_flat_engine_cascade_clamp_resume () =
  let eng = Engine.create ~dummy:Fnone () in
  let fired = ref [] in
  let dispatch eng ev =
    match ev with
    | Cascade ->
      (* events scheduled in the past fire at the current time, not before *)
      Engine.schedule eng ~at:1. (Mark "late");
      Engine.after eng ~delay:1. (Mark "next")
    | Mark tag -> fired := (tag, Engine.now eng) :: !fired
    | Fnone -> Alcotest.fail "dummy dispatched"
  in
  Engine.schedule eng ~at:2. Cascade;
  Engine.schedule eng ~at:8. (Mark "tail");
  Engine.run eng ~until:4. ~dispatch;
  Alcotest.(check (list (pair string (float 1e-9))))
    "clamped then cascaded, stops at until"
    [ ("late", 2.); ("next", 3.) ]
    (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at barrier" 4. (Engine.now eng);
  Engine.run eng ~until:10. ~dispatch;
  Alcotest.(check (list (pair string (float 1e-9))))
    "resumed past barrier"
    [ ("late", 2.); ("next", 3.); ("tail", 8.) ]
    (List.rev !fired);
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Engine.schedule: NaN time")
    (fun () -> Engine.schedule eng ~at:Float.nan Fnone)

let test_flat_engine_churn () =
  (* self-rescheduling sources: the queue stays small while dispatching many
     events, exercising the slot-pool reuse path *)
  let eng = Engine.create ~dummy:Fnone () in
  let count = ref 0 in
  let dispatch eng ev =
    match ev with
    | Mark _ ->
      incr count;
      if Engine.now eng < 999. then Engine.after eng ~delay:1. ev
    | Fnone | Cascade -> Alcotest.fail "unexpected event"
  in
  for i = 0 to 9 do
    Engine.schedule eng ~at:(float_of_int i /. 10.) (Mark (string_of_int i))
  done;
  Engine.run eng ~until:2000. ~dispatch;
  Alcotest.(check int) "all dispatched" 10_000 !count;
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

let test_flat_engine_step_to () =
  (* the arrival-batching hooks: [horizon] exposes the active run's [until],
     [next_event_at] the queue head (infinity when empty), and [step_to]
     performs the clock/dispatch bookkeeping of an inline-consumed event *)
  let eng = Engine.create ~dummy:Fnone () in
  Alcotest.(check (float 1e-9)) "horizon before any run" 0. (Engine.horizon eng);
  Alcotest.(check bool) "empty queue head is infinity" true
    (Engine.next_event_at eng = infinity);
  let dispatch eng ev =
    match ev with
    | Mark "probe" ->
      Alcotest.(check (float 1e-9)) "horizon inside run" 10. (Engine.horizon eng);
      Alcotest.(check (float 1e-9)) "queue head visible" 7. (Engine.next_event_at eng);
      (* consume a synthetic event strictly before the queue head *)
      Engine.step_to eng ~at:5.;
      Alcotest.(check (float 1e-9)) "clock moved to the inline event" 5. (Engine.now eng)
    | Mark _ -> ()
    | Fnone | Cascade -> Alcotest.fail "unexpected event"
  in
  Engine.schedule eng ~at:2. (Mark "probe");
  Engine.schedule eng ~at:7. (Mark "tail");
  Engine.run eng ~until:10. ~dispatch;
  Alcotest.(check int) "inline step counted as dispatched" 3 (Engine.dispatched eng);
  (* step_to is monotone: stepping into the past leaves the clock alone *)
  Engine.step_to eng ~at:1.;
  Alcotest.(check (float 1e-9)) "no clock rewind" 10. (Engine.now eng);
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Engine.step_to: NaN time")
    (fun () -> Engine.step_to eng ~at:Float.nan)

(* --- arrivals --- *)

let test_arrival_monotone_and_rate () =
  let cfg = { Arrival.base_rps = 50.; diurnal_amplitude = 0.; diurnal_period = 3600.; phase = 0. } in
  let a = Arrival.create cfg (Js_util.Rng.create 11) in
  let t = ref 0. and count = ref 0 in
  while !t < 200. do
    let next = Arrival.next a ~after:!t in
    Alcotest.(check bool) "strictly increasing" true (next > !t);
    t := next;
    incr count
  done;
  (* 50 rps over 200 s = 10_000 expected; Poisson sd ~ 100 *)
  Alcotest.(check bool)
    (Printf.sprintf "rate about 50 rps (got %d/200s)" !count)
    true
    (!count > 9_000 && !count < 11_000)

let test_arrival_diurnal_peak_rate () =
  let cfg = { Arrival.base_rps = 100.; diurnal_amplitude = 0.5; diurnal_period = 1000.; phase = 0. } in
  Alcotest.(check (float 1e-9)) "peak" 150. (Arrival.peak_rate cfg);
  Alcotest.(check (float 1e-6)) "crest" 150. (Arrival.rate_at cfg 250.);
  Alcotest.(check (float 1e-6)) "trough" 50. (Arrival.rate_at cfg 750.);
  (* a phase offset slides the whole curve: region at phase p sees at t what
     the base region sees at t + p *)
  let shifted = { cfg with Arrival.phase = 250. } in
  Alcotest.(check (float 1e-6)) "phase shifts crest" 150. (Arrival.rate_at shifted 0.);
  Alcotest.(check (float 1e-6)) "phase shifts trough" 50. (Arrival.rate_at shifted 500.);
  (* thinning must still produce roughly base_rps on average over a cycle *)
  let a = Arrival.create cfg (Js_util.Rng.create 3) in
  let t = ref 0. and count = ref 0 in
  while !t < 1000. do
    t := Arrival.next a ~after:!t;
    incr count
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mean rate about 100 rps (got %d/1000s)" !count)
    true
    (!count > 90_000 && !count < 110_000)

let test_arrival_validates () =
  Alcotest.check_raises "negative rate" (Invalid_argument "Arrival: base_rps must be positive")
    (fun () ->
      ignore
        (Arrival.create
           { Arrival.base_rps = -1.; diurnal_amplitude = 0.; diurnal_period = 1.; phase = 0. }
           (Js_util.Rng.create 1)))

(* --- balancer --- *)

let outstanding_of arr ix = arr.(ix)

let test_balancer_least_outstanding () =
  let b = Balancer.create Balancer.Least_outstanding in
  let rng = Js_util.Rng.create 1 in
  let picked =
    Balancer.pick b rng ~candidates:[| 3; 1; 7 |]
      ~outstanding:(outstanding_of [| 9; 5; 9; 2; 9; 9; 9; 1 |])
      ~weights:[||] ()
  in
  Alcotest.(check (option int)) "argmin outstanding" (Some 7) picked;
  (* the ?n prefix restricts the candidate set without rebuilding the array:
     server 7 (outstanding 1) is beyond the prefix, so server 3 (2) wins *)
  let picked2 =
    Balancer.pick b rng ~n:2 ~candidates:[| 3; 1; 7 |]
      ~outstanding:(outstanding_of [| 9; 5; 9; 2; 9; 9; 9; 1 |])
      ~weights:[||] ()
  in
  Alcotest.(check (option int)) "argmin over prefix" (Some 3) picked2

let test_balancer_round_robin_cycles () =
  let b = Balancer.create Balancer.Round_robin in
  let rng = Js_util.Rng.create 1 in
  let picks =
    List.init 6 (fun _ ->
        match
          Balancer.pick b rng ~candidates:[| 4; 5; 6 |]
            ~outstanding:(fun _ -> 0)
            ~weights:[||] ()
        with
        | Some ix -> ix
        | None -> -1)
  in
  Alcotest.(check (list int)) "cycles candidates" [ 4; 5; 6; 4; 5; 6 ] picks

let test_balancer_weighted_prefers_capacity () =
  let b = Balancer.create Balancer.Warmup_weighted in
  let rng = Js_util.Rng.create 5 in
  let hits = Array.make 2 0 in
  for _ = 1 to 500 do
    match
      Balancer.pick b rng ~candidates:[| 0; 1 |] ~outstanding:(fun _ -> 0)
        ~weights:[| 99.; 1. |] ()
    with
    | Some ix -> hits.(ix) <- hits.(ix) + 1
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hot server gets most traffic (%d/500)" hits.(0))
    true
    (hits.(0) > 450);
  (* only the first [n] weights are read: candidate 7 is beyond the prefix *)
  for _ = 1 to 20 do
    Alcotest.(check (option int)) "weighted over prefix" (Some 1)
      (Balancer.pick b rng ~n:2 ~candidates:[| 3; 1; 7 |] ~outstanding:(fun _ -> 0)
         ~weights:[| 0.; 1.; 1e9 |] ())
  done

let test_balancer_empty () =
  let rng = Js_util.Rng.create 1 in
  List.iter
    (fun p ->
      let b = Balancer.create p in
      Alcotest.(check (option int))
        (Balancer.policy_to_string p ^ " empty")
        None
        (Balancer.pick b rng ~candidates:[||] ~outstanding:(fun _ -> 0)
           ~weights:[||] ()))
    Balancer.all_policies

let test_balancer_pick_region () =
  (* scans round-robin from the cursor, skipping home and down regions *)
  let up r = r <> 2 in
  (match Balancer.pick_region ~home:0 ~n_regions:4 ~cursor:0 ~up with
  | Some (r, cur) ->
    Alcotest.(check int) "first up foreign region" 1 r;
    Alcotest.(check int) "cursor advanced" 2 cur
  | None -> Alcotest.fail "expected a target");
  (match Balancer.pick_region ~home:0 ~n_regions:4 ~cursor:2 ~up with
  | Some (r, _) -> Alcotest.(check int) "skips down region" 3 r
  | None -> Alcotest.fail "expected a target");
  Alcotest.(check bool) "no target when all else down" true
    (Balancer.pick_region ~home:0 ~n_regions:4 ~cursor:0 ~up:(fun r -> r = 0) = None);
  Alcotest.(check bool) "single region has no foreign target" true
    (Balancer.pick_region ~home:0 ~n_regions:1 ~cursor:0 ~up:(fun _ -> true) = None)

let test_balancer_policy_names_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Balancer.policy_to_string p)
        true
        (Balancer.policy_of_string (Balancer.policy_to_string p) = Some p))
    Balancer.all_policies

(* --- warmup curves --- *)

let test_warmup_curve_shapes () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let nojs = Warmup_curve.build ~horizon:1200. cfg app S.No_jumpstart in
  let pkg = S.make_package cfg app ~coverage_target:cfg.S.profile_request_target () in
  let consumer = Warmup_curve.build ~horizon:1200. cfg app (S.Consumer pkg) in
  (* cold servers are slower than warm ones, and the curve decays *)
  let cold = Warmup_curve.multiplier nojs ~served:0. in
  let warm = Warmup_curve.multiplier nojs ~served:(Warmup_curve.warm_served nojs) in
  Alcotest.(check bool)
    (Printf.sprintf "cold multiplier > warm (%.2f > %.2f)" cold warm)
    true (cold > warm);
  Alcotest.(check bool) "warm multiplier about 1" true (warm < 1.1);
  Alcotest.(check bool) "multiplier never below 1" true (warm >= 1.);
  (* Jump-Start consumers boot faster (parallel warmup, no seq requests) *)
  Alcotest.(check bool)
    (Printf.sprintf "consumer boots faster (%.0fs < %.0fs)"
       (Warmup_curve.boot_seconds consumer) (Warmup_curve.boot_seconds nojs))
    true
    (Warmup_curve.boot_seconds consumer < Warmup_curve.boot_seconds nojs);
  (* and their early-life multiplier is lower: optimized code from request 1 *)
  let cold_consumer = Warmup_curve.multiplier consumer ~served:0. in
  Alcotest.(check bool)
    (Printf.sprintf "consumer starts warmer (%.2f < %.2f)" cold_consumer cold)
    true (cold_consumer < cold)

let test_warmup_curve_cache_reuses () =
  let app = Lazy.force small_app and cfg = Lazy.force small_cfg in
  let cache = Warmup_curve.create_cache ~horizon:400. cfg app in
  let a = Warmup_curve.get cache S.No_jumpstart in
  let b = Warmup_curve.get cache S.No_jumpstart in
  Alcotest.(check bool) "no-js slot memoized" true (a == b);
  let pkg = S.make_package cfg app ~coverage_target:cfg.S.profile_request_target () in
  let c1 = Warmup_curve.get cache (S.Consumer pkg) in
  let c2 = Warmup_curve.get cache (S.Consumer pkg) in
  Alcotest.(check bool) "per-package slot memoized" true (c1 == c2);
  Alcotest.(check bool) "distinct from no-js" true (c1 != a)

(* --- push --- *)

let push_cfg =
  lazy
    (let fleet =
       { Cluster.Fleet.default_config with
         Cluster.Fleet.n_servers = 8;
         n_buckets = 2;
         seeders_per_bucket = 2;
         server = Lazy.force small_cfg
       }
     in
     { Push.default_config with
       Push.fleet;
       warm_rps = 30.;
       arrival =
         { Arrival.default_config with Arrival.base_rps = 8. *. 30. *. 0.7 };
       push_at = 40.;
       drain_cap = 2;
       duration = 240.;
       curve_horizon = 900.
     })

let test_push_conservation () =
  let stats = Push.run (Lazy.force push_cfg) (Lazy.force small_app) ~seed:1 in
  let shed =
    stats.Push.shed_queue_full + stats.Push.shed_timeout + stats.Push.shed_no_server
    + stats.Push.shed_drain
  in
  (* every arrival either completed, was shed, or is still in the system *)
  let in_system = stats.Push.arrived - stats.Push.completed - shed in
  Alcotest.(check bool)
    (Printf.sprintf "in-system requests bounded (%d)" in_system)
    true
    (in_system >= 0 && in_system <= 8 * (8 + 64));
  Alcotest.(check int) "everyone restarted jump-started" 8 stats.Push.jump_started;
  Alcotest.(check int) "no fallbacks" 0 stats.Push.fallbacks;
  Alcotest.(check int) "no crashes" 0 stats.Push.crashes;
  Alcotest.(check int) "bucket jump-start sum" stats.Push.jump_started
    (Array.fold_left ( + ) 0 stats.Push.bucket_jump_started);
  Alcotest.(check bool) "push completed" true (stats.Push.push_done >= 0.);
  Alcotest.(check bool) "capacity recovered" true (stats.Push.time_to_full_capacity >= 0.);
  Alcotest.(check bool) "latency recorded" true
    (Js_util.Stats.Quantile.count stats.Push.latency > 0);
  Alcotest.(check bool) "push-window latency recorded" true
    (Js_util.Stats.Quantile.count stats.Push.latency_push > 0)

let test_push_jumpstart_beats_baseline () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let js = Push.run cfg app ~seed:7 in
  let nojs = Push.run { cfg with Push.jumpstart = false } app ~seed:7 in
  Alcotest.(check bool)
    (Printf.sprintf "smaller capacity loss (%.0f < %.0f)" js.Push.capacity_loss_integral
       nojs.Push.capacity_loss_integral)
    true
    (js.Push.capacity_loss_integral < nojs.Push.capacity_loss_integral);
  let ttfc s = if s.Push.time_to_full_capacity >= 0. then s.Push.time_to_full_capacity else infinity in
  Alcotest.(check bool) "faster back to full capacity" true (ttfc js < ttfc nojs);
  Alcotest.(check int) "baseline never jump-starts" 0 nojs.Push.jump_started

let test_push_deterministic () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let a = Push.run cfg app ~seed:3 and b = Push.run cfg app ~seed:3 in
  Alcotest.(check string) "same digest" (Push.digest a) (Push.digest b);
  let c = Push.run cfg app ~seed:4 in
  Alcotest.(check bool) "different seed differs" true (Push.digest a <> Push.digest c)

(* Routing picks pinned per policy.  The md5s were recorded on the code
   before the balancer cached its per-server weights; any change to a pick,
   a draw or the order weights are summed in moves them. *)
let test_push_pinned_policy_digests () =
  let cfg = Lazy.force push_cfg in
  let fleet = { cfg.Push.fleet with Cluster.Fleet.n_servers = 16 } in
  let cfg =
    { cfg with
      Push.fleet;
      arrival = { cfg.Push.arrival with Arrival.base_rps = 16. *. 30. *. 0.7 };
      push_at = 60.;
      duration = 300.
    }
  in
  let app = Lazy.force small_app in
  List.iter
    (fun (policy, want) ->
      let s = Push.run { cfg with Push.policy } app ~seed:11 in
      Alcotest.(check string) (Balancer.policy_to_string policy) want
        (Digest.to_hex (Digest.string (Push.digest s))))
    [ (Balancer.Random, "3f2e6bbaa7150f8c83a0d700eafe61be");
      (Balancer.Round_robin, "fe1d759e6b80cdba56a21b55b335c9f4");
      (Balancer.Least_outstanding, "0cdfd717960f60d691df91f1a500829f");
      (Balancer.Warmup_weighted, "9bf0a7ea4d2e0216a2e22b891cd9851b")
    ]

let test_push_record_latency_digest_neutral () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let off = Push.run cfg app ~seed:3 in
  let on_ = Push.run { cfg with Push.record_latency = true } app ~seed:3 in
  (* recording draws no randomness and is excluded from the digest: the
     simulation must be bit-for-bit unchanged *)
  Alcotest.(check string) "same digest with recording on" (Push.digest off) (Push.digest on_);
  Alcotest.(check int) "off: no per-server series" 0 (Array.length off.Push.server_latency);
  Alcotest.(check int) "on: one series per server" 8 (Array.length on_.Push.server_latency);
  let total =
    Array.fold_left
      (fun acc s -> acc + Js_util.Stats.Series.length s)
      0 on_.Push.server_latency
  in
  Alcotest.(check int) "per-server samples cover every completion" on_.Push.completed total;
  Array.iter
    (fun s ->
      let a = Js_util.Stats.Series.to_array s in
      Array.iter
        (fun (t, l) ->
          if t < 0. || t > 240. || l <= 0. then
            Alcotest.failf "sample out of range: t=%g latency=%g" t l)
        a)
    on_.Push.server_latency

let test_push_bad_packages_crash_and_guardrail () =
  let cfg = Lazy.force push_cfg in
  let app = Lazy.force small_app in
  let server =
    (* crash fast enough that the spike lands while restarts are pending *)
    { (Lazy.force small_cfg) with S.crash_delay_seconds = 5. }
  in
  let cfg =
    { cfg with
      Push.fleet =
        { cfg.Push.fleet with Cluster.Fleet.validation_catch_rate = 0.; server };
      bad_package_rate = 1.0;
      abort_window = 120.;
      abort_threshold = 2
    }
  in
  let stats = Push.run cfg app ~seed:2 in
  Alcotest.(check bool) "consumers crashed" true (stats.Push.crashes > 0);
  Alcotest.(check bool) "guardrail aborted the push" true stats.Push.aborted;
  Alcotest.(check int) "bucket fallback sum" stats.Push.fallbacks
    (Array.fold_left ( + ) 0 stats.Push.bucket_fallbacks)

let test_push_telemetry () =
  let tel = Js_telemetry.create () in
  let stats = Push.run ~telemetry:tel (Lazy.force push_cfg) (Lazy.force small_app) ~seed:1 in
  Alcotest.(check int) "sim.requests counter" stats.Push.arrived
    (Js_telemetry.counter tel "sim.requests");
  Alcotest.(check int) "sim.completed counter" stats.Push.completed
    (Js_telemetry.counter tel "sim.completed");
  Alcotest.(check int) "sim.jump_started counter" stats.Push.jump_started
    (Js_telemetry.counter tel "sim.jump_started");
  Alcotest.(check bool) "json exports" true
    (Js_telemetry.Json.parses (Js_telemetry.to_json tel))

(* --- multi-region --- *)

module Region = Js_sim.Region

let global_cfg =
  lazy
    { Region.default_global_config with
      Region.base = Lazy.force push_cfg;
      n_regions = 3;
      region_phase = 300.;
      push_stagger = 30.;
      spillover = true;
      spill_latency = 20.;
      epoch = 20.
    }

let test_multiregion_region_loss () =
  let gcfg =
    { (Lazy.force global_cfg) with
      Region.disasters = [ Region.Region_loss { region = 1; at = 100. } ]
    }
  in
  let gs = Region.run_global gcfg (Lazy.force small_app) ~seed:5 in
  let r = gs.Region.g_regions in
  Alcotest.(check int) "three regions" 3 (Array.length r);
  Alcotest.(check bool) "region 1 lost" true r.(1).Region.lost;
  Alcotest.(check bool) "others not lost" true
    ((not r.(0).Region.lost) && not r.(2).Region.lost);
  (* a region loss drains servers via generation bumps — never crashes *)
  Array.iter (fun s -> Alcotest.(check int) "zero crashes" 0 s.Region.crashes) r;
  Alcotest.(check bool)
    (Printf.sprintf "lost region spills its load out (%d)" r.(1).Region.spilled_out)
    true
    (r.(1).Region.spilled_out > 0);
  let spilled_in = Array.fold_left (fun a s -> a + s.Region.spilled_in) 0 r in
  Alcotest.(check bool)
    (Printf.sprintf "surviving regions absorb spills (%d)" spilled_in)
    true (spilled_in > 0);
  Alcotest.(check bool) "global spill total" true (gs.Region.g_spilled > 0);
  (* seeding runs in region 0 only *)
  Alcotest.(check bool) "seeder region published" true (r.(0).Region.packages_published > 0);
  Alcotest.(check int) "non-seeder regions do not publish" 0 r.(2).Region.packages_published

let test_multiregion_epoch_equals_merged () =
  let gcfg = Lazy.force global_cfg in
  let app = Lazy.force small_app in
  let epoch = Region.run_global ~mode:`Epoch gcfg app ~seed:11 in
  let merged = Region.run_global ~mode:`Merged gcfg app ~seed:11 in
  Alcotest.(check string) "epoch-barrier run == merged run"
    (Region.global_digest merged) (Region.global_digest epoch);
  let epoch2 = Region.run_global ~mode:`Epoch gcfg app ~seed:11 in
  Alcotest.(check string) "same seed reproduces" (Region.global_digest epoch)
    (Region.global_digest epoch2);
  let other = Region.run_global ~mode:`Epoch gcfg app ~seed:12 in
  Alcotest.(check bool) "different seed differs" true
    (Region.global_digest epoch <> Region.global_digest other)

let test_multiregion_parallel_equals_epoch () =
  (* the parallel tentpole under fire: a region loss mid-push on concurrent
     domains must reproduce the sequential epoch-barrier digest exactly, for
     any domain count (1 = sequential replay; 4 clamps to n_regions = 3) *)
  let gcfg =
    { (Lazy.force global_cfg) with
      Region.disasters = [ Region.Region_loss { region = 1; at = 100. } ]
    }
  in
  let app = Lazy.force small_app in
  let e = Region.global_digest (Region.run_global ~mode:`Epoch gcfg app ~seed:5) in
  List.iter
    (fun domains ->
      let p = Region.run_global ~mode:(`Parallel domains) gcfg app ~seed:5 in
      Alcotest.(check string)
        (Printf.sprintf "parallel(%d) digest == epoch" domains)
        e (Region.global_digest p);
      Array.iter
        (fun s -> Alcotest.(check int) "zero crashes" 0 s.Region.crashes)
        p.Region.g_regions)
    [ 1; 2; 4 ]

let test_multiregion_batching_digest_neutral () =
  (* arrival batching is a pure fast path: turning it off must not move a
     single byte of the digest, in either execution mode *)
  let gcfg = Lazy.force global_cfg in
  let app = Lazy.force small_app in
  let off = { gcfg with Region.batch = false } in
  Alcotest.(check string) "epoch: batch on == off"
    (Region.global_digest (Region.run_global ~mode:`Epoch off app ~seed:11))
    (Region.global_digest (Region.run_global ~mode:`Epoch gcfg app ~seed:11));
  Alcotest.(check string) "parallel: batch on == off"
    (Region.global_digest (Region.run_global ~mode:(`Parallel 2) off app ~seed:11))
    (Region.global_digest (Region.run_global ~mode:(`Parallel 2) gcfg app ~seed:11))

let test_multiregion_validates () =
  let gcfg = { (Lazy.force global_cfg) with Region.spill_latency = 5.; epoch = 20. } in
  Alcotest.check_raises "spill latency below epoch"
    (Invalid_argument "Region: spill_latency must be >= epoch") (fun () ->
      ignore (Region.run_global gcfg (Lazy.force small_app) ~seed:1))

let () =
  Alcotest.run "sim"
    [ ( "engine",
        [ Alcotest.test_case "event order + fifo ties" `Quick test_engine_order;
          Alcotest.test_case "cascade + past clamp" `Quick test_engine_cascade_and_clamp;
          Alcotest.test_case "run stops at until" `Quick test_engine_run_stops_at_until;
          Alcotest.test_case "flat: order + fifo ties" `Quick test_flat_engine_order;
          Alcotest.test_case "flat: cascade/clamp/resume" `Quick
            test_flat_engine_cascade_clamp_resume;
          Alcotest.test_case "flat: slot-pool churn" `Quick test_flat_engine_churn;
          Alcotest.test_case "flat: step_to/horizon/next_event_at" `Quick
            test_flat_engine_step_to
        ] );
      ( "arrival",
        [ Alcotest.test_case "monotone, correct rate" `Quick test_arrival_monotone_and_rate;
          Alcotest.test_case "diurnal curve" `Quick test_arrival_diurnal_peak_rate;
          Alcotest.test_case "validation" `Quick test_arrival_validates
        ] );
      ( "balancer",
        [ Alcotest.test_case "least outstanding" `Quick test_balancer_least_outstanding;
          Alcotest.test_case "round robin" `Quick test_balancer_round_robin_cycles;
          Alcotest.test_case "warmup weighted" `Quick test_balancer_weighted_prefers_capacity;
          Alcotest.test_case "empty candidates" `Quick test_balancer_empty;
          Alcotest.test_case "policy names" `Quick test_balancer_policy_names_roundtrip;
          Alcotest.test_case "pick_region round-robin" `Quick test_balancer_pick_region
        ] );
      ( "warmup curve",
        [ Alcotest.test_case "shapes" `Quick test_warmup_curve_shapes;
          Alcotest.test_case "cache" `Quick test_warmup_curve_cache_reuses
        ] );
      ( "push",
        [ Alcotest.test_case "conservation + smoke" `Quick test_push_conservation;
          Alcotest.test_case "jump-start beats baseline" `Quick
            test_push_jumpstart_beats_baseline;
          Alcotest.test_case "deterministic" `Quick test_push_deterministic;
          Alcotest.test_case "pinned per-policy digests" `Quick
            test_push_pinned_policy_digests;
          Alcotest.test_case "latency recording digest-neutral" `Quick
            test_push_record_latency_digest_neutral;
          Alcotest.test_case "bad packages + guardrail" `Quick
            test_push_bad_packages_crash_and_guardrail;
          Alcotest.test_case "telemetry" `Quick test_push_telemetry
        ] );
      ( "region",
        [ Alcotest.test_case "region loss spills, never crashes" `Quick
            test_multiregion_region_loss;
          Alcotest.test_case "epoch == merged digest" `Quick
            test_multiregion_epoch_equals_merged;
          Alcotest.test_case "parallel == epoch digest under region loss" `Quick
            test_multiregion_parallel_equals_epoch;
          Alcotest.test_case "arrival batching digest-neutral" `Quick
            test_multiregion_batching_digest_neutral;
          Alcotest.test_case "validation" `Quick test_multiregion_validates
        ] )
    ]
