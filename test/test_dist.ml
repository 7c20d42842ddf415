(* The distribution layer: the Js_util.Backoff-driven fetch ladder at micro
   level (Jumpstart.Dist_store wrapping a Store) and macro level
   (Cluster.Dist_net carrying Server.packages for the fleet). *)

module JS = Jumpstart
module DS = JS.Dist_store
module DN = Cluster.Dist_net
module R = Js_util.Rng
module Req = Workload.Request

let app = lazy (Workload.Codegen.generate Workload.App_spec.tiny)

let traffic ?(seed = 1) ?(n = 200) () =
  let a = Lazy.force app in
  let mix = Req.mix a ~region:0 ~bucket:0 in
  fun engine ->
    let rng = R.create seed in
    for _ = 1 to n do
      ignore (Req.invoke engine a (Req.sample rng mix))
    done

let make_package () =
  let a = Lazy.force app in
  let options = { JS.Options.default with JS.Options.validate_packages = false } in
  match
    JS.Seeder.run a.Workload.Codegen.repo options ~profile_traffic:(traffic ~seed:1 ())
      ~optimized_traffic:(traffic ~seed:2 ()) ~region:0 ~bucket:3 ~seeder_id:7 ()
  with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "seeder failed: %s" msg

let seeded_store () =
  let outcome = make_package () in
  let store = JS.Store.create () in
  JS.Store.publish store ~region:0 ~bucket:3 outcome.JS.Seeder.bytes
    outcome.JS.Seeder.package.JS.Package.meta;
  store

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- micro: Dist_store --- *)

let test_neutral_passthrough () =
  (* an all-zero network must consume exactly the one selection draw Store
     itself performs, and deliver with zero delay *)
  let store = seeded_store () in
  let ds = DS.create store in
  Alcotest.(check bool) "inactive" false (DS.active ds);
  let rng = R.create 4 in
  let witness = R.copy rng in
  (match DS.fetch ds rng ~now:0. ~region:0 ~bucket:3 with
  | DS.Delivered { delay; region; _ } ->
    Alcotest.(check (float 0.)) "no delay" 0. delay;
    Alcotest.(check int) "home region" 0 region
  | _ -> Alcotest.fail "expected Delivered");
  ignore (JS.Store.pick_random store witness ~region:0 ~bucket:3);
  Alcotest.(check int64) "exactly one selection draw" (R.bits64 witness) (R.bits64 rng)

let test_unavailable_after_retries () =
  (* fail rate 1.0: every attempt fails, the ladder exhausts, the store is
     never reached *)
  let store = JS.Store.create () in
  let net = { DS.default_network with DS.fetch_fail_rate = 1.0 } in
  let ds = DS.create ~network:net store in
  match DS.fetch ds (R.create 1) ~now:0. ~region:0 ~bucket:3 with
  | DS.Unavailable { reason; _ } ->
    Alcotest.(check bool) "reason mentions failures" true (contains reason "failures")
  | _ -> Alcotest.fail "expected Unavailable"

let test_no_package_verdict () =
  (* an empty bucket on a healthy (but active) network is No_package, not
     Unavailable: nothing failed, there is just nothing to fetch *)
  let store = JS.Store.create () in
  let net = { DS.default_network with DS.stale_rate = 0.5 } in
  let ds = DS.create ~network:net store in
  Alcotest.(check bool) "active" true (DS.active ds);
  match DS.fetch ds (R.create 1) ~now:0. ~region:0 ~bucket:3 with
  | DS.No_package -> ()
  | _ -> Alcotest.fail "expected No_package"

let test_pinned_backoff_schedule () =
  (* fail rate 1.0 draws nothing (p >= 1), zero jitter draws nothing: the
     whole ladder is deterministic.  4 attempts with base 0.5 doubling wait
     0.5 + 1 + 2 between attempts = 3.5 s total, telemetry pins the counts
     and the clock advance. *)
  let store = JS.Store.create () in
  let net = { DS.default_network with DS.fetch_fail_rate = 1.0 } in
  let backoff =
    { Js_util.Backoff.default with
      Js_util.Backoff.max_attempts = 4;
      base_delay = 0.5;
      multiplier = 2.0;
      jitter = 0.
    }
  in
  let ds = DS.create ~network:net ~backoff store in
  let tel = Js_telemetry.create () in
  let rng = R.create 1 in
  let witness = R.copy rng in
  (match DS.fetch ~telemetry:tel ds rng ~now:0. ~region:0 ~bucket:3 with
  | DS.Unavailable { delay; _ } ->
    Alcotest.(check (float 1e-9)) "backoff sum 0.5+1+2" 3.5 delay
  | _ -> Alcotest.fail "expected Unavailable");
  Alcotest.(check int64) "no randomness consumed" (R.bits64 witness) (R.bits64 rng);
  Alcotest.(check int) "attempts" 4 (Js_telemetry.counter tel "dist.fetch_attempts");
  Alcotest.(check int) "failures" 4 (Js_telemetry.counter tel "dist.fetch_failures");
  Alcotest.(check (float 1e-9)) "clock advanced by the waits" 3.5
    (Js_telemetry.Clock.now (Js_telemetry.clock tel))

let test_fingerprint_gate () =
  let a = Lazy.force app in
  let other =
    Workload.Codegen.generate { Workload.App_spec.tiny with Workload.App_spec.seed = 43 }
  in
  Alcotest.(check bool) "distinct builds hash differently" true
    (Hhbc.Repo.fingerprint a.Workload.Codegen.repo
    <> Hhbc.Repo.fingerprint other.Workload.Codegen.repo);
  let store = seeded_store () in
  let ds = DS.create ~repo:other.Workload.Codegen.repo store in
  (match DS.fetch ds (R.create 1) ~now:0. ~region:0 ~bucket:3 with
  | DS.Rejected { reason; _ } ->
    Alcotest.(check bool) "mismatch reported" true (contains reason "fingerprint")
  | _ -> Alcotest.fail "expected Rejected");
  (* the matching build passes the gate *)
  let ds_ok = DS.create ~repo:a.Workload.Codegen.repo store in
  match DS.fetch ds_ok (R.create 1) ~now:0. ~region:0 ~bucket:3 with
  | DS.Delivered _ -> ()
  | _ -> Alcotest.fail "matching fingerprint must deliver"

let test_ttl_gate () =
  (* the seeder stamps published_at from ~now (default 0); past the TTL the
     gate rejects, inside it the same package delivers *)
  let store = seeded_store () in
  let ds = DS.create ~ttl_seconds:60. store in
  (match DS.fetch ds (R.create 1) ~now:120. ~region:0 ~bucket:3 with
  | DS.Rejected { reason; _ } ->
    Alcotest.(check bool) "expiry reported" true (contains reason "expired")
  | _ -> Alcotest.fail "expected Rejected");
  match DS.fetch ds (R.create 1) ~now:30. ~region:0 ~bucket:3 with
  | DS.Delivered _ -> ()
  | _ -> Alcotest.fail "fresh package must deliver"

let test_cross_region_fallback () =
  (* home region empty, region 1 holds the package: the ladder falls
     through to the foreign region and says so in telemetry *)
  let outcome = make_package () in
  let store = JS.Store.create () in
  JS.Store.publish store ~region:1 ~bucket:3 outcome.JS.Seeder.bytes
    outcome.JS.Seeder.package.JS.Package.meta;
  let ds = DS.create ~cross_region:true ~regions:[| 0; 1 |] store in
  let tel = Js_telemetry.create () in
  (match DS.fetch ~telemetry:tel ds (R.create 1) ~now:0. ~region:0 ~bucket:3 with
  | DS.Delivered { region; _ } -> Alcotest.(check int) "served by region 1" 1 region
  | _ -> Alcotest.fail "expected Delivered");
  Alcotest.(check int) "one cross-region fetch" 1 (Js_telemetry.counter tel "dist.cross_region")

let test_boot_dist_jump_starts () =
  let a = Lazy.force app in
  let store = seeded_store () in
  let ds = DS.create ~repo:a.Workload.Codegen.repo store in
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.default ds (R.create 2) ~region:0
      ~bucket:3 ~fallback_traffic:(traffic ~seed:9 ()) ()
  with
  | JS.Consumer.Jump_started _ -> ()
  | JS.Consumer.Fell_back (_, reason) -> Alcotest.failf "fell back: %s" reason

let test_boot_dist_degrades_gracefully () =
  (* an unreachable network must yield a working no-Jump-Start VM, not an
     error *)
  let a = Lazy.force app in
  let store = seeded_store () in
  let net = { DS.default_network with DS.fetch_fail_rate = 1.0 } in
  let ds = DS.create ~network:net store in
  match
    JS.Consumer.boot_dist a.Workload.Codegen.repo JS.Options.default ds (R.create 2) ~region:0
      ~bucket:3 ~fallback_traffic:(traffic ~seed:9 ()) ()
  with
  | JS.Consumer.Fell_back (vm, reason) ->
    Alcotest.(check bool) "reason names the fetch" true (contains reason "fetch failed");
    Alcotest.(check bool) "vm runs without a package" true (vm.JS.Consumer.package = None)
  | JS.Consumer.Jump_started _ -> Alcotest.fail "cannot jump-start without the network"

let test_boot_dist_stale_burns_attempts () =
  (* with salvage disabled, gate rejects feed the consumer's bounded-retry
     machinery: all attempts burn on stale packages, then the boot falls
     back (the salvage-on behaviour is covered in test_churn.ml) *)
  let a = Lazy.force app in
  let other =
    Workload.Codegen.generate { Workload.App_spec.tiny with Workload.App_spec.seed = 43 }
  in
  let store = seeded_store () in
  let ds = DS.create ~repo:other.Workload.Codegen.repo store in
  let tel = Js_telemetry.create () in
  let options = { JS.Options.default with JS.Options.salvage_stale = false } in
  match
    JS.Consumer.boot_dist ~telemetry:tel a.Workload.Codegen.repo options ds
      (R.create 2) ~region:0 ~bucket:3 ~fallback_traffic:(traffic ~seed:9 ()) ()
  with
  | JS.Consumer.Fell_back _ ->
    Alcotest.(check int) "every boot attempt burned" options.JS.Options.max_boot_attempts
      (Js_telemetry.counter tel "consumer.boot_attempts");
    Alcotest.(check bool) "gate rejects counted" true
      (Js_telemetry.counter tel "dist.stale_rejects" >= 1);
    Alcotest.(check int) "split counter attributes the kind"
      (Js_telemetry.counter tel "dist.stale_rejects")
      (Js_telemetry.counter tel "dist.fingerprint_mismatch")
  | JS.Consumer.Jump_started _ -> Alcotest.fail "stale packages must not jump-start"

(* --- macro: Dist_net --- *)

let macro_app = lazy (Workload.Macro_app.generate Workload.Macro_app.default_params)

let mk_server_pkg () =
  let cfg = Cluster.Server.default_config in
  Cluster.Server.make_package cfg (Lazy.force macro_app)
    ~coverage_target:cfg.Cluster.Server.profile_request_target ()

let test_net_neutral_draw_identity () =
  let net = DN.create DN.default_config in
  Alcotest.(check bool) "default inactive" false (DN.active DN.default_config);
  let rng = R.create 6 in
  let p0 = mk_server_pkg () and p1 = mk_server_pkg () and p2 = mk_server_pkg () in
  List.iter (fun p -> DN.publish net rng ~now:0. ~bucket:0 p) [ p0; p1; p2 ];
  (* publish prepends, so the replica order is newest-first *)
  let reference = [| p2; p1; p0 |] in
  let witness = R.copy rng in
  for _ = 1 to 20 do
    match DN.fetch net rng ~now:0. ~region:0 ~bucket:0 with
    | DN.Delivered (pkg, delay) ->
      Alcotest.(check (float 0.)) "no delay" 0. delay;
      Alcotest.(check bool) "draw-identical pick" true (pkg == R.pick witness reference)
    | _ -> Alcotest.fail "expected Delivered"
  done;
  Alcotest.(check int) "inactive network counts nothing" 0 (DN.counters net).DN.attempts

let test_net_counters_invariant () =
  let cfg =
    { DN.default_config with
      DN.regions = 2;
      fetch_fail_rate = 0.4;
      fetch_timeout = 1.0;
      fetch_latency_mean = 0.5;
      stale_rate = 0.2;
      cross_region = true
    }
  in
  let net = DN.create cfg in
  let rng = R.create 8 in
  DN.publish net rng ~now:0. ~bucket:0 (mk_server_pkg ());
  for _ = 1 to 200 do
    ignore (DN.fetch net rng ~now:0. ~region:0 ~bucket:0)
  done;
  let c = DN.counters net in
  Alcotest.(check bool) "faults occurred" true (c.DN.failures > 0 && c.DN.timeouts > 0);
  Alcotest.(check int) "attempts = deliveries + failures + timeouts + stale + empty"
    c.DN.attempts
    (c.DN.deliveries + c.DN.failures + c.DN.timeouts + c.DN.stale_rejects + c.DN.empty_probes)

let test_net_publish_latency_backoff () =
  (* replicas are invisible right after the push; the ladder's backoff waits
     long enough for replication (mean 0.1 s) to complete *)
  let cfg =
    { DN.default_config with
      DN.publish_latency_mean = 0.1;
      backoff = { Js_util.Backoff.default with Js_util.Backoff.jitter = 0. }
    }
  in
  let net = DN.create cfg in
  let rng = R.create 3 in
  DN.publish net rng ~now:0. ~bucket:0 (mk_server_pkg ());
  match DN.fetch net rng ~now:0. ~region:0 ~bucket:0 with
  | DN.Delivered (_, delay) ->
    Alcotest.(check bool) "waited at least one backoff step" true (delay >= 0.5);
    let c = DN.counters net in
    Alcotest.(check bool) "first probe found nothing" true (c.DN.empty_probes >= 1)
  | _ -> Alcotest.fail "expected Delivered after replication"

let test_net_not_found () =
  let cfg = { DN.default_config with DN.stale_rate = 0.5 } in
  let net = DN.create cfg in
  (match DN.fetch net (R.create 1) ~now:0. ~region:0 ~bucket:9 with
  | DN.Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  Alcotest.(check int) "empty probe counted" 1 (DN.counters net).DN.empty_probes

(* --- one ladder, two layers --- *)

(* Network and backoff settings; each knob is zero, which skips its draw, a
   quarter of the time.  Staleness is left out on purpose: a stale package
   ends the micro ladder but sends the macro ladder back for another copy. *)
let gen_ladder_case =
  let open QCheck.Gen in
  let knob lo hi = frequency [ (1, return 0.); (3, float_range lo hi) ] in
  let* fetch_fail_rate = knob 0.05 0.95 in
  let* fetch_timeout = knob 0.2 3. in
  let* latency_mean = knob 0.05 2. in
  let* tail_prob = knob 0.05 0.5 in
  let* tail_alpha = float_range 1.1 3. in
  let* max_attempts = int_range 1 8 in
  let* base_delay = float_range 0.1 2. in
  let* multiplier = float_range 1. 3. in
  let* jitter = knob 0.05 0.5 in
  let+ seed = small_nat in
  ( { DS.default_network with DS.fetch_fail_rate; fetch_timeout; latency_mean; tail_prob; tail_alpha },
    { Js_util.Backoff.max_attempts; base_delay; multiplier; max_delay = 30.; jitter },
    seed )

let print_ladder_case ((n : DS.network), (b : Js_util.Backoff.config), seed) =
  Printf.sprintf
    "fail=%g timeout=%g latency=%g tail=%g alpha=%g attempts=%d base=%g mult=%g jitter=%g seed=%d"
    n.DS.fetch_fail_rate n.DS.fetch_timeout n.DS.latency_mean n.DS.tail_prob n.DS.tail_alpha
    b.Js_util.Backoff.max_attempts b.Js_util.Backoff.base_delay b.Js_util.Backoff.multiplier
    b.Js_util.Backoff.jitter seed

let one_replica_store = lazy (seeded_store ())
let one_replica_pkg = lazy (mk_server_pkg ())

let prop_layers_agree =
  QCheck.Test.make ~name:"micro and macro fetches agree on a one-replica bucket" ~count:300
    (QCheck.make ~print:print_ladder_case gen_ladder_case)
    (fun (network, backoff, seed) ->
      let ds = DS.create ~network ~backoff (Lazy.force one_replica_store) in
      let dn =
        DN.create
          { DN.default_config with
            DN.fetch_fail_rate = network.DS.fetch_fail_rate;
            fetch_timeout = network.DS.fetch_timeout;
            fetch_latency_mean = network.DS.latency_mean;
            tail_prob = network.DS.tail_prob;
            tail_alpha = network.DS.tail_alpha;
            backoff
          }
      in
      DN.publish dn (R.create 0) ~now:0. ~bucket:3 (Lazy.force one_replica_pkg);
      let micro_rng = R.create seed and macro_rng = R.create seed in
      let micro =
        match DS.fetch ds micro_rng ~now:0. ~region:0 ~bucket:3 with
        | DS.Delivered { delay; _ } -> `Delivered delay
        | DS.Unavailable { delay; _ } -> `Unavailable delay
        | DS.Rejected _ -> `Rejected
        | DS.No_package -> `Nothing
      in
      let macro =
        match DN.fetch dn macro_rng ~now:0. ~region:0 ~bucket:3 with
        | DN.Delivered (_, delay) -> `Delivered delay
        | DN.Unavailable delay -> `Unavailable delay
        | DN.Not_found -> `Nothing
      in
      micro = macro && R.bits64 micro_rng = R.bits64 macro_rng)

let () =
  Alcotest.run "dist"
    [ ( "dist_store",
        [ Alcotest.test_case "neutral passthrough" `Quick test_neutral_passthrough;
          Alcotest.test_case "unavailable after retries" `Quick test_unavailable_after_retries;
          Alcotest.test_case "no-package verdict" `Quick test_no_package_verdict;
          Alcotest.test_case "pinned backoff schedule" `Quick test_pinned_backoff_schedule;
          Alcotest.test_case "fingerprint gate" `Quick test_fingerprint_gate;
          Alcotest.test_case "ttl gate" `Quick test_ttl_gate;
          Alcotest.test_case "cross-region fallback" `Quick test_cross_region_fallback
        ] );
      ( "boot",
        [ Alcotest.test_case "jump-starts through the network" `Quick test_boot_dist_jump_starts;
          Alcotest.test_case "degrades gracefully" `Quick test_boot_dist_degrades_gracefully;
          Alcotest.test_case "stale rejects burn attempts" `Quick
            test_boot_dist_stale_burns_attempts
        ] );
      ( "dist_net",
        [ Alcotest.test_case "neutral draw identity" `Quick test_net_neutral_draw_identity;
          Alcotest.test_case "counters invariant" `Quick test_net_counters_invariant;
          Alcotest.test_case "publish latency + backoff" `Quick test_net_publish_latency_backoff;
          Alcotest.test_case "not found" `Quick test_net_not_found
        ] );
      ("ladder", [ QCheck_alcotest.to_alcotest prop_layers_agree ])
    ]
