(* Property-based tests (qcheck) over the core data structures and
   cross-cutting invariants. *)

(* --- binio --- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"binio varint roundtrip" ~count:500
    QCheck.(small_nat)
    (fun n ->
      let w = Js_util.Binio.Writer.create () in
      Js_util.Binio.Writer.varint w n;
      let r = Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w) in
      Js_util.Binio.Reader.varint r = n)

let prop_svarint_roundtrip =
  QCheck.Test.make ~name:"binio svarint roundtrip" ~count:500
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun n ->
      let w = Js_util.Binio.Writer.create () in
      Js_util.Binio.Writer.svarint w n;
      let r = Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w) in
      Js_util.Binio.Reader.svarint r = n)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"binio string roundtrip" ~count:200 QCheck.string (fun s ->
      let w = Js_util.Binio.Writer.create () in
      Js_util.Binio.Writer.string w s;
      let r = Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w) in
      Js_util.Binio.Reader.string r = s)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"binio frame roundtrip" ~count:200 QCheck.string (fun s ->
      Js_util.Binio.unframe ~magic:"PROP" ~expected_version:2
        (Js_util.Binio.frame ~magic:"PROP" ~version:2 s)
      = s)

(* --- rng --- *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Js_util.Rng.create seed in
      let v = Js_util.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng determinism" ~count:100 QCheck.small_nat (fun seed ->
      let a = Js_util.Rng.create seed and b = Js_util.Rng.create seed in
      List.init 20 (fun _ -> Js_util.Rng.bits64 a) = List.init 20 (fun _ -> Js_util.Rng.bits64 b))

let prop_rng_split_draw_compatible =
  (* the split-stream contract the simulators lean on: [split] costs the
     parent exactly one [bits64] draw — no more, no less — so a layout that
     splits child streams up front consumes the parent stream at exactly the
     positions a sequential draw layout would, and inserting or removing a
     split shifts later draws by exactly one *)
  QCheck.Test.make ~name:"rng split costs exactly one parent draw" ~count:200
    QCheck.(pair small_nat (int_range 0 10))
    (fun (seed, skip) ->
      let a = Js_util.Rng.create seed and b = Js_util.Rng.create seed in
      for _ = 1 to skip do
        ignore (Js_util.Rng.bits64 a);
        ignore (Js_util.Rng.bits64 b)
      done;
      let _child = Js_util.Rng.split a in
      ignore (Js_util.Rng.bits64 b);
      (* after the split, parent streams coincide draw-for-draw *)
      List.init 16 (fun _ -> Js_util.Rng.bits64 a)
      = List.init 16 (fun _ -> Js_util.Rng.bits64 b))

let prop_rng_split_independent_streams =
  (* children derived at different split positions are pairwise distinct
     streams, and all are distinct from the parent's continuation — the
     independence the per-region/per-server stream assignment relies on *)
  QCheck.Test.make ~name:"rng split streams pairwise distinct" ~count:100
    QCheck.small_nat
    (fun seed ->
      let parent = Js_util.Rng.create seed in
      let children = List.init 4 (fun _ -> Js_util.Rng.split parent) in
      let prefix rng = List.init 8 (fun _ -> Js_util.Rng.bits64 rng) in
      let streams = prefix parent :: List.map prefix children in
      (* all 5 prefixes mutually distinct *)
      let rec all_distinct = function
        | [] -> true
        | s :: rest -> (not (List.mem s rest)) && all_distinct rest
      in
      all_distinct streams)

let prop_rng_split_reproducible =
  (* splitting is itself deterministic: the same seed and split position
     yields an identical child stream (copy taken before the split replays
     both parent and child) *)
  QCheck.Test.make ~name:"rng split reproducible from copy" ~count:100
    QCheck.small_nat
    (fun seed ->
      let a = Js_util.Rng.create seed in
      let b = Js_util.Rng.copy a in
      let ca = Js_util.Rng.split a and cb = Js_util.Rng.split b in
      List.init 8 (fun _ -> Js_util.Rng.bits64 ca)
      = List.init 8 (fun _ -> Js_util.Rng.bits64 cb)
      && List.init 8 (fun _ -> Js_util.Rng.bits64 a)
         = List.init 8 (fun _ -> Js_util.Rng.bits64 b))

let prop_rng_sample_weighted_prefix =
  (* the balancer samples a prefix of its cached weight array in place: that
     must pick the same index and leave the stream in the same state as
     sampling a copy of the prefix.  Weights mix the balancer's 1e-9 floor,
     zeros and ordinary capacities; the prefix is often shorter than the
     array and often a single entry. *)
  let gen =
    let open QCheck.Gen in
    let weight = frequency [ (2, return 1e-9); (1, return 0.); (4, float_range 0. 100.) ] in
    let* len = int_range 1 24 in
    let* w = array_size (return len) weight in
    let* n = frequency [ (1, return 1); (3, int_range 1 len) ] in
    let+ seed = small_nat in
    (seed, w, n)
  in
  QCheck.Test.make ~name:"rng sample_weighted over a prefix matches Array.sub" ~count:500
    (QCheck.make ~print:QCheck.Print.(triple int (array float) int) gen)
    (fun (seed, w, n) ->
      let sub = Array.sub w 0 n in
      QCheck.assume (Array.fold_left ( +. ) 0. sub > 0.);
      let a = Js_util.Rng.create seed in
      let b = Js_util.Rng.copy a in
      let i = Js_util.Rng.sample_weighted_prefix a w ~n in
      let j = Js_util.Rng.sample_weighted b sub in
      i = j && Js_util.Rng.bits64 a = Js_util.Rng.bits64 b)

(* --- pqueue sorts --- *)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list (float_range (-1000.) 1000.))
    (fun xs ->
      let q = Js_util.Pqueue.create () in
      List.iter (fun x -> Js_util.Pqueue.push q ~priority:x x) xs;
      let rec drain acc =
        match Js_util.Pqueue.pop q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.stable_sort compare xs)

(* --- layout --- *)

let cfg_gen =
  QCheck.make
    ~print:(fun (n, arcs) -> Printf.sprintf "n=%d arcs=%d" n (List.length arcs))
    QCheck.Gen.(
      int_range 1 14 >>= fun n ->
      map
        (fun arcs -> (n, arcs))
        (list_size (int_range 0 30)
           (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0. 100.))))

let build_cfg ?(entry = 0) (n, arcs) =
  Layout.Cfg.create
    ~blocks:(Array.init n (fun i -> { Layout.Cfg.id = i; size = 8 + (i * 4); weight = 1. }))
    ~arcs:(Array.of_list (List.map (fun (src, dst, weight) -> { Layout.Cfg.src; dst; weight }) arcs))
    ~entry

let is_permutation n order =
  let seen = Array.make n false in
  Array.length order = n
  && Array.for_all
       (fun id ->
         id >= 0 && id < n
         &&
         if seen.(id) then false
         else begin
           seen.(id) <- true;
           true
         end)
       order

let prop_exttsp_permutation =
  QCheck.Test.make ~name:"exttsp layout is an entry-first permutation" ~count:200 cfg_gen
    (fun ((n, _) as spec) ->
      (* the entry is block 0, a middle block or the last block *)
      List.for_all
        (fun entry ->
          let order = Layout.Exttsp.layout (build_cfg ~entry spec) in
          is_permutation n order && order.(0) = entry)
        [ 0; n / 2; n - 1 ])

let prop_exttsp_score_nonneg =
  QCheck.Test.make ~name:"exttsp score non-negative" ~count:200 cfg_gen (fun spec ->
      let cfg = build_cfg spec in
      Layout.Exttsp.score cfg (Layout.Exttsp.layout cfg) >= 0.)

let prop_pettis_hansen_permutation =
  QCheck.Test.make ~name:"pettis-hansen is an entry-first permutation" ~count:200 cfg_gen
    (fun spec ->
      let cfg = build_cfg spec in
      let order = Layout.Baselines.pettis_hansen cfg in
      is_permutation (fst spec) order && order.(0) = 0)

let prop_c3_permutation =
  QCheck.Test.make ~name:"c3 order is a permutation" ~count:200 cfg_gen (fun (n, arcs) ->
      let nodes = Array.init n (fun i -> { Layout.C3.id = i; size = 64; samples = float_of_int (n - i) }) in
      let call_arcs =
        Array.of_list
          (List.map (fun (caller, callee, weight) -> { Layout.C3.caller; callee; weight }) arcs)
      in
      is_permutation n (Layout.C3.order ~nodes ~arcs:call_arcs ()))

(* --- machine --- *)

let trace_gen =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "%d accesses" (List.length l))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 400) (QCheck.Gen.int_range 0 100_000))

let prop_cache_misses_bounded =
  QCheck.Test.make ~name:"cache misses <= accesses" ~count:100 trace_gen (fun trace ->
      let c = Machine.Cache.create { Machine.Cache.name = "p"; sets = 8; ways = 2; line_bytes = 64 } in
      List.iter (fun addr -> ignore (Machine.Cache.access c ~addr ~write:false)) trace;
      let s = Machine.Cache.stats c in
      s.Machine.Cache.misses <= s.Machine.Cache.accesses
      && s.Machine.Cache.accesses = List.length trace)

let prop_bigger_cache_fewer_misses =
  QCheck.Test.make ~name:"more ways never miss more (same sets)" ~count:100 trace_gen
    (fun trace ->
      let run ways =
        let c =
          Machine.Cache.create { Machine.Cache.name = "p"; sets = 8; ways; line_bytes = 64 }
        in
        List.iter (fun addr -> ignore (Machine.Cache.access c ~addr ~write:false)) trace;
        (Machine.Cache.stats c).Machine.Cache.misses
      in
      (* LRU is a stack algorithm: capacity can only help *)
      run 8 <= run 2)

let prop_branch_counts =
  QCheck.Test.make ~name:"branch mispredicts <= branches" ~count:100
    QCheck.(list (pair (int_range 0 1000) bool))
    (fun events ->
      let bp = Machine.Branch.create ~entries:64 in
      List.iter (fun (pc, taken) -> ignore (Machine.Branch.execute bp ~pc ~target:(pc + 64) ~taken)) events;
      let s = Machine.Branch.stats bp in
      s.Machine.Branch.mispredicts <= s.Machine.Branch.branches)

(* --- series --- *)

let prop_series_constant_integral =
  QCheck.Test.make ~name:"series integral of a constant" ~count:100
    QCheck.(pair (float_range 0.1 100.) (float_range 1. 50.))
    (fun (c, t) ->
      let s = Js_util.Stats.Series.create () in
      Js_util.Stats.Series.add s ~time:0. ~value:c;
      Js_util.Stats.Series.add s ~time:t ~value:c;
      abs_float (Js_util.Stats.Series.integral s ~until:t -. (c *. t)) < 1e-6)

(* --- cross-cutting invariants over the real VM --- *)

let tiny_app = lazy (Workload.Codegen.generate Workload.App_spec.tiny)

let run_requests ~probes ~seed ~n =
  let app = Lazy.force tiny_app in
  let repo = app.Workload.Codegen.repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let engine = Interp.Engine.create ~probes repo (Mh_runtime.Heap.create repo layouts) in
  let rng = Js_util.Rng.create seed in
  let mix = Workload.Request.uniform_mix app in
  List.init n (fun _ ->
      Workload.Request.invoke engine app (Workload.Request.sample rng mix))

let prop_probes_preserve_semantics =
  QCheck.Test.make ~name:"profiling probes do not change results" ~count:12 QCheck.small_nat
    (fun seed ->
      let app = Lazy.force tiny_app in
      let counters = Jit_profile.Counters.create app.Workload.Codegen.repo in
      let plain = run_requests ~probes:Interp.Probes.none ~seed ~n:10 in
      let probed = run_requests ~probes:(Jit_profile.Collector.probes counters) ~seed ~n:10 in
      plain = probed)

let prop_reordered_layout_preserves_semantics =
  QCheck.Test.make ~name:"property reordering does not change results" ~count:8 QCheck.small_nat
    (fun seed ->
      let app = Lazy.force tiny_app in
      let repo = app.Workload.Codegen.repo in
      let run reorder hot_seed =
        let hotness _ nid = (nid * 7919) + hot_seed in
        let layouts = Mh_runtime.Class_layout.build repo ~reorder ~hotness in
        let engine = Interp.Engine.create repo (Mh_runtime.Heap.create repo layouts) in
        let rng = Js_util.Rng.create seed in
        let mix = Workload.Request.uniform_mix app in
        List.init 8 (fun _ -> Workload.Request.invoke engine app (Workload.Request.sample rng mix))
      in
      run false 0 = run true seed)

let prop_counters_roundtrip =
  QCheck.Test.make ~name:"counters serialize/deserialize" ~count:8 QCheck.small_nat (fun seed ->
      let app = Lazy.force tiny_app in
      let repo = app.Workload.Codegen.repo in
      let counters = Jit_profile.Counters.create repo in
      ignore (run_requests ~probes:(Jit_profile.Collector.probes counters) ~seed ~n:8);
      let w = Js_util.Binio.Writer.create () in
      Jit_profile.Counters.serialize counters w;
      let back =
        Jit_profile.Counters.deserialize repo
          (Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w))
      in
      Jit_profile.Counters.call_graph counters = Jit_profile.Counters.call_graph back
      && Jit_profile.Counters.total_entries counters = Jit_profile.Counters.total_entries back
      && Jit_profile.Counters.touched_units counters = Jit_profile.Counters.touched_units back
      && List.sort compare (Jit_profile.Counters.prop_table counters)
         = List.sort compare (Jit_profile.Counters.prop_table back))

(* Compiler soundness against the static verifier: EVERY program the
   minihack compiler emits — over randomly generated app shapes — must pass
   the FuncChecker-style verifier with zero error-severity diagnostics, and
   any warnings must come from the known-benign lint set. *)
let benign_warnings = [ "V105"; "V109"; "V110" ]

let prop_compiler_output_verifies =
  QCheck.Test.make ~name:"compiled bytecode passes the verifier" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
      let spec = { Workload.App_spec.tiny with Workload.App_spec.seed = seed } in
      let app = Workload.Codegen.generate spec in
      let diags = Js_analysis.Verify.check_repo app.Workload.Codegen.repo in
      Js_analysis.Diag.ok diags
      && List.for_all (fun d -> List.mem d.Js_analysis.Diag.code benign_warnings) diags)

let prop_pp_roundtrip_random_specs =
  QCheck.Test.make ~name:"generated apps round-trip the pretty printer" ~count:6
    QCheck.(int_range 1 500)
    (fun seed ->
      let spec = { Workload.App_spec.tiny with Workload.App_spec.seed = seed } in
      let src = Workload.Codegen.source_of spec in
      let ast = Minihack.Parser.parse_program src in
      Minihack.Parser.parse_program (Minihack.Pp.to_source ast) = ast)

(* §VI-A.3: for ANY store whose packages are all corrupt, boot must terminate
   with a clean Fell_back — the consumer never crashes and never accepts a
   corrupted package.  Also covers the empty store (0 copies published). *)
let seeded_package =
  lazy
    (let app = Lazy.force tiny_app in
     let options = { Jumpstart.Options.default with Jumpstart.Options.validate_packages = false } in
     let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
     let traffic seed engine =
       let rng = Js_util.Rng.create seed in
       for _ = 1 to 200 do
         ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
       done
     in
     match
       Jumpstart.Seeder.run app.Workload.Codegen.repo options ~profile_traffic:(traffic 1)
         ~optimized_traffic:(traffic 2) ~region:0 ~bucket:0 ~seeder_id:0 ()
     with
     | Ok outcome -> outcome
     | Error msg -> failwith ("seeder failed: " ^ msg))

let prop_all_corrupt_store_falls_back =
  QCheck.Test.make ~name:"boot falls back cleanly when every package is corrupt" ~count:10
    QCheck.(pair small_nat (int_range 0 4))
    (fun (seed, copies) ->
      let app = Lazy.force tiny_app in
      let outcome = Lazy.force seeded_package in
      let good = outcome.Jumpstart.Seeder.bytes in
      let meta = outcome.Jumpstart.Seeder.package.Jumpstart.Package.meta in
      let rng = Js_util.Rng.create (seed + 1) in
      let store = Jumpstart.Store.create () in
      for _ = 1 to copies do
        (* flip one byte at an arbitrary position: header, payload or CRC *)
        let b = Bytes.of_string good in
        let pos = Js_util.Rng.int rng (Bytes.length b) in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Js_util.Rng.int rng 255)));
        Jumpstart.Store.publish store ~region:0 ~bucket:0 (Bytes.to_string b) meta
      done;
      let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
      let fallback_traffic engine =
        let trng = Js_util.Rng.create 6 in
        for _ = 1 to 20 do
          ignore (Workload.Request.invoke engine app (Workload.Request.sample trng mix))
        done
      in
      let tel = Js_telemetry.create () in
      match
        Jumpstart.Consumer.boot ~telemetry:tel app.Workload.Codegen.repo
          Jumpstart.Options.default store rng ~region:0 ~bucket:0 ~fallback_traffic ()
      with
      | Jumpstart.Consumer.Fell_back (vm, _) ->
        (* random single-byte damage to framed bytes is always a CRC/header
           hit: every attempt must die at decode, never reaching the verify
           stage, so the verify.* counters stay pinned at zero *)
        let expect_decode =
          if copies = 0 then 0 else Jumpstart.Options.default.Jumpstart.Options.max_boot_attempts
        in
        vm.Jumpstart.Consumer.package = None
        && Js_telemetry.counter tel "consumer.decode_failures" = expect_decode
        && Js_telemetry.counter tel "verify.package_rejects" = 0
        && Js_telemetry.counter tel "consumer.verify_failures" = 0
      | Jumpstart.Consumer.Jump_started _ -> false)

let dist_fleet_app =
  lazy
    (Workload.Macro_app.generate
       { Workload.Macro_app.default_params with Workload.Macro_app.n_funcs = 4_000 })

(* Small, fast discrete-event push configs for the js_sim properties: a
   handful of servers, a short horizon and a reduced warmup-curve reference
   run, with distribution-network faults dialed in per generated case. *)
let des_push_cfg ~fail10 ~stale10 ~cross ~policy ~jumpstart =
  let dist =
    { Cluster.Dist_net.default_config with
      Cluster.Dist_net.fetch_fail_rate = float_of_int fail10 /. 10.;
      fetch_timeout = 1.0;
      fetch_latency_mean = 0.5;
      stale_rate = float_of_int stale10 /. 10.;
      cross_region = cross;
      regions = (if cross then 2 else 1)
    }
  in
  let server =
    { Cluster.Server.default_config with
      Cluster.Server.profile_request_target = 400;
      init_seconds_sequential = 20.;
      init_seconds_parallel = 8.;
      seeder_collect_seconds = 60.;
      traffic_ramp_seconds = 60.;
      cold_decay_seconds = 30.
    }
  in
  let fleet =
    { Cluster.Fleet.default_config with
      Cluster.Fleet.n_servers = 8;
      n_buckets = 2;
      seeders_per_bucket = 2;
      server;
      dist
    }
  in
  { Js_sim.Push.default_config with
    Js_sim.Push.fleet;
    warm_rps = 30.;
    concurrency = 4;
    arrival =
      { Js_sim.Arrival.default_config with Js_sim.Arrival.base_rps = 8. *. 30. *. 0.5 };
    policy;
    jumpstart;
    push_at = 40.;
    drain_cap = 2;
    duration = 200.;
    curve_horizon = 600.
  }

let prop_push_sim_deterministic =
  QCheck.Test.make
    ~name:"same seed reproduces byte-identical push_sim stats" ~count:4
    QCheck.(triple small_nat (int_range 0 3) bool)
    (fun (seed, policy_ix, jumpstart) ->
      let policy = List.nth Js_sim.Balancer.all_policies policy_ix in
      let cfg =
        des_push_cfg ~fail10:(seed mod 4) ~stale10:(seed mod 3)
          ~cross:(seed mod 2 = 0) ~policy ~jumpstart
      in
      let app = Lazy.force dist_fleet_app in
      Js_sim.Push.digest (Js_sim.Push.run cfg app ~seed)
      = Js_sim.Push.digest (Js_sim.Push.run cfg app ~seed))

let prop_push_sim_dist_ladder =
  QCheck.Test.make
    ~name:"DES pushes keep the dist-net counter ladder exact" ~count:6
    QCheck.(triple small_nat (int_range 1 5) (int_range 0 3))
    (fun (seed, fail10, stale10) ->
      let cfg =
        des_push_cfg ~fail10 ~stale10 ~cross:(seed mod 2 = 0)
          ~policy:Js_sim.Balancer.Warmup_weighted ~jumpstart:true
      in
      let stats = Js_sim.Push.run cfg (Lazy.force dist_fleet_app) ~seed:(seed + 1) in
      let restarted = stats.Js_sim.Push.jump_started + stats.Js_sim.Push.fallbacks in
      let n_servers = cfg.Js_sim.Push.fleet.Cluster.Fleet.n_servers in
      (* every server restarts exactly once — unless the guardrail aborted
         or a slow-fetch seed leaves the push still rolling at the horizon *)
      restarted <= n_servers
      && (stats.Js_sim.Push.aborted
         || stats.Js_sim.Push.push_done < 0.
         || restarted = n_servers)
      &&
      match stats.Js_sim.Push.dist with
      | None -> false (* nonzero fault rates always activate the network *)
      | Some c ->
        c.Cluster.Dist_net.attempts
        = c.Cluster.Dist_net.deliveries + c.Cluster.Dist_net.failures
          + c.Cluster.Dist_net.timeouts + c.Cluster.Dist_net.stale_rejects
          + c.Cluster.Dist_net.empty_probes)

(* Distribution-network robustness: under arbitrary transient-fault rates
   (with no bad packages in play) every server of a whole-fleet restart must
   end the push in exactly one of {jump-started, fallback}, and the fetch
   ladder's counters must stay consistent. *)
let prop_fleet_dist_partition =
  QCheck.Test.make ~name:"dist faults partition the fleet into jump-started xor fallback"
    ~count:8
    QCheck.(triple small_nat (int_range 0 6) (int_range 0 3))
    (fun (seed, fail10, stale10) ->
      let cfg =
        des_push_cfg ~fail10 ~stale10 ~cross:(seed mod 2 = 0)
          ~policy:Js_sim.Balancer.Warmup_weighted ~jumpstart:true
      in
      let n_servers = cfg.Js_sim.Push.fleet.Cluster.Fleet.n_servers in
      let stats =
        Js_sim.Push.run
          { cfg with Js_sim.Push.drain_cap = n_servers }
          (Lazy.force dist_fleet_app) ~seed:(seed + 1)
      in
      stats.Js_sim.Push.jump_started + stats.Js_sim.Push.fallbacks = n_servers
      &&
      match stats.Js_sim.Push.dist with
      | None -> false (* the timeout alone activates the network *)
      | Some c ->
        c.Cluster.Dist_net.attempts
        = c.Cluster.Dist_net.deliveries + c.Cluster.Dist_net.failures
          + c.Cluster.Dist_net.timeouts + c.Cluster.Dist_net.stale_rejects
          + c.Cluster.Dist_net.empty_probes)

let region_prop_gcfg ~seed ~n_regions =
  { Js_sim.Region.default_global_config with
    Js_sim.Region.base =
      des_push_cfg ~fail10:(seed mod 3) ~stale10:0 ~cross:true
        ~policy:Js_sim.Balancer.Warmup_weighted ~jumpstart:true;
    n_regions;
    region_phase = 120.;
    push_stagger = 25.;
    spillover = true;
    spill_latency = 15.;
    epoch = 15.;
    disasters =
      (if seed mod 2 = 0 then
         [ Js_sim.Region.Region_loss { region = n_regions - 1; at = 90. } ]
       else [])
  }

let prop_epoch_barrier_equals_merged =
  (* the tentpole invariant of the multi-region engine, now three-way: a run
     advanced per-region to epoch barriers is byte-identical to the same run
     on one merged event queue AND to the same barrier schedule executed on
     two concurrent domains; arrival batching is digest-neutral on top *)
  QCheck.Test.make
    ~name:"epoch == merged == parallel run (global digest), batching neutral" ~count:3
    QCheck.(pair small_nat (int_range 2 3))
    (fun (seed, n_regions) ->
      let gcfg = region_prop_gcfg ~seed ~n_regions in
      let app = Lazy.force dist_fleet_app in
      let digest mode g =
        Js_sim.Region.global_digest (Js_sim.Region.run_global ~mode g app ~seed)
      in
      let e = digest `Epoch gcfg in
      e = digest `Merged gcfg
      && e = digest (`Parallel 2) gcfg
      && e = digest `Epoch { gcfg with Js_sim.Region.batch = false })

let prop_parallel_telemetry_merge_equals_shared =
  (* per-domain telemetry shards folded at the barriers must reproduce what
     one shared registry counted in the sequential run — counter-for-counter
     and bucket-for-bucket (gauges/events are ordering-sensitive by contract
     and compared via counters' superset, the digest property above) *)
  QCheck.Test.make ~name:"parallel shard-merged telemetry == shared registry" ~count:2
    QCheck.(pair small_nat (int_range 2 3))
    (fun (seed, n_regions) ->
      let gcfg = region_prop_gcfg ~seed ~n_regions in
      let app = Lazy.force dist_fleet_app in
      let t_seq = Js_telemetry.create () in
      let t_par = Js_telemetry.create () in
      ignore (Js_sim.Region.run_global ~telemetry:t_seq ~mode:`Epoch gcfg app ~seed);
      ignore
        (Js_sim.Region.run_global ~telemetry:t_par ~mode:(`Parallel 2) gcfg app ~seed);
      Js_telemetry.counters t_seq = Js_telemetry.counters t_par
      && Js_telemetry.histograms t_seq = Js_telemetry.histograms t_par)

let prop_quantile_region_merge =
  (* per-region sketches merged == one sketch fed the concatenated stream *)
  QCheck.Test.make ~name:"per-region quantile merge == concatenated stream" ~count:50
    QCheck.(pair (list_of_size Gen.(1 -- 4) (small_list (float_bound_exclusive 1000.)))
              (float_bound_exclusive 1000.))
    (fun (regions, extra) ->
      let module Q = Js_util.Stats.Quantile in
      let merged = Q.create () in
      let concat = Q.create () in
      List.iter
        (fun samples ->
          let per_region = Q.create () in
          List.iter
            (fun x ->
              Q.add per_region (x +. extra);
              Q.add concat (x +. extra))
            samples;
          Q.merge merged per_region)
        regions;
      Q.count merged = Q.count concat
      && (Q.count merged = 0
         || Q.p50 merged = Q.p50 concat
            && Q.p95 merged = Q.p95 concat
            && Q.p99 merged = Q.p99 concat))

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpreter fully deterministic" ~count:8 QCheck.small_nat (fun seed ->
      run_requests ~probes:Interp.Probes.none ~seed ~n:6
      = run_requests ~probes:Interp.Probes.none ~seed ~n:6)

(* The tentpole invariant of the inline-cache fast path: caching is pure
   memoization, so a cached run of ANY generated program must be
   observationally identical to the uncached reference loop — same request
   results, same echo output, same global and per-function instruction
   counts, and the same ordered stream of block/arc/call/entry/exit/prop
   probe events. *)
type probe_event =
  | Block of int * int
  | Arc of int * int * int
  | Call_site of int * int * int
  | Entry of int
  | Exit of int
  | Prop of int * int * int * bool

let trace_requests ?(typed = true) app ~inline_cache ~seed ~n =
  let repo = app.Workload.Codegen.repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let events = ref [] in
  let probes =
    {
      Interp.Probes.on_block = (fun fid bb -> events := Block (fid, bb) :: !events);
      on_arc = (fun fid ~src ~dst -> events := Arc (fid, src, dst) :: !events);
      on_call =
        (fun ~caller ~site ~callee -> events := Call_site (caller, site, callee) :: !events);
      on_func_entry = (fun fid -> events := Entry fid :: !events);
      on_func_exit = (fun fid -> events := Exit fid :: !events);
      on_prop_access =
        (fun cid nid ~addr ~write -> events := Prop (cid, nid, addr, write) :: !events);
    }
  in
  let engine =
    Interp.Engine.create ~probes ~inline_cache ~typed repo (Mh_runtime.Heap.create repo layouts)
  in
  let rng = Js_util.Rng.create seed in
  let mix = Workload.Request.uniform_mix app in
  let results =
    List.init n (fun _ -> Workload.Request.invoke engine app (Workload.Request.sample rng mix))
  in
  ( results,
    Interp.Engine.output engine,
    Interp.Engine.steps engine,
    Array.copy (Interp.Engine.func_steps engine),
    List.rev !events )

let prop_inline_cache_transparent =
  QCheck.Test.make ~name:"inline caches are observationally invisible" ~count:6
    QCheck.(pair (int_range 1 500) small_nat)
    (fun (app_seed, seed) ->
      let spec = { Workload.App_spec.tiny with Workload.App_spec.seed = app_seed } in
      let app = Workload.Codegen.generate spec in
      trace_requests app ~inline_cache:true ~seed ~n:5
      = trace_requests app ~inline_cache:false ~seed ~n:5)

(* Same invariant for the dataflow-backed typed translation: the rewrites
   (constant folds, resolved branches, erased casts/dead stores, fused
   superinstructions) must be invisible to every observable — results, echo
   output, step accounting, and the full ordered probe-event stream. *)
let prop_typed_translation_transparent =
  QCheck.Test.make ~name:"typed translation is observationally invisible" ~count:6
    QCheck.(pair (int_range 1 500) small_nat)
    (fun (app_seed, seed) ->
      let spec = { Workload.App_spec.tiny with Workload.App_spec.seed = app_seed } in
      let app = Workload.Codegen.generate spec in
      trace_requests app ~typed:true ~inline_cache:true ~seed ~n:5
      = trace_requests app ~typed:false ~inline_cache:true ~seed ~n:5)

(* Solver termination: on random stack-balanced CFGs (loops included, with
   type-unstable locals to force lattice climbing) the analysis reaches its
   fixed point within the declared iteration bound. *)
let prop_dataflow_fixed_point =
  QCheck.Test.make ~name:"dataflow solver converges within bound" ~count:200 QCheck.small_nat
    (fun seed ->
      let module I = Hhbc.Instr in
      let rng = Js_util.Rng.create (seed + 1) in
      let n_locals = 2 in
      let n_segs = 2 + Js_util.Rng.int rng 6 in
      (* 4-instruction segments: a stack-neutral payload then a terminator
         jumping to some segment start; the last segment returns *)
      let seg s =
        if s = n_segs - 1 then [ I.Nop; I.Nop; I.LitNull; I.Ret ]
        else begin
          let payload =
            match Js_util.Rng.int rng 4 with
            | 0 -> [ I.LitInt (Js_util.Rng.int rng 5); I.StoreLoc (Js_util.Rng.int rng n_locals) ]
            | 1 -> [ I.LitFloat 1.5; I.StoreLoc (Js_util.Rng.int rng n_locals) ]
            | 2 -> [ I.LitInt 7; I.Pop ]
            | _ -> [ I.Nop; I.Nop ]
          in
          let target = 4 * Js_util.Rng.int rng n_segs in
          let term =
            match Js_util.Rng.int rng 3 with
            | 0 -> [ I.Nop; I.Jmp target ]
            | 1 -> [ I.LitBool (Js_util.Rng.int rng 2 = 0); I.JmpZ target ]
            | _ -> [ I.LoadLoc (Js_util.Rng.int rng n_locals); I.JmpNZ target ]
          in
          payload @ term
        end
      in
      let body = Array.of_list (List.concat (List.init n_segs seg)) in
      let b = Hhbc.Repo.Builder.create () in
      let fid =
        Hhbc.Repo.Builder.add_func b
          { Hhbc.Func.id = 0; name = "p"; unit_id = 0; class_id = None; n_params = 0; n_locals;
            body }
      in
      ignore
        (Hhbc.Repo.Builder.add_unit b
           { Hhbc.Unit_def.id = 0; path = "p.mh"; funcs = [| fid |]; classes = [||];
             main = Some fid; load_cost_bytes = 0 });
      let repo = Hhbc.Repo.Builder.finish b in
      let f = Hhbc.Repo.func repo fid in
      let s = Js_analysis.Dataflow.analyze repo f in
      let bound =
        Js_analysis.Dataflow.typestate_bound
          ~n_blocks:(Array.length s.Js_analysis.Dataflow.blocks)
          ~body_len:(Array.length f.Hhbc.Func.body) ~n_locals
      in
      s.Js_analysis.Dataflow.converged && s.Js_analysis.Dataflow.iterations <= bound)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [ ( "binio",
        q [ prop_varint_roundtrip; prop_svarint_roundtrip; prop_string_roundtrip; prop_frame_roundtrip ]
      );
      ( "rng",
        q
          [ prop_rng_int_in_bounds; prop_rng_deterministic; prop_rng_split_draw_compatible;
            prop_rng_split_independent_streams; prop_rng_split_reproducible;
            prop_rng_sample_weighted_prefix
          ] );
      ("pqueue", q [ prop_pqueue_sorts ]);
      ( "layout",
        q
          [ prop_exttsp_permutation; prop_exttsp_score_nonneg; prop_pettis_hansen_permutation;
            prop_c3_permutation
          ] );
      ("machine", q [ prop_cache_misses_bounded; prop_bigger_cache_fewer_misses; prop_branch_counts ]);
      ("series", q [ prop_series_constant_integral ]);
      ( "vm invariants",
        q
          [ prop_probes_preserve_semantics; prop_reordered_layout_preserves_semantics;
            prop_counters_roundtrip; prop_pp_roundtrip_random_specs; prop_interp_deterministic;
            prop_inline_cache_transparent; prop_typed_translation_transparent;
            prop_dataflow_fixed_point; prop_compiler_output_verifies
          ] );
      ("reliability", q [ prop_all_corrupt_store_falls_back; prop_fleet_dist_partition ]);
      ("sim", q [ prop_push_sim_deterministic; prop_push_sim_dist_ladder ]);
      ( "region",
        q
          [ prop_epoch_barrier_equals_merged; prop_parallel_telemetry_merge_equals_shared;
            prop_quantile_region_merge
          ] )
    ]
