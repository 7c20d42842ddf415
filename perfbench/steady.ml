(* The Fig. 5 steady-state pipeline, step for step as
   [Cluster.Steady_state.run] executes it for [bench fig5], with spans
   around each call into a layer.  Three additions leave the simulated
   Fig. 5 statistics as they are: the replay records every request's result
   and simulated cycles; the Jump-Start consumer serves its cache-warming
   requests once more after the measured ones, on warm caches; and the
   cache-warming stream is the same for every seed. *)

module JS = Jumpstart
module H = Machine.Hierarchy
module SS = Cluster.Steady_state
module Req = Workload.Request

type replay = {
  snapshot : H.snapshot;  (** statistics of the measured requests only *)
  cycles_per_request : float;
  interp_steps : int;
  warm_cycles : float array;  (** per request, caches cold at the start *)
  req_cycles : float array;  (** per measured request *)
  rewarm_cycles : float array;
      (** the warming requests again after the measured ones, caches warm
          (Jump-Start variant only) *)
  results : Hhbc.Value.t array;  (** warm requests, then measured ones *)
}

type run = {
  package_bytes : string;  (** as the seeder published it *)
  js_vm : JS.Consumer.vm;
  js : replay;
  nojs : replay;
}

(* The Fig. 5 app and request counts, scaled down so that one pass of the
   pipeline takes about six seconds on one core while neither the two
   Ext-TSP boots nor the two replays fall under a quarter of it.  The app is
   the same for every seed; the seed draws the request streams. *)
let spec =
  { Workload.App_spec.default with
    Workload.App_spec.n_workers = 150;
    n_endpoints = 20;
    endpoint_loop = 5
  }

let config ~seed =
  {
    SS.spec;
    seed = 4 * seed;  (* streams seed+1 .. seed+4 stay disjoint across seeds *)
    profile_requests = 300;
    optimized_requests = 300;
    warm_requests = 120;
    measure_requests = 400;
  }

let requests tr (app : Workload.Codegen.app) ~seed ~n =
  Trace.span tr "workload.requests" (fun () ->
      let mix = Req.mix app ~region:0 ~bucket:0 in
      let rng = Js_util.Rng.create seed in
      Array.init n (fun _ -> Req.sample rng mix))

let drive tr name app reqs engine =
  Trace.span tr name (fun () -> Array.iter (fun r -> ignore (Req.invoke engine app r)) reqs)

(* Cache-warming requests after a boot and the measured ones.  The warming
   stream is the same for every seed, so the cold-start figures compare
   code layouts rather than request mixes. *)
let replay_requests tr app (cfg : SS.config) =
  ( requests tr app ~seed:3 ~n:cfg.SS.warm_requests,
    requests tr app ~seed:(cfg.SS.seed + 4) ~n:cfg.SS.measure_requests )

let setup () = Workload.Codegen.generate spec

let replay tr ~label ~rewarm (cfg : SS.config) app vm =
  let hier = Trace.span tr "machine.create" (fun () -> H.create H.default_config) in
  let sink =
    {
      Jit.Trace_adapter.fetch = (fun ~addr ~size -> H.fetch hier ~addr ~size);
      branch = (fun ~pc ~target ~taken -> H.branch hier ~pc ~target ~taken);
      load = (fun ~addr -> H.load hier ~addr);
      store = (fun ~addr -> H.store hier ~addr);
    }
  in
  let compiled = vm.JS.Consumer.compiled in
  let probes =
    Jit.Context.probes vm.JS.Consumer.repo
      ~lookup:(Jit.Compiler.lookup compiled)
      (Jit.Trace_adapter.handler ~cache:compiled.Jit.Compiler.cache sink)
  in
  let engine = JS.Consumer.serving_engine vm ~probes () in
  let warm, measured = replay_requests tr app cfg in
  let results = Array.make (Array.length warm + Array.length measured) Hhbc.Value.Null in
  let serve ?offset reqs =
    Array.mapi
      (fun i r ->
        let before = (H.snapshot hier).H.cycles in
        let v = Req.invoke engine app r in
        Option.iter (fun o -> results.(o + i) <- v) offset;
        (H.snapshot hier).H.cycles -. before)
      reqs
  in
  let warm_cycles = Trace.span tr ("machine.warm_" ^ label) (fun () -> serve ~offset:0 warm) in
  H.reset_stats hier;
  let steps_before = Interp.Engine.steps engine in
  let req_cycles =
    Trace.span tr ("machine.replay_" ^ label) (fun () ->
        serve ~offset:(Array.length warm) measured)
  in
  let snapshot = H.snapshot hier in
  let interp_steps = Interp.Engine.steps engine - steps_before in
  let rewarm_cycles =
    if rewarm then Trace.span tr ("machine.rewarm_" ^ label) (fun () -> serve warm) else [||]
  in
  {
    snapshot;
    cycles_per_request = snapshot.H.cycles /. float_of_int cfg.SS.measure_requests;
    interp_steps;
    warm_cycles;
    req_cycles;
    rewarm_cycles;
    results;
  }

let run tr ~seed app =
  let cfg = config ~seed in
  let repo = app.Workload.Codegen.repo in
  let tier1_reqs = requests tr app ~seed:(cfg.SS.seed + 1) ~n:cfg.SS.profile_requests in
  let vasm_reqs = requests tr app ~seed:(cfg.SS.seed + 2) ~n:cfg.SS.optimized_requests in
  let seeder_options = { JS.Options.default with JS.Options.validate_packages = false } in
  let outcome =
    Trace.span tr "core.seeder" (fun () ->
        JS.Seeder.run repo seeder_options
          ~profile_traffic:(drive tr "profile.tier1" app tier1_reqs)
          ~optimized_traffic:(drive tr "profile.vasm" app vasm_reqs)
          ~region:0 ~bucket:0 ~seeder_id:0 ())
  in
  let outcome = match outcome with Ok o -> o | Error msg -> failwith ("seeder failed: " ^ msg) in
  let package = outcome.JS.Seeder.package in
  (* [SS.fig5_variants] order: the no-Jump-Start baseline first *)
  let nojs_vm =
    Trace.span tr "core.boot_nojs" (fun () ->
        JS.Consumer.boot_without_jumpstart repo JS.Options.disabled
          ~traffic:(drive tr "profile.tier1_nojs" app tier1_reqs))
  in
  let nojs = replay tr ~label:"nojs" ~rewarm:false cfg app nojs_vm in
  let js_vm =
    match
      Trace.span tr "core.boot_js" (fun () ->
          JS.Consumer.boot_with_package repo JS.Options.default package)
    with
    | Ok vm -> vm
    | Error msg -> failwith ("consumer boot failed: " ^ msg)
  in
  let js = replay tr ~label:"js" ~rewarm:true cfg app js_vm in
  { package_bytes = outcome.JS.Seeder.bytes; js_vm; js; nojs }

(* Canonical rendering of every simulated statistic: equal digests mean a
   host-only change left the model's outputs untouched. *)
let digest r =
  let b = Buffer.create 1024 in
  List.iter
    (fun (label, (m : replay)) ->
      let s = m.snapshot in
      let cache name (c : Machine.Cache.stats) =
        Printf.bprintf b "%s.%s=%d/%d " label name c.Machine.Cache.misses c.Machine.Cache.accesses
      in
      Printf.bprintf b "%s.cycles=%h %s.instructions=%d %s.steps=%d " label s.H.cycles label
        s.H.instructions label m.interp_steps;
      cache "l1i" s.H.l1i_s;
      cache "l1d" s.H.l1d_s;
      cache "l2" s.H.l2_s;
      cache "llc" s.H.llc_s;
      cache "itlb" s.H.itlb_s;
      cache "dtlb" s.H.dtlb_s;
      Printf.bprintf b "%s.branch=%d/%d " label s.H.branch_s.Machine.Branch.mispredicts
        s.H.branch_s.Machine.Branch.branches;
      List.iter
        (Array.iter (fun c -> Printf.bprintf b "%h," c))
        [ m.warm_cycles; m.req_cycles; m.rewarm_cycles ])
    [ ("js", r.js); ("nojs", r.nojs) ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Output checks: the Jump-Start consumer's results against the reference
   interpreter path on the same requests, equal semantic work across the
   variants, and a package that survives an encode/decode round trip and
   the consistency checker.  Returns (attempted, failed, errors). *)
let check tr ~seed app r =
  let cfg = config ~seed in
  let repo = app.Workload.Codegen.repo in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let reference =
    Interp.Engine.create ~typed:false ~inline_cache:false repo (Mh_runtime.Heap.create repo layouts)
  in
  let reqs =
    let warm, measured = replay_requests tr app cfg in
    Array.append warm measured
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i req ->
      let expected = Req.invoke reference app req in
      if not (Hhbc.Value.equal expected r.js.results.(i)) then incr mismatches)
    reqs;
  if !mismatches > 0 then error "%d replayed results differ from the reference" !mismatches;
  if r.js.interp_steps <> r.nojs.interp_steps then
    error "interp steps differ across variants: %d vs %d" r.js.interp_steps r.nojs.interp_steps;
  (* round trip of the published bytes: the in-memory package is not used
     because a consumer boot adds entries to the package it is handed *)
  let decoded =
    Trace.span tr "core.package_decode" (fun () -> JS.Package.of_bytes repo r.package_bytes)
  in
  (match decoded with
  | Error msg -> error "package decode failed: %s" msg
  | Ok decoded ->
    let encoded = Trace.span tr "core.package_encode" (fun () -> JS.Package.to_bytes decoded) in
    if encoded <> r.package_bytes then error "package bytes changed in the round trip";
    (match Trace.span tr "core.package_check" (fun () -> JS.Package_check.result repo decoded) with
    | Ok () -> ()
    | Error msg -> error "package check failed: %s" msg));
  (* operations: every compared request plus the two consumer boots *)
  (Array.length reqs + 2, !mismatches, List.rev !errors)

type controls = {
  translations : int;
  code_bytes : int;
  replay_steps : int;
  replay_minor_words : float;
  replay_requests : int;
  fetches : int;
  loads : int;
  stores : int;
  branches : int;
}

(* Traced runs only: the JS boot's compile stages re-run on their own, and
   the JS replay re-run without probes and into a counting null sink, so the
   replay's host time splits into interpreter, trace adapter and machine
   model by subtraction. *)
let controls tr ~seed app r =
  let cfg = config ~seed in
  let vm = r.js_vm in
  let repo = vm.JS.Consumer.repo in
  (* the package as the boot received it (the boot has since added to it) *)
  let package =
    match JS.Package.of_bytes repo r.package_bytes with
    | Ok p -> p
    | Error msg -> failwith ("package decode failed: " ^ msg)
  in
  let counters = package.JS.Package.counters in
  let options = JS.Options.default in
  let jcfg = JS.Consumer.compile_config options in
  let measured = if options.JS.Options.bb_layout_opt then Some package.JS.Package.vasm else None in
  let order =
    if options.JS.Options.func_sort_opt then Some package.JS.Package.func_order else None
  in
  let finish name jcfg =
    let vfuncs = Trace.span tr "jit.lower" (fun () -> Jit.Compiler.lower_all repo counters jcfg) in
    ignore
      (Trace.span tr name (fun () ->
           Jit.Compiler.finish repo counters jcfg ~measured ?order vfuncs))
  in
  finish "jit.finish" jcfg;
  finish "jit.finish_source_order" { jcfg with Jit.Compiler.bb_layout = Jit.Compiler.Source_order };
  let reqs =
    let warm, measured = replay_requests tr app cfg in
    Array.append warm measured
  in
  let engine = JS.Consumer.serving_engine vm () in
  let words0 = Gc.minor_words () in
  drive tr "interp.replay" app reqs engine;
  let replay_minor_words = Gc.minor_words () -. words0 in
  let fetches = ref 0 and loads = ref 0 and stores = ref 0 and branches = ref 0 in
  let sink =
    {
      Jit.Trace_adapter.fetch = (fun ~addr:_ ~size:_ -> incr fetches);
      branch = (fun ~pc:_ ~target:_ ~taken:_ -> incr branches);
      load = (fun ~addr:_ -> incr loads);
      store = (fun ~addr:_ -> incr stores);
    }
  in
  let compiled = vm.JS.Consumer.compiled in
  let probes =
    Jit.Context.probes repo ~lookup:(Jit.Compiler.lookup compiled)
      (Jit.Trace_adapter.handler ~cache:compiled.Jit.Compiler.cache sink)
  in
  drive tr "jit.trace_null" app reqs (JS.Consumer.serving_engine vm ~probes ());
  {
    translations = compiled.Jit.Compiler.n_translations;
    code_bytes =
      Jit.Code_cache.used_hot compiled.Jit.Compiler.cache
      + Jit.Code_cache.used_cold compiled.Jit.Compiler.cache;
    replay_steps = Interp.Engine.steps engine;
    replay_minor_words;
    replay_requests = Array.length reqs;
    fetches = !fetches;
    loads = !loads;
    stores = !stores;
    branches = !branches;
  }
