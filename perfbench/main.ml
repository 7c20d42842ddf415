(* perfbench: the repository benchmark.

     main.exe --workload steady|fleet_push|fleet_global --seed N --seconds S --trace 0|1

   An untraced run (--trace 0) sets up the workload's app several times,
   repeats the timed phase for about S seconds, checks the outputs, and
   prints the end-to-end metrics.  A traced run (--trace 1) times a traced
   pass of the timed phase between two untraced ones, then the control runs
   that split host time by layer, and prints the per-layer metrics.  The
   last line of standard output is the result object; the line before it
   holds provenance and the digest of the simulated statistics, which are
   also written, with the spans, to .perfbench/ in the working directory. *)

let now = Trace.now
let clock_hz = Jit.Tiers.clock_hz

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value =
  if not (Trace.valid_name name) then invalid_arg ("invalid metric name: " ^ name);
  if not (Float.is_finite value) then failwith (Printf.sprintf "metric %s is not finite" name);
  { name; unit_; value }

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;
  digest : string;
  pass_s : float list;  (** host time of each pass of the timed phase *)
  metrics : metric list;
  spans : Trace.span list;
}

(* ------------------------------------------------------------ metrics -- *)

(* The process's peak resident set (VmHWM) so far. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
    |> Option.get
  with _ -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let end_to_end ~setup_s ~wall_s ~peak_rss_mb ~served_frac ~cycles ~speedup ~capacity_loss ~ttfc
    ~p50 ~p99 ~push_p99 =
  [ metric "setup_s" "s" setup_s;
    metric "wall_s" "s" wall_s;
    metric "peak_rss_mb" "MB" peak_rss_mb;
    metric "served_frac" "frac" served_frac;
    metric "cycles_per_request" "cycles" cycles;
    metric "js_speedup" "x" speedup;
    metric "capacity_loss" "req" capacity_loss;
    metric "ttfc_s" "s" ttfc;
    metric "latency_p50_ms" "ms" p50;
    metric "latency_p99_ms" "ms" p99;
    metric "push_latency_p99_ms" "ms" push_p99
  ]

(* Every traced run reports every per-layer metric; a layer the workload
   does not exercise reads 0. *)
let per_layer_catalog =
  [ ("jit.finish_s", "s"); ("jit.finish_source_order_s", "s"); ("jit.lower_s", "s");
    ("jit.translations", "count"); ("jit.code_bytes", "bytes"); ("jit.trace_s", "s");
    ("core.boot_js_s", "s"); ("core.boot_nojs_s", "s"); ("core.seeder_other_s", "s");
    ("core.package_bytes", "bytes"); ("core.package_encode_s", "s");
    ("core.package_decode_s", "s"); ("core.package_check_s", "s"); ("profile.tier1_s", "s");
    ("profile.vasm_s", "s"); ("interp.replay_s", "s"); ("interp.steps", "count");
    ("interp.steps_per_s", "1/s"); ("interp.minor_words_per_request", "words");
    ("machine.model_s", "s"); ("machine.fetches", "count"); ("machine.loads", "count");
    ("machine.stores", "count"); ("machine.branches", "count"); ("machine.l1i_miss_rate", "frac");
    ("machine.itlb_miss_rate", "frac"); ("machine.l1d_miss_rate", "frac");
    ("machine.dtlb_miss_rate", "frac"); ("machine.llc_miss_rate", "frac");
    ("machine.branch_mispredict_rate", "frac"); ("sim.balancer_s", "s");
    ("sim.control_events", "count"); ("sim.events", "count"); ("sim.events_per_s", "1/s");
    ("sim.minor_words_per_event", "words"); ("sim.epochs", "count"); ("sim.spilled", "count");
    ("sim.parallel2_s", "s"); ("sim.warmup_curve_s", "s"); ("telemetry.overhead_s", "s");
    ("cluster.dist_attempts", "count"); ("cluster.dist_delivery_ratio", "frac");
    ("gc.minor_words", "words"); ("gc.promoted_words", "words");
    ("gc.major_collections", "count"); ("trace.wall_s", "s"); ("trace.overhead_s", "s");
    ("trace.attributed_frac", "frac"); ("self.bench_s", "s"); ("self.workload_s", "s");
    ("self.profile_s", "s"); ("self.core_s", "s"); ("self.machine_s", "s"); ("self.sim_s", "s")
  ]

let per_layer values =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n per_layer_catalog) then failwith ("unlisted per-layer metric " ^ n))
    values;
  List.map
    (fun (n, u) -> metric n u (Option.value (List.assoc_opt n values) ~default:0.))
    per_layer_catalog

(* ------------------------------------------------------------- timing -- *)

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let median xs = Js_util.Stats.median (Array.of_list xs)

(* Set-up repeated [k] times; the median time and the last result. *)
let setup_median k f =
  let runs = List.init k (fun _ -> timed f) in
  (median (List.map fst runs), snd (List.hd (List.rev runs)))

(* Repeats [f] while another pass fits in [seconds] (at least twice), each
   after a full major collection.  Returns each pass's time and digest, and
   the last pass's result (earlier results are dropped, so that the peak
   resident set is that of one pass). *)
let repeat_for ~seconds ~digest f =
  let start = now () in
  let rec go acc =
    Gc.full_major ();
    let d, r = timed f in
    let acc = (d, digest r) :: acc in
    if List.length acc >= 2 && now () -. start +. d > seconds then (List.rev acc, r) else go acc
  in
  go []

type gc_delta = { minor : float; promoted : float; majors : int }

let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( {
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    },
    r )

let gc_metrics g =
  [ ("gc.minor_words", g.minor); ("gc.promoted_words", g.promoted);
    ("gc.major_collections", float_of_int g.majors) ]

(* The traced pass as span "bench.run", between two untraced passes (the
   first also warms the heap).  Returns the GC figures of the first
   untraced pass, the three pass times, the mean untraced time and the
   traced pass's result. *)
let traced_pass tr pass =
  let off = Trace.create ~enabled:false in
  Gc.full_major ();
  let gc, (before, _) = with_gc (fun () -> timed (fun () -> pass off)) in
  Gc.full_major ();
  let traced, r = timed (fun () -> Trace.span tr "bench.run" (fun () -> pass tr)) in
  Gc.full_major ();
  let after, _ = timed (fun () -> pass off) in
  (gc, [ before; traced; after ], (before +. after) /. 2., r)

(* Self time of the traced pass by layer; the layers sum to its duration. *)
let trace_metrics spans ~untraced_wall =
  let root = List.hd (Trace.find spans "bench.run") in
  let wall = Trace.duration root in
  let self = Trace.self_by_layer spans root in
  let attributed = List.fold_left (fun a (l, s) -> if l = "bench" then a else a +. s) 0. self in
  [ ("trace.wall_s", wall); ("trace.overhead_s", wall -. untraced_wall);
    ("trace.attributed_frac", attributed /. wall) ]
  @ List.map (fun (layer, s) -> ("self." ^ layer ^ "_s", s)) self

(* Duration of the first span with this name, 0 if there is none. *)
let first_span spans name =
  match Trace.find spans name with s :: _ -> Trace.duration s | [] -> 0.

let same_digests digests =
  match digests with
  | d :: rest when List.exists (( <> ) d) rest -> [ "simulated statistics differ across passes" ]
  | _ -> []

(* ------------------------------------------------------------- steady -- *)

let percentile xs p = Js_util.Stats.percentile xs p

(* p99, or for a short window the highest percentile with ten samples
   beyond it: p97.5 of the 400 measured requests, p91.7 of the 120 warming
   ones. *)
let tail xs =
  percentile xs (Float.min 99. (100. *. (1. -. (10. /. float_of_int (Array.length xs)))))

let ms_of_cycles c = c /. clock_hz *. 1000.

let steady ~seed ~seconds ~traced =
  let off = Trace.create ~enabled:false in
  if not traced then begin
    let setup_s, app = setup_median 15 Steady.setup in
    let passes, r =
      repeat_for ~seconds ~digest:Steady.digest (fun () -> Steady.run off ~seed app)
    in
    (* before the checks and the post-processing, which are not the program's *)
    let peak_rss_mb = peak_rss_mb () in
    let attempted, failed, errors = Steady.check off ~seed app r in
    let js = r.Steady.js in
    let cpr = js.Steady.cycles_per_request in
    let sum = Array.fold_left ( +. ) 0. in
    let warm_total = sum js.Steady.warm_cycles in
    let latencies = Array.map ms_of_cycles js.Steady.req_cycles in
    let digests = List.map snd passes in
    {
      attempted;
      failed;
      errors = same_digests digests @ errors;
      digest = List.hd digests;
      pass_s = List.map fst passes;
      metrics =
        end_to_end ~setup_s
          ~wall_s:(median (List.map fst passes))
          ~peak_rss_mb ~served_frac:(float_of_int (attempted - failed) /. float_of_int attempted)
          ~cycles:cpr
          ~speedup:(r.Steady.nojs.Steady.cycles_per_request /. cpr)
          ~capacity_loss:((warm_total -. sum js.Steady.rewarm_cycles) /. cpr)
          ~ttfc:(warm_total /. clock_hz) ~p50:(percentile latencies 50.) ~p99:(tail latencies)
          ~push_p99:(tail (Array.map ms_of_cycles js.Steady.warm_cycles));
      spans = [];
    }
  end
  else begin
    let app = Steady.setup () in
    let tr = Trace.create ~enabled:true in
    let gc, pass_s, untraced_wall, r = traced_pass tr (fun tr -> Steady.run tr ~seed app) in
    let ctl, (attempted, failed, errors) =
      Trace.span tr "bench.controls" (fun () ->
          let ctl = Steady.controls tr ~seed app r in
          (ctl, Steady.check tr ~seed app r))
    in
    let spans = Trace.spans tr in
    let first = first_span spans in
    let interp_s = first "interp.replay" and null_s = first "jit.trace_null" in
    let snap = r.Steady.js.Steady.snapshot in
    let rate = Machine.Cache.miss_rate in
    let seeder = List.hd (Trace.find spans "core.seeder") in
    let values =
      [ ("jit.finish_s", first "jit.finish");
        ("jit.finish_source_order_s", first "jit.finish_source_order");
        ("jit.lower_s", first "jit.lower");
        ("jit.translations", float_of_int ctl.Steady.translations);
        ("jit.code_bytes", float_of_int ctl.Steady.code_bytes);
        ("jit.trace_s", null_s -. interp_s);
        ("core.boot_js_s", first "core.boot_js");
        ("core.boot_nojs_s", first "core.boot_nojs");
        ("core.seeder_other_s", Trace.self_time spans seeder);
        ("core.package_bytes", float_of_int (String.length r.Steady.package_bytes));
        ("core.package_encode_s", first "core.package_encode");
        ("core.package_decode_s", first "core.package_decode");
        ("core.package_check_s", first "core.package_check");
        ("profile.tier1_s", first "profile.tier1");
        ("profile.vasm_s", first "profile.vasm");
        ("interp.replay_s", interp_s);
        ("interp.steps", float_of_int r.Steady.js.Steady.interp_steps);
        ("interp.steps_per_s", float_of_int ctl.Steady.replay_steps /. interp_s);
        ( "interp.minor_words_per_request",
          ctl.Steady.replay_minor_words /. float_of_int ctl.Steady.replay_requests );
        ("machine.model_s", first "machine.warm_js" +. first "machine.replay_js" -. null_s);
        ("machine.fetches", float_of_int ctl.Steady.fetches);
        ("machine.loads", float_of_int ctl.Steady.loads);
        ("machine.stores", float_of_int ctl.Steady.stores);
        ("machine.branches", float_of_int ctl.Steady.branches);
        ("machine.l1i_miss_rate", rate snap.Machine.Hierarchy.l1i_s);
        ("machine.itlb_miss_rate", rate snap.Machine.Hierarchy.itlb_s);
        ("machine.l1d_miss_rate", rate snap.Machine.Hierarchy.l1d_s);
        ("machine.dtlb_miss_rate", rate snap.Machine.Hierarchy.dtlb_s);
        ("machine.llc_miss_rate", rate snap.Machine.Hierarchy.llc_s);
        ( "machine.branch_mispredict_rate",
          Machine.Branch.mispredict_rate snap.Machine.Hierarchy.branch_s )
      ]
      @ gc_metrics gc @ trace_metrics spans ~untraced_wall
    in
    {
      attempted;
      failed;
      errors;
      digest = Steady.digest r;
      pass_s;
      metrics = per_layer values;
      spans;
    }
  end

(* -------------------------------------------------------------- fleet -- *)

let fleet kind ~seed ~seconds ~traced =
  let module R = Js_sim.Region in
  let off = Trace.create ~enabled:false in
  let served gs =
    let arrived = Fleet.arrived gs in
    float_of_int (arrived - Fleet.total_shed gs) /. float_of_int arrived
  in
  if not traced then begin
    let setup_s, app = setup_median 15 (fun () -> Fleet.setup ~seed) in
    let passes, gs =
      repeat_for ~seconds ~digest:Fleet.digest (fun () -> Fleet.run off kind app ~seed)
    in
    let peak_rss_mb = peak_rss_mb () in
    let digests = List.map snd passes in
    let all, push = Fleet.latencies_ms gs in
    let js =
      Fleet.warm_cycles_per_request app (Cluster.Server.Consumer (Fleet.consumer_package app))
    in
    let nojs = Fleet.warm_cycles_per_request app Cluster.Server.No_jumpstart in
    {
      (* an operation is a simulated request; shed requests are the modelled
         fleet's outcome and show in served_frac, not as benchmark failures *)
      attempted = Fleet.arrived gs;
      failed = 0;
      errors = same_digests digests @ Fleet.check gs;
      digest = List.hd digests;
      pass_s = List.map fst passes;
      metrics =
        end_to_end ~setup_s
          ~wall_s:(median (List.map fst passes))
          ~peak_rss_mb ~served_frac:(served gs) ~cycles:js ~speedup:(nojs /. js)
          ~capacity_loss:(Fleet.capacity_loss gs) ~ttfc:(Fleet.ttfc gs)
          ~p50:(percentile all 50.) ~p99:(percentile all 99.) ~push_p99:(percentile push 99.);
      spans = [];
    }
  end
  else begin
    let app = Fleet.setup ~seed in
    let tr = Trace.create ~enabled:true in
    let gc, pass_s, untraced_wall, gs = traced_pass tr (fun tr -> Fleet.run tr kind app ~seed) in
    let digest = Fleet.digest gs in
    let random, par, with_telemetry =
      Trace.span tr "bench.controls" (fun () ->
          let random =
            Fleet.run tr kind app ~seed ~policy:Js_sim.Balancer.Random ~name:"sim.random_control"
          in
          let domains = min 2 (Domain.recommended_domain_count ()) in
          let par = Fleet.run tr kind app ~seed ~mode:(`Parallel domains) ~name:"sim.parallel2" in
          let telemetry = Js_telemetry.create () in
          let with_telemetry = Fleet.run tr kind app ~seed ~telemetry ~name:"telemetry.run" in
          List.iter
            (fun role ->
              ignore
                (Trace.span tr "sim.warmup_curve" (fun () ->
                     Js_sim.Warmup_curve.build Fleet.server_cfg app role)))
            [ Cluster.Server.No_jumpstart; Cluster.Server.Consumer (Fleet.consumer_package app) ];
          (random, par, with_telemetry))
    in
    let errors =
      Fleet.check gs
      @ (if Fleet.digest par <> digest then [ "the parallel run's digest differs" ] else [])
      @
      if Fleet.digest with_telemetry <> digest then [ "a telemetry sink changed the digest" ]
      else []
    in
    let spans = Trace.spans tr in
    let first = first_span spans in
    let net = gs.R.g_net in
    let events = float_of_int gs.R.g_events in
    let values =
      [ ("sim.balancer_s", first "sim.run" -. first "sim.random_control");
        ("sim.control_events", float_of_int random.R.g_events);
        ("sim.events", events);
        ("sim.events_per_s", events /. untraced_wall);
        ("sim.minor_words_per_event", gc.minor /. events);
        ("sim.epochs", float_of_int gs.R.g_epochs);
        ("sim.spilled", float_of_int gs.R.g_spilled);
        ("sim.parallel2_s", first "sim.parallel2");
        ("sim.warmup_curve_s", Trace.total spans "sim.warmup_curve");
        ("telemetry.overhead_s", first "telemetry.run" -. untraced_wall);
        ("cluster.dist_attempts", float_of_int net.Cluster.Dist_net.attempts);
        ( "cluster.dist_delivery_ratio",
          if net.Cluster.Dist_net.attempts = 0 then 0.
          else
            float_of_int net.Cluster.Dist_net.deliveries
            /. float_of_int net.Cluster.Dist_net.attempts )
      ]
      @ gc_metrics gc @ trace_metrics spans ~untraced_wall
    in
    {
      attempted = Fleet.arrived gs;
      failed = 0;
      errors;
      digest;
      pass_s;
      metrics = per_layer values;
      spans;
    }
  end

(* --------------------------------------------------------- provenance -- *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with _ -> None

let commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
    let head = String.trim head in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
      match read_file (Filename.concat ".git" ref_) with
      | Some sha -> String.trim sha
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; r ] when r = ref_ -> Some sha
                 | _ -> None)
          |> Option.value ~default:"unknown"))
    | _ -> head)

(* md5 over the program's sources, identifying the code when the checkout
   carries no git metadata. *)
let source_md5 () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  let files =
    List.concat_map (fun d -> if Sys.file_exists d then walk d else []) [ "lib"; "perfbench" ]
  in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) files)))

let iso_date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* --------------------------------------------------------------- main -- *)

let json_float v = Printf.sprintf "%.17g" v

let result_json ~correct o =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    o.attempted o.failed (String.concat ", " metrics)

let workloads =
  [ ("steady", steady); ("fleet_push", fleet Fleet.Push); ("fleet_global", fleet Fleet.Global) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " steady | fleet_push | fleet_global");
      ("--seed", Arg.Set_int seed, " workload seed (inputs are generated from it)");
      ("--seconds", Arg.Set_float seconds, " how long to repeat the timed phase");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if !seconds <= 0. then (prerr_endline "--seconds must be positive"; exit 2);
  let traced = !trace = 1 in
  let o = run ~seed:!seed ~seconds:!seconds ~traced in
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) o.errors;
  let correct = o.errors = [] && o.failed = 0 in
  let provenance =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"traced\": %b, \"commit\": %S, \"source_md5\": %S, \
       \"date\": %S, \"ocaml\": %S, \"nproc\": %d, \"sim_digest\": %S, \"pass_s\": [%s]}"
      !workload !seed traced (commit ()) (source_md5 ()) (iso_date ()) Sys.ocaml_version
      (Domain.recommended_domain_count ()) o.digest
      (String.concat ", " (List.map json_float o.pass_s))
  in
  let result = result_json ~correct o in
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text
    (Filename.concat dir (Printf.sprintf "%s-seed%d-trace%d.json" !workload !seed !trace))
    (fun oc ->
      Printf.fprintf oc "{\"provenance\": %s, \"result\": %s, \"spans\": %s}\n" provenance result
        (Trace.to_json o.spans));
  print_endline provenance;
  print_endline result
