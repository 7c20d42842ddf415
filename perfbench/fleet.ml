(* The two fleet-push workloads: the discrete-event simulator over the macro
   app, with the server and macro-app parameters of [push_sim]. *)

module S = Cluster.Server
module R = Js_sim.Region

type kind = Push | Global

let macro_params ~seed =
  { Workload.Macro_app.default_params with
    Workload.Macro_app.seed;
    n_funcs = 6_000;
    core_funcs = 600;
    instrs_per_request = 30.0e6
  }

let setup ~seed = Workload.Macro_app.generate (macro_params ~seed)

let server_cfg =
  { S.default_config with
    S.profile_request_target = 600;
    init_seconds_sequential = 30.;
    init_seconds_parallel = 12.;
    traffic_ramp_seconds = 90.;
    cold_decay_seconds = 40.
  }

let warm_rps = 50.

let base ~servers ~utilization ~policy ~duration ~dist =
  let fleet =
    { Cluster.Fleet.default_config with
      Cluster.Fleet.n_servers = servers;
      n_buckets = 4;
      seeders_per_bucket = 3;
      server = server_cfg;
      dist
    }
  in
  { R.default_config with
    R.fleet;
    warm_rps;
    concurrency = 8;
    queue_capacity = 64;
    request_timeout = 10.;
    arrival =
      { Js_sim.Arrival.base_rps = float_of_int servers *. warm_rps *. utilization;
        diurnal_amplitude = 0.;
        diurnal_period = 3600.;
        phase = 0.
      };
    policy;
    jumpstart = true;
    push_at = 120.;
    drain_cap = 4;
    duration;
    (* per-request samples for exact latency percentiles: the stats' own
       sketches round to 1%, which would read the same for every seed *)
    record_latency = true
  }

(* fleet_push: one region, the paper's warmup-aware routing at 0.7 of warm
   capacity.  A small fetch-failure rate keeps the distribution network's
   retry ladder in play.  Routing cost grows with fleet size, so 60 servers
   keep one simulation to a few seconds while routing still dominates. *)
let push_config =
  { R.default_global_config with
    R.base =
      base ~servers:60 ~utilization:0.7 ~policy:Js_sim.Balancer.Warmup_weighted ~duration:600.
        ~dist:{ Cluster.Dist_net.default_config with Cluster.Dist_net.fetch_fail_rate = 0.02 }
  }

(* fleet_global: three regions with O(1) random routing, push trains two
   minutes apart, spillover, and the last region lost while its push is
   under way.  Utilization 0.5 lets the two survivors absorb its load. *)
let global_config =
  { R.default_global_config with
    R.base =
      base ~servers:60 ~utilization:0.5 ~policy:Js_sim.Balancer.Random ~duration:700.
        ~dist:Cluster.Dist_net.default_config;
    n_regions = 3;
    push_stagger = 120.;
    spillover = true;
    disasters = [ R.Region_loss { region = 2; at = 420. } ]
  }

let config = function Push -> push_config | Global -> global_config

(* [Push.run] runs a single region on the merged engine; the global
   workload uses the default epoch mode. *)
let default_mode : kind -> [ `Epoch | `Merged | `Parallel of int ] = function
  | Push -> `Merged
  | Global -> `Epoch

let run ?telemetry ?mode ?policy ?(name = "sim.run") tr kind app ~seed =
  let gcfg = config kind in
  let gcfg =
    match policy with
    | None -> gcfg
    | Some p -> { gcfg with R.base = { gcfg.R.base with R.policy = p } }
  in
  let mode = Option.value mode ~default:(default_mode kind) in
  Trace.span tr name (fun () -> R.run_global ?telemetry ~mode gcfg app ~seed)

let digest gs = Digest.to_hex (Digest.string (R.global_digest gs))

let shed (s : R.stats) =
  s.R.shed_queue_full + s.R.shed_timeout + s.R.shed_no_server + s.R.shed_drain

let arrived gs = Array.fold_left (fun a s -> a + s.R.arrived) 0 gs.R.g_regions
let total_shed gs = Array.fold_left (fun a s -> a + shed s) 0 gs.R.g_regions

(* Request conservation in every region (spilled requests leave one region
   and arrive at another; the rest may still be in flight at the end), and
   the distribution network's ladder invariant. *)
let check gs =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iter
    (fun (s : R.stats) ->
      if s.R.arrived + s.R.spilled_in < s.R.completed + shed s + s.R.spilled_out then
        error "region %d: arrived %d + spilled in %d < completed %d + shed %d + spilled out %d"
          s.R.region s.R.arrived s.R.spilled_in s.R.completed (shed s) s.R.spilled_out)
    gs.R.g_regions;
  let completed = Array.fold_left (fun a s -> a + s.R.completed) 0 gs.R.g_regions in
  if arrived gs < completed + total_shed gs then error "fleet: arrived < completed + shed";
  let n = gs.R.g_net in
  let open Cluster.Dist_net in
  if n.attempts <> n.deliveries + n.failures + n.timeouts + n.stale_rejects + n.empty_probes then
    error "dist ladder: attempts %d <> deliveries + failures + timeouts + stale + empty" n.attempts;
  Array.iter
    (fun (s : R.stats) ->
      if (not s.R.lost) && s.R.time_to_full_capacity < 0. then
        error "region %d never regained full capacity" s.R.region)
    gs.R.g_regions;
  List.rev !errors

let capacity_loss gs =
  Array.fold_left (fun a s -> a +. s.R.capacity_loss_integral) 0. gs.R.g_regions

let ttfc gs =
  Array.fold_left
    (fun a s -> if s.R.lost then a else Float.max a s.R.time_to_full_capacity)
    0. gs.R.g_regions

let consumer_package app =
  S.make_package server_cfg app ~coverage_target:server_cfg.S.profile_request_target ()

(* Simulated CPU cycles one warm server spends per request, from the macro
   server model the simulator's warmup curves are built from. *)
let warm_cycles_per_request app role =
  let s = S.create server_cfg app role in
  server_cfg.S.utilization_target *. float_of_int server_cfg.S.cores *. server_cfg.S.clock_hz
  /. S.peak_rps s

(* Request latencies in ms over the whole run, and over each region's push
   window (from push start until its capacity recovers, or the end of the
   run if it never does). *)
let latencies_ms gs =
  let all = ref [] and push = ref [] in
  Array.iter
    (fun (s : R.stats) ->
      let lo = s.R.push_started in
      let hi =
        if s.R.time_to_full_capacity >= 0. then lo +. s.R.time_to_full_capacity else infinity
      in
      Array.iter
        (fun series ->
          let samples = Js_util.Stats.Series.to_array series in
          all := Array.map (fun (_, l) -> l *. 1000.) samples :: !all;
          if lo >= 0. then
            push :=
              Array.of_seq
                (Seq.filter_map
                   (fun (t, l) -> if t >= lo && t < hi then Some (l *. 1000.) else None)
                   (Array.to_seq samples))
              :: !push)
        s.R.server_latency)
    gs.R.g_regions;
  (Array.concat !all, Array.concat !push)
