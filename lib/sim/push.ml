(* Single-region facade over {!Region}: the historical Push API, now backed
   by the multi-region machinery (one region, merged engine). *)

type config = Region.config = {
  fleet : Cluster.Fleet.config;
  warm_rps : float;
  concurrency : int;
  queue_capacity : int;
  request_timeout : float;
  arrival : Arrival.config;
  policy : Balancer.policy;
  jumpstart : bool;
  push_at : float;
  drain_cap : int;
  abort_window : float;
  abort_threshold : int;
  bad_package_rate : float;
  thin_profile_rate : float;
  force_bad_per_bucket : int option;
  duration : float;
  curve_horizon : float;
  tick : float;
  record_latency : bool;
}

let default_config = Region.default_config

type stats = Region.stats = {
  region : int;
  policy : Balancer.policy;
  jumpstart : bool;
  arrived : int;
  completed : int;
  shed_queue_full : int;
  shed_timeout : int;
  shed_no_server : int;
  shed_drain : int;
  crashes : int;
  jump_started : int;
  fallbacks : int;
  spilled_out : int;
  spilled_in : int;
  bucket_jump_started : int array;
  bucket_fallbacks : int array;
  packages_published : int;
  packages_rejected : int;
  bad_packages_published : int;
  aborted : bool;
  lost : bool;
  push_started : float;
  push_done : float;
  time_to_full_capacity : float;
  capacity_loss_integral : float;
  fleet_warm_rps : float;
  latency : Js_util.Stats.Quantile.t;
  latency_push : Js_util.Stats.Quantile.t;
  capacity_series : Js_util.Stats.Series.t;
  served_series : Js_util.Stats.Series.t;
  server_latency : Js_util.Stats.Series.t array;
  events_dispatched : int;
  dist : Cluster.Dist_net.counters option;
}

let run = Region.run
let digest = Region.digest
let pp_stats = Region.pp_stats
