(** Discrete-event simulation of a staged rolling deployment ("push") over a
    warm fleet — the tool behind the capacity-loss comparisons of paper
    Fig. 1 and the §VI guardrails, at request granularity.

    The model: an open-loop Poisson stream ({!Arrival}) is routed by a
    pluggable load balancer ({!Balancer}) over a fleet of queueing servers.
    Each server has [concurrency] worker slots, a bounded FIFO run queue
    with timeout-based shedding, and a per-request service time of
    [concurrency / warm_rps * demand * multiplier], where [demand] is
    lognormal with unit mean matched to the workload's per-request
    instruction variance and [multiplier] follows the server's warmup state
    through a {!Warmup_curve} keyed by requests served — so a freshly
    restarted server is slow exactly as long as the macro model says it
    should be, and recovers faster when it boots as a Jump-Start consumer.

    At [push_at] the push orchestrator runs the C2 seeding gates
    ({!Cluster.Fleet.run_seeders}: fault injection, validation, coverage and
    verifier checks), publishes the surviving packages through the
    distribution network ({!Cluster.Dist_net}), and rolls the fleet in
    batches of at most [drain_cap] concurrently drained servers.  Restarted
    consumers fetch through the network's retry/fallback ladder; bad
    packages crash their consumers after [crash_delay_seconds] and the
    §VI-A crash-spike guardrail aborts the remaining rollout when
    [abort_threshold] crashes land within [abort_window] seconds.

    This module is the single-region facade over {!Region}, which runs the
    same machinery across a multi-region global fleet (phase-offset arrival
    curves, staggered push trains, cross-region spillover, disasters); the
    [config]/[stats] types are shared with it. *)

type config = Region.config = {
  fleet : Cluster.Fleet.config;
      (** servers, buckets, seeding gates, boot-attempt ladder and the
          distribution network all come from the macro fleet config *)
  warm_rps : float;  (** steady-state capacity of one warm server *)
  concurrency : int;  (** worker slots per server *)
  queue_capacity : int;  (** run-queue bound; overflow is shed *)
  request_timeout : float;  (** queued longer than this is shed at dequeue *)
  arrival : Arrival.config;  (** offered fleet load *)
  policy : Balancer.policy;
  jumpstart : bool;
      (** [false]: the push restarts every server without packages (no
          seeding, no publication) — the no-Jump-Start baseline *)
  push_at : float;  (** when the rolling push starts, seconds *)
  drain_cap : int;  (** max servers concurrently drained/booting *)
  abort_window : float;  (** guardrail: crash-spike window, seconds *)
  abort_threshold : int;  (** crashes within the window that abort *)
  bad_package_rate : float;  (** seeder fault injection (§VI-A) *)
  thin_profile_rate : float;  (** drained-seeder injection (§VI-B) *)
  force_bad_per_bucket : int option;
      (** [Some k]: every bucket gets exactly [k] bad packages and no seeding
          gate runs (the §VI-A.2 blast-radius setting); default [None] *)
  duration : float;  (** total simulated seconds *)
  curve_horizon : float;  (** reference-run length for warmup curves *)
  tick : float;  (** capacity/served sampling period *)
  record_latency : bool;
      (** record per-server (time, latency) samples into
          [stats.server_latency]; digest-neutral, off by default *)
}

(** 24 servers x 50 rps at 70% utilization, warmup-aware routing, push at
    120 s, 900 s horizon. *)
val default_config : config

(** Single-region runs have [region = 0], [spilled_out = spilled_in = 0] and
    [lost = false]; see {!Region.stats} for the field-by-field story. *)
type stats = Region.stats = {
  region : int;
  policy : Balancer.policy;
  jumpstart : bool;
  arrived : int;
  completed : int;
  shed_queue_full : int;
  shed_timeout : int;
  shed_no_server : int;
  shed_drain : int;  (** lost to server drains (queued + in-flight) *)
  crashes : int;
  jump_started : int;  (** first-attempt consumer boots *)
  fallbacks : int;  (** no-Jump-Start boots while Jump-Start was on *)
  spilled_out : int;
  spilled_in : int;
  bucket_jump_started : int array;
  bucket_fallbacks : int array;
  packages_published : int;
  packages_rejected : int;
  bad_packages_published : int;
  aborted : bool;  (** crash-spike guardrail fired *)
  lost : bool;
  push_started : float;  (** -1 if the push never started *)
  push_done : float;  (** all batches dispatched and booted; -1 if never *)
  time_to_full_capacity : float;
      (** seconds from push start until every server accepts and estimated
          fleet capacity is back to 95% of warm; -1 if never *)
  capacity_loss_integral : float;
      (** integral of max(0, warm - estimated capacity) over the push
          window, in requests (rps * seconds) — Fig. 1's area above the
          curve, un-normalized *)
  fleet_warm_rps : float;
  latency : Js_util.Stats.Quantile.t;  (** whole run, all servers merged *)
  latency_push : Js_util.Stats.Quantile.t;
      (** completions between push start and capacity recovery *)
  capacity_series : Js_util.Stats.Series.t;  (** estimated capacity per tick *)
  served_series : Js_util.Stats.Series.t;  (** completion rate per tick *)
  server_latency : Js_util.Stats.Series.t array;
      (** per-server (completion time, latency) streams; empty unless
          [record_latency] was set.  Excluded from {!digest}. *)
  events_dispatched : int;
  dist : Cluster.Dist_net.counters option;  (** [None] if network inactive *)
}

(** [run cfg app ~seed] — deterministic: same config, app and seed produce
    identical stats (see {!digest}).  With [telemetry]: [sim.*] counters,
    boot spans per restart, push start/abort marks; the sink's clock tracks
    simulation time.  @raise Invalid_argument on an empty fleet or bucket
    set, non-positive capacities, caps or a duration not past [push_at]
    (see {!Region.validate}). *)
val run : ?telemetry:Js_telemetry.t -> config -> Workload.Macro_app.t -> seed:int -> stats

(** Full-precision canonical rendering of every stats field (quantiles at
    p50/p95/p99, series lengths and integrals) — equal digests mean the runs
    were indistinguishable. *)
val digest : stats -> string

val pp_stats : Format.formatter -> stats -> unit
