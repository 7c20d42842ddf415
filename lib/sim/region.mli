(** Multi-region discrete-event fleet simulation.

    Generalizes the single-region push simulator ({!Push} is now a thin
    wrapper over this module) to a global fleet: [n_regions] regional fleets,
    each with its own servers, balancer, RNG streams and phase-offset diurnal
    {!Arrival} curve, sharing one {!Cluster.Dist_net} (region [r] fetches
    from replica region [r]; region 0 is the seeder region that runs C2
    seeding and publishes).  Pushes roll region by region, [push_stagger]
    seconds apart — the global push train.

    {b Execution modes.}  [`Merged] runs every region on one shared engine —
    a plain single event queue, trivially correct.  [`Epoch] gives each
    region its own {!Engine} and advances them in lockstep to barriers
    [k * epoch] (regions in index order within an epoch).
    [`Parallel domains] keeps the same barriers but advances the regions
    between them on [domains] concurrent OCaml domains (round-robin region
    assignment, clamped to [\[1, n_regions\]]).  All three produce
    byte-identical {!global_digest}s for the same seed because:
    {ul
    {- every event belongs to exactly one region, and a region's events are
       dispatched in the same (time, insertion) order in every mode — the
       merged queue's per-region projection {e is} the regional queue;}
    {- cross-region interactions go through state that is either commutative
       (shared {!Cluster.Dist_net} counters, sharded per fetcher region),
       time-gated (replica visibility, disaster windows — pure functions of
       the simulated clock), or carried by spill events whose latency is
       validated [>= epoch], so they land strictly after the next barrier
       (in parallel mode they travel via per-(src, dst) mailboxes drained at
       the barrier in index order — fork/join edges are the only
       synchronization);}
    {- seeding happens in region 0's push event, which every mode orders
       before every logically-later fetch ([`Parallel] runs the push's whole
       epoch sequentially and pre-warms the shared warmup-curve cache at
       that barrier, after which shared state is read-only).}}

    In parallel mode each region also gets a private telemetry shard (own
    clock — no cross-domain clock writes) merged into the caller's registry
    after the run: counters and histograms fold commutatively, so they match
    a sequential shared-registry run counter-for-counter.

    {b Arrival batching.}  When [batch] is on (the default), a same-tick
    burst of pre-drawn arrivals is coalesced: an arrival whose successor is
    inside the current run horizon and strictly earlier than every queued
    event dispatches it inline instead of round-tripping the heap
    ({!Engine.step_to} keeps clock/dispatch accounting identical), which
    preserves the (time, insertion) order — and therefore digests — exactly.

    {b Spillover.}  When a region has no accepting servers — or its accepting
    fraction drops below [spill_threshold] — the marginal share of its
    arrivals is forwarded to an up foreign region (round-robin, rng-free),
    arriving [spill_latency] seconds later and counted in
    [spilled_out]/[spilled_in].

    {b Disasters.}  {!Region_loss} takes a whole region down mid-run (all
    servers drained, pending restarts cancelled, zero crashes — generation
    bumps invalidate in-flight events — and its load spills cross-region);
    {!Dist_partition} cuts a region's consumers off from the distribution
    network for a window; {!Seeder_outage} takes the seeder region's replica
    store down, forcing its consumers onto cross-region Jump-Start fetches.
    All are schedules fixed before the run — reachability is a pure function
    of time, part of the determinism argument above. *)

(** Identical to the historical [Push.config]; [fleet.n_servers] is {e per
    region}. *)
type config = {
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
      (** [Some k]: seed every bucket with exactly [k] bad packages plus
          good ones up to [seeders_per_bucket], skipping fault injection and
          the seeding gates ({!Cluster.Fleet.forced_seeding}); [None] (the
          default) runs {!Cluster.Fleet.run_seeders}. *)
  duration : float;
  curve_horizon : float;
  tick : float;
  record_latency : bool;
      (** record per-server (time, latency) samples into
          [stats.server_latency].  Off by default; turning it on draws no RNG
          and changes no digest — it only spends memory. *)
}

val default_config : config

type disaster =
  | Region_loss of { region : int; at : float }
      (** the whole region goes dark at [at] *)
  | Dist_partition of { region : int; at : float; duration : float }
      (** the region's fetchers are cut off during [\[at, at+duration)] *)
  | Seeder_outage of { at : float }
      (** region 0's replica store is unreachable from [at] on *)

type global_config = {
  base : config;  (** per-region configuration *)
  n_regions : int;
  region_phase : float;  (** seconds of diurnal phase offset per region *)
  push_stagger : float;  (** seconds between consecutive regions' pushes *)
  spillover : bool;  (** enable cross-region spillover routing *)
  spill_latency : float;  (** cross-region forwarding latency; >= [epoch] *)
  spill_threshold : float;
      (** accepting fraction below which marginal arrivals spill, in (0,1] *)
  epoch : float;  (** barrier interval for [`Epoch]/[`Parallel] modes, s *)
  disasters : disaster list;
  batch : bool;  (** coalesce same-burst arrivals (digest-neutral); on by default *)
}

(** 1 region, no spillover, 30 s epochs, 60 s spill latency, no disasters,
    batching on. *)
val default_global_config : global_config

(** Per-region results — the historical [Push.stats] plus [region],
    [spilled_out]/[spilled_in] and [lost].  Seeding fields
    ([packages_*], [dist]) are populated on region 0 (the seeder region)
    and zero/[None] elsewhere. *)
type stats = {
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
  spilled_out : int;  (** arrivals this region forwarded cross-region *)
  spilled_in : int;  (** spilled arrivals received from other regions *)
  bucket_jump_started : int array;
  bucket_fallbacks : int array;
  packages_published : int;
  packages_rejected : int;
  bad_packages_published : int;
  aborted : bool;
  lost : bool;  (** a {!Region_loss} fired for this region *)
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
      (** per-server (completion time, latency) sample streams, indexed by
          server; length [fleet.n_servers] when [config.record_latency] was
          set and [| |] otherwise.  Excluded from {!digest}. *)
  events_dispatched : int;
  dist : Cluster.Dist_net.counters option;
}

type global_stats = {
  g_mode : string;
      (** "epoch", "merged" or "parallel"; excluded from {!global_digest} *)
  g_regions : stats array;
  g_latency : Js_util.Stats.Quantile.t;  (** all regions merged *)
  g_latency_push : Js_util.Stats.Quantile.t;
  g_epochs : int;  (** barriers executed (1 in merged mode) *)
  g_events : int;  (** events dispatched across all regions *)
  g_spilled : int;  (** total cross-region spills *)
  g_net : Cluster.Dist_net.counters;  (** the shared network's counters *)
}

(** [validate gcfg] checks every field {!run_global} relies on, including
    the per-region fleet size and bucket count and the arrival curve.
    @raise Invalid_argument naming the first invalid field. *)
val validate : global_config -> unit

(** [run_global ?telemetry ?mode gcfg app ~seed] — deterministic: same
    inputs produce identical {!global_digest}s across [`Epoch] (the
    default), [`Merged] and [`Parallel domains] (see above; the domain count
    is clamped to [\[1, n_regions\]], so [`Parallel 1] is an exact
    sequential replay of the barrier schedule).  With [n_regions > 1] the
    dist-net config is widened to cover every region with [cross_region]
    forced on.  @raise Invalid_argument as {!validate}, before any work. *)
val run_global :
  ?telemetry:Js_telemetry.t ->
  ?mode:[ `Epoch | `Merged | `Parallel of int ] ->
  global_config ->
  Workload.Macro_app.t ->
  seed:int ->
  global_stats

(** Single-region convenience: [run cfg app ~seed] is
    [run_global { default_global_config with base = cfg }] on the shared
    engine, returning region 0's stats — the historical [Push.run]. *)
val run : ?telemetry:Js_telemetry.t -> config -> Workload.Macro_app.t -> seed:int -> stats

(** Full-precision canonical rendering of every per-region stats field. *)
val digest : stats -> string

(** Canonical rendering of a whole global run: every region's {!digest} plus
    merged quantiles, totals and the shared network counters.  Excludes
    [g_mode]/[g_epochs] so epoch and merged runs of the same seed are
    byte-identical. *)
val global_digest : global_stats -> string

val pp_stats : Format.formatter -> stats -> unit
val pp_global_stats : Format.formatter -> global_stats -> unit
