(** Simulated package-delivery network for the fleet simulation (macro
    level; the micro level is {!Jumpstart.Dist_store}).

    Per-(region, bucket) replica sets of {!Server.package}s between C2
    seeders and C3 consumers, fetched through {!Jumpstart.Fetch_ladder}.
    This layer's probe adds disaster windows (checked before any draw),
    replica visibility at [now + elapsed] under publish latency, stale
    replicas that retry rather than end the ladder, and retrying an empty
    bucket while a publish propagates.  A ladder that gives up returns
    {!Unavailable}; the fleet boots that server without Jump-Start.

    {b RNG neutrality}: with the {!default_config} (all rates and latencies
    zero, one region, cross-region off), {!active} is [false] and a fetch
    consumes exactly one draw per successful pick — byte-identical to the
    historical direct-pick behaviour — and emits no [dist.*] telemetry. *)

type config = {
  regions : int;  (** replica regions; region 0 is the fleet's home *)
  fetch_fail_rate : float;  (** probability one fetch attempt fails *)
  fetch_timeout : float;  (** per-attempt timeout in seconds; 0 = none *)
  fetch_latency_mean : float;  (** mean fetch latency; 0 = instantaneous *)
  tail_prob : float;  (** probability a latency sample is tail-distributed *)
  tail_alpha : float;  (** Pareto shape of the latency tail *)
  stale_rate : float;  (** probability a replica serves a stale package *)
  cross_region : bool;  (** enable the cross-region fallback fetch *)
  backoff : Js_util.Backoff.config;  (** retry schedule per boot fetch *)
  publish_latency_mean : float;
      (** mean replication delay from publish to fetchability; 0 = instant *)
}

val default_config : config

(** Does this config change behaviour at all vs. a direct store pick? *)
val active : config -> bool

(** The ladder's counters, updated only when {!active}.  One shard per
    fetcher {e home} region, and [fetch ~region:home] touches only that
    shard: the single-writer discipline the parallel simulator relies on.
    {!counters} sums the shards into a fresh snapshot, so totals do not
    depend on region execution order. *)
type counters = Jumpstart.Fetch_ladder.counters = {
  mutable attempts : int; mutable failures : int; mutable timeouts : int;
  mutable stale_rejects : int; mutable cross_region_fetches : int;
  mutable deliveries : int; mutable empty_probes : int;
}

type t

val create : config -> t

(** Snapshot of the summed per-region counter shards (see {!type-counters}). *)
val counters : t -> counters
val config : t -> config

(** {2 Disaster schedules}

    Fault windows are fixed before the run starts and reachability is a pure
    function of simulation time — never of event-processing order — so
    epoch-barrier and merged multi-region simulations stay byte-identical.
    Setting any window activates the full fetch ladder (and its counters)
    even under an otherwise-inactive config. *)

(** [set_region_down t ~region ~from_] makes [region]'s replica store
    unreachable from time [from_] on: publishes skip it and fetch attempts
    against it fail, forcing its consumers onto the cross-region fallback
    (the seeder-outage scenario when [region] is the seeder's). *)
val set_region_down : t -> region:int -> from_:float -> unit

(** [set_region_partition t ~region ~from_ ~until] cuts [region]'s consumers
    off from the whole network during [\[from_, until)]: every attempt they
    make (home or cross-region) fails — the dist-net-partition-during-publish
    scenario. *)
val set_region_partition : t -> region:int -> from_:float -> until:float -> unit

(** [publish t rng ~now ~bucket pkg] replicates [pkg] into every region
    whose store is reachable at [now];
    with publish latency, each region's copy becomes fetchable after an
    independent exponential delay (no randomness is consumed otherwise). *)
val publish : t -> Js_util.Rng.t -> now:float -> bucket:int -> Server.package -> unit

type outcome =
  | Delivered of Server.package * float  (** package + total fetch delay *)
  | Unavailable of float  (** ladder exhausted; seconds wasted waiting *)
  | Not_found  (** no reachable region holds a visible replica *)

(** [fetch t rng ~now ~region ~bucket] — one consumer's package fetch at
    simulation time [now].  With [telemetry] and an {!active} config it
    emits the ladder's [dist.*] telemetry. *)
val fetch :
  ?telemetry:Js_telemetry.t ->
  t ->
  Js_util.Rng.t ->
  now:float ->
  region:int ->
  bucket:int ->
  outcome

val pp_counters : Format.formatter -> counters -> unit
