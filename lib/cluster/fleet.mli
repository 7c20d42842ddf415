(** Fleet-scale deployment simulation (paper §II-C, §VI).

    Models one region's worth of web servers partitioned into semantic
    buckets, going through a continuous-deployment push:

    - {b C2}: a few servers per (region, bucket) run as Jump-Start seeders,
      each independently collecting, validating and publishing its own
      package (§VI-A.2 "multiple, randomized profiles").  Fault injection
      can make a seeder produce a {e bad} package (a profile that triggers a
      JIT bug on consumers) or a {e thin} one (drained data center, §VI-B);
      seeder-side validation catches bad packages with a configurable
      probability, and the coverage gate rejects thin ones;
    - {b C3}: every server restarts as a consumer, picking a random package
      for its bucket.  A consumer that got a bad package crashes and
      restarts with a fresh random pick, so the number of affected servers
      decays exponentially with each round; after [max_boot_attempts] it
      falls back to no-Jump-Start (§VI-A.3).

    The simulation produces aggregate fleet throughput over time and the
    crash/fallback accounting used by the reliability benches. *)

type config = {
  n_servers : int;
  n_buckets : int;
  seeders_per_bucket : int;
  server : Server.config;
  validation_catch_rate : float;
      (** probability seeder self-validation catches a bad package *)
  verifier_catch_rate : float;
      (** probability the static verifier's package consistency pass catches
          a bad package, as an independent second gate (default 0.0 = off;
          when off the simulation consumes no extra randomness) *)
  max_boot_attempts : int;
  fallback_enabled : bool;
  max_seeder_retries : int;
  dist : Dist_net.config;
      (** the package-delivery network between seeders and consumers; the
          default (inactive) config is draw-identical to a direct pick.
          When a fetch ladder exhausts retries and cross-region fallback,
          the member boots without Jump-Start ([fetch_failed]); successful
          fetch delay is added to that member's boot span. *)
  home_region : int;
      (** which {!Dist_net} region this fleet's members fetch from (default
          0); multi-region simulations give each regional fleet its own. *)
}

val default_config : config

type stats = {
  packages_published : int;
  packages_rejected : int;
      (** caught by validation, the verifier, or the coverage gate *)
  verifier_rejects : int;
      (** subset of [packages_rejected] caught only by the static verifier *)
  bad_packages_published : int;
  crashes : (float * int) list;  (** (time, #servers crashed) per round *)
  fallbacks : int;
  jump_started : int;
  bucket_jump_started : int array;
      (** per-bucket count of first-attempt jump-started boots; sums to
          [jump_started] *)
  bucket_fallbacks : int array;
      (** per-bucket count of no-Jump-Start boots (all reasons); sums to
          [fallbacks] *)
  fleet_rps : Js_util.Stats.Series.t;  (** aggregate over the C3 window *)
  fleet_peak_rps : float;
  dist : Dist_net.counters option;
      (** distribution-network counters; [None] when the configured network
          is inactive (so legacy runs stay bit-identical) *)
}

(** The outcome of the C2 seeding phase: per-bucket published package lists
    (oldest-published first) plus gate accounting.  Exposed so external
    drivers — notably the discrete-event push simulator — can reuse the
    §VI-A/§VI-B seeding gates (fault injection, validation, coverage and
    verifier checks, retries) without running the macro C3 phase. *)
type seeding = {
  per_bucket : Server.package list array;
  published : int;
  rejected : int;
  seed_verifier_rejects : int;
  bad_published : int;
}

(** [run_seeders config app rng ~bad_package_rate ~thin_profile_rate] runs
    the C2 seeding phase alone.  Consumes draws from [rng] exactly as
    {!simulate_push} does for its seeding stage. *)
val run_seeders :
  config ->
  Workload.Macro_app.t ->
  Js_util.Rng.t ->
  bad_package_rate:float ->
  thin_profile_rate:float ->
  seeding

(** Why a member booted without Jump-Start. *)
type fallback =
  | No_package  (** its bucket has no published package *)
  | Fetch_failed  (** the fetch ladder gave up *)
  | Exhausted_attempts of int  (** it crashed on this many boot attempts *)

(** The [Fallback] telemetry reason for a fallback. *)
val fallback_reason : fallback -> string

(** The §VI-A boot decision for a member that already booted [attempts]
    times: fetch from [region] while attempts remain (or fallback is off),
    else boot without Jump-Start.  Returns the role, the fetch delay to add
    to the boot, and why a no-Jump-Start boot counts as a fallback. *)
val boot_role :
  telemetry:Js_telemetry.t option ->
  config ->
  Dist_net.t ->
  Js_util.Rng.t ->
  now:float ->
  region:int ->
  bucket:int ->
  attempts:int ->
  no_packages:bool ->
  Server.js_role * float * fallback option

(** [simulate_push config app ~seed ~bad_package_rate ~thin_profile_rate
    ~duration] runs C2 (seeding) then C3 (fleet restart) and simulates
    [duration] seconds of the C3 phase.

    [force_bad_per_bucket], when given, bypasses random fault injection and
    validation: each bucket gets exactly that many bad packages plus
    good ones up to [seeders_per_bucket] — the controlled setting for the
    §VI-A.2 blast-radius experiment.

    With [telemetry]: every member boot logs a [Boot_attempt] (and, for a
    no-Jump-Start boot, a [Fallback] with the reason) under source
    [server.<i>], records a [server.<i>.boot] span and a
    [fleet.boot_seconds] histogram sample; crashes log [Server_crashed] and
    bump [fleet.crashes]; the sink's clock tracks simulation time; at the
    end the gauges [fleet.fallback_rate], [fleet.jump_start_rate] and
    [fleet.crash_blast_radius] (max servers crashed in one restart round)
    summarize the push. *)
val simulate_push :
  ?telemetry:Js_telemetry.t ->
  config ->
  ?force_bad_per_bucket:int ->
  Workload.Macro_app.t ->
  seed:int ->
  bad_package_rate:float ->
  thin_profile_rate:float ->
  duration:float ->
  stats

val pp_stats : Format.formatter -> stats -> unit
