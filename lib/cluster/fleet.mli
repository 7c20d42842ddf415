(** Fleet configuration and the §VI reliability gates of a push (paper
    §II-C, §VI), shared by the discrete-event push simulator
    ([Js_sim.Push]/[Js_sim.Region]), which owns the fleet's timeline:

    - {b C2}: a few servers per (region, bucket) run as Jump-Start seeders,
      each independently collecting, validating and publishing its own
      package (§VI-A.2 "multiple, randomized profiles").  Fault injection
      can make a seeder produce a {e bad} package (a profile that triggers a
      JIT bug on consumers) or a {e thin} one (drained data center, §VI-B);
      seeder-side validation catches bad packages with a configurable
      probability, and the coverage gate rejects thin ones ({!run_seeders});
    - {b C3}: every restarting server picks a random package for its
      bucket.  A consumer that got a bad package crashes and restarts with a
      fresh random pick; after [max_boot_attempts] it falls back to
      no-Jump-Start (§VI-A.3) ({!boot_role}). *)

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
          the server boots without Jump-Start ([Fetch_failed]); successful
          fetch delay is added to that server's boot. *)
}

val default_config : config

(** The outcome of the C2 seeding phase: per-bucket published package lists
    (oldest-published first) plus gate accounting. *)
type seeding = {
  per_bucket : Server.package list array;
  published : int;
  rejected : int;
  seed_verifier_rejects : int;
  bad_published : int;
}

(** [run_seeders config app rng ~bad_package_rate ~thin_profile_rate] runs
    the C2 seeding phase: per seeder, fault injection, then the coverage,
    validation and verifier gates, retried up to [max_seeder_retries]. *)
val run_seeders :
  config ->
  Workload.Macro_app.t ->
  Js_util.Rng.t ->
  bad_package_rate:float ->
  thin_profile_rate:float ->
  seeding

(** [forced_seeding config app ~bad_per_bucket] bypasses fault injection
    and validation: each bucket gets exactly [min bad_per_bucket
    seeders_per_bucket] bad packages plus good ones up to
    [seeders_per_bucket] — the controlled setting for the §VI-A.2
    blast-radius experiment.  Draws no randomness. *)
val forced_seeding : config -> Workload.Macro_app.t -> bad_per_bucket:int -> seeding

(** Why a server booted without Jump-Start. *)
type fallback =
  | No_package  (** its bucket has no published package *)
  | Fetch_failed  (** the fetch ladder gave up *)
  | Exhausted_attempts of int  (** it crashed on this many boot attempts *)

(** The [Fallback] telemetry reason for a fallback. *)
val fallback_reason : fallback -> string

(** The §VI-A boot decision for a server that already booted [attempts]
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
