(** Simulated distribution network in front of {!Store} (micro level).

    Wraps a {!Store} with the {!Fetch_ladder} delivery model so the consumer
    boot path exercises latency, transient failures, timeouts and stale
    profiles.  This layer's probe is a {!Store.pick_random} followed by a
    terminal {b staleness gate}: a delivered package is rejected, without
    retrying, when its {!Package.meta.repo_fingerprint} disagrees with the
    consumer's repo, when its age exceeds the TTL, or when the replica is
    forced stale by [stale_rate].  The reject feeds the consumer's
    [Validation_failed] retry machinery as stage [consumer.fetch].  An
    all-zero network consumes exactly the one selection draw {!Store}
    itself performs.

    With [telemetry], the ladder's [dist.*] counters are joined by the
    per-kind reject counter ([dist.fingerprint_mismatch] /
    [dist.ttl_expired] / [dist.stale_replica]), and the accumulated wait
    advances the clock under a [dist.fetch_wait] span. *)

(** {!Fetch_ladder.network}, its labels re-exported. *)
type network = Fetch_ladder.network = {
  fetch_fail_rate : float; fetch_timeout : float; latency_mean : float;
  tail_prob : float; tail_alpha : float; stale_rate : float;
}

(** All rates/latencies zero: a perfect, instantaneous network. *)
val default_network : network

type t

(** [create store] wraps [store].  [repo] enables the fingerprint gate
    (packages hashed against a different build are rejected);
    [ttl_seconds > 0] enables the TTL gate; [regions]/[cross_region]
    configure the fallback ladder ([regions] lists every region replicas
    live in, home first or not — the home region passed to {!fetch} is
    skipped). *)
val create :
  ?network:network ->
  ?backoff:Js_util.Backoff.config ->
  ?ttl_seconds:float ->
  ?cross_region:bool ->
  ?regions:int array ->
  ?repo:Hhbc.Repo.t ->
  Store.t ->
  t

(** Does this network model any fault or latency at all?  When [false], a
    fetch draws exactly as much randomness as {!Store.pick_random}. *)
val active : t -> bool

(** Why the staleness gate refused a delivered package.  Only
    [Fingerprint_mismatch] is salvageable: the payload is a well-formed
    package for a {e different build} of this application, which the
    stale-profile matcher can re-anchor; an expired or replica-served stale
    package is simply old data. *)
type reject_kind = Stale_replica | Fingerprint_mismatch | Ttl_expired

type fetch_result =
  | Delivered of { bytes : string; meta : Package.meta; region : int; delay : float }
      (** a usable package, after [delay] seconds of fetch latency/retries *)
  | Rejected of {
      kind : reject_kind;
      reason : string;
      bytes : string;  (** the delivered payload — kept for the salvage path *)
      meta : Package.meta;
      delay : float;
    }
      (** delivered but refused by the staleness gate — burns a consumer
          boot attempt (stage [consumer.fetch]) unless the consumer salvages
          a [Fingerprint_mismatch] via {!Package.of_bytes_stale} *)
  | Unavailable of { reason : string; delay : float }
      (** retries and cross-region fallback exhausted — the consumer
          degrades gracefully to a no-Jump-Start boot *)
  | No_package  (** no replica in any reachable region holds a package *)

(** [fetch t rng ~now ~region ~bucket] runs the full fetch ladder.  [now] is
    the consumer's boot time on the simulated clock (drives the TTL gate). *)
val fetch :
  ?telemetry:Js_telemetry.t ->
  t ->
  Js_util.Rng.t ->
  now:float ->
  region:int ->
  bucket:int ->
  fetch_result
