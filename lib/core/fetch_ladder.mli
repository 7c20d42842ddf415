(** The package-fetch ladder (paper §VI-A), written once for both
    distribution layers ({!Dist_store}, [Cluster.Dist_net]).

    Bounded retries with backoff ({!Js_util.Backoff}) against the home
    region, then one attempt per foreign region, then give up; the caller
    boots without Jump-Start.  Each attempt draws a transient failure, then
    a latency (exponential body, optional Pareto tail) checked against the
    timeout, and only then asks the layer's probe what the region holds.
    Every draw is guarded by its rate, so an all-zero network consumes only
    the probe's draws.

    With [telemetry]: [dist.fetch_attempts] (foreign ones also
    [dist.cross_region]), [dist.fetch_failures], [dist.timeouts],
    [dist.stale_rejects], and each delivery's latency in the
    [dist.fetch_seconds] histogram. *)

type network = {
  fetch_fail_rate : float;  (** probability one attempt fails outright *)
  fetch_timeout : float;  (** per-attempt timeout in seconds; 0 = none *)
  latency_mean : float;  (** mean fetch latency; 0 = instantaneous *)
  tail_prob : float;  (** probability a latency sample comes from the tail *)
  tail_alpha : float;  (** Pareto shape of the latency tail *)
  stale_rate : float;  (** probability a replica serves a stale package *)
}

(** All rates/latencies zero: a perfect, instantaneous network. *)
val default_network : network

(** Invariant: [attempts = deliveries + failures + timeouts + stale_rejects
    + empty_probes]. *)
type counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;  (** stale retries and refusals *)
  mutable cross_region_fetches : int;  (** subset of [attempts] *)
  mutable deliveries : int;
  mutable empty_probes : int;  (** attempts that found no visible replica *)
}

val fresh_counters : unit -> counters
val add_counters : into:counters -> counters -> unit

(** The fields in declaration order, for digests. *)
val counter_values : counters -> int list

(** What an attempt that got through the network found. *)
type ('d, 'r) probe =
  | Nothing  (** no visible replica *)
  | Stale  (** an unusable package; the ladder retries *)
  | Refused of 'r  (** an unusable package; the ladder ends *)
  | Found of 'd

type ('d, 'r) verdict =
  | Delivered of 'd
  | Rejected of 'r
  | Unavailable  (** gave up after a failure or timeout *)
  | No_package  (** nothing failed and no package was ever seen *)

(** [delay] sums latencies, timeouts and backoff; [counters] covers this
    fetch only. *)
type ('d, 'r) outcome = { verdict : ('d, 'r) verdict; delay : float; counters : counters }

(** One fetch.  [reachable] is checked before any draw; [false] fails the
    attempt (a disaster window).  [elapsed] is the time already spent in
    this fetch.  An empty home region is retried only when [retry_empty]. *)
val run :
  telemetry:Js_telemetry.t option ->
  network ->
  Js_util.Backoff.config ->
  Js_util.Rng.t ->
  home:int ->
  foreign:int list ->
  retry_empty:bool ->
  reachable:(region:int -> elapsed:float -> bool) ->
  probe:(region:int -> elapsed:float -> ('d, 'r) probe) ->
  ('d, 'r) outcome
