module R = Js_util.Rng
module Backoff = Js_util.Backoff

type network = {
  fetch_fail_rate : float;
  fetch_timeout : float;
  latency_mean : float;
  tail_prob : float;
  tail_alpha : float;
  stale_rate : float;
}

let default_network =
  { fetch_fail_rate = 0.; fetch_timeout = 0.; latency_mean = 0.; tail_prob = 0.; tail_alpha = 1.5;
    stale_rate = 0. }

type counters = {
  mutable attempts : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable stale_rejects : int;
  mutable cross_region_fetches : int;
  mutable deliveries : int;
  mutable empty_probes : int;
}

let fresh_counters () =
  { attempts = 0; failures = 0; timeouts = 0; stale_rejects = 0; cross_region_fetches = 0;
    deliveries = 0; empty_probes = 0 }

let add_counters ~into c =
  into.attempts <- into.attempts + c.attempts;
  into.failures <- into.failures + c.failures;
  into.timeouts <- into.timeouts + c.timeouts;
  into.stale_rejects <- into.stale_rejects + c.stale_rejects;
  into.cross_region_fetches <- into.cross_region_fetches + c.cross_region_fetches;
  into.deliveries <- into.deliveries + c.deliveries;
  into.empty_probes <- into.empty_probes + c.empty_probes

let counter_values c =
  [ c.attempts; c.failures; c.timeouts; c.stale_rejects; c.cross_region_fetches; c.deliveries;
    c.empty_probes ]

type ('d, 'r) probe = Nothing | Stale | Refused of 'r | Found of 'd
type ('d, 'r) verdict = Delivered of 'd | Rejected of 'r | Unavailable | No_package
type ('d, 'r) outcome = { verdict : ('d, 'r) verdict; delay : float; counters : counters }

let run ~telemetry net backoff rng ~home ~foreign ~retry_empty ~reachable ~probe =
  let tel f = Option.iter f telemetry in
  let c = fresh_counters () in
  let delay = ref 0. and saw_package = ref false in
  let fail () =
    c.failures <- c.failures + 1;
    tel (fun s -> Js_telemetry.incr s "dist.fetch_failures");
    `Retry
  in
  (* a package reached the fetcher: its latency counts, and a stale or
     refused one is a reject *)
  let arrived ~lat ~reject =
    saw_package := true;
    delay := !delay +. lat;
    if reject then begin
      c.stale_rejects <- c.stale_rejects + 1;
      tel (fun s -> Js_telemetry.incr s "dist.stale_rejects")
    end
  in
  (* One attempt against one region.  Randomness is consumed strictly in
     this order, each draw guarded by its rate. *)
  let attempt ~region ~cross =
    c.attempts <- c.attempts + 1;
    if cross then c.cross_region_fetches <- c.cross_region_fetches + 1;
    tel (fun s ->
        Js_telemetry.incr s "dist.fetch_attempts";
        if cross then Js_telemetry.incr s "dist.cross_region");
    if not (reachable ~region ~elapsed:!delay) then fail ()
    else if net.fetch_fail_rate > 0. && R.bool rng net.fetch_fail_rate then fail ()
    else
      let lat =
        if net.latency_mean <= 0. then 0.
        else if net.tail_prob > 0. && R.bool rng net.tail_prob then
          R.pareto rng ~alpha:net.tail_alpha ~x_min:net.latency_mean
        else R.exponential rng ~mean:net.latency_mean
      in
      if net.fetch_timeout > 0. && lat > net.fetch_timeout then begin
        c.timeouts <- c.timeouts + 1;
        delay := !delay +. net.fetch_timeout;
        tel (fun s -> Js_telemetry.incr s "dist.timeouts");
        `Retry
      end
      else
        match probe ~region ~elapsed:!delay with
        | Nothing ->
          c.empty_probes <- c.empty_probes + 1;
          `Empty
        | Stale ->
          arrived ~lat ~reject:true;
          `Retry
        | Refused r ->
          arrived ~lat ~reject:true;
          `Final (Rejected r)
        | Found d ->
          arrived ~lat ~reject:false;
          c.deliveries <- c.deliveries + 1;
          tel (fun s -> Js_telemetry.observe s ~lo:0. ~hi:120. ~buckets:24 "dist.fetch_seconds" lat);
          `Final (Delivered d)
  in
  (* bounded retries with backoff against the home region ... *)
  let rec home_attempts k =
    if k >= backoff.Backoff.max_attempts then `Exhausted
    else
      match attempt ~region:home ~cross:false with
      | `Final v -> `Final v
      | `Empty when not retry_empty -> `Exhausted
      | `Empty | `Retry ->
        if k + 1 < backoff.Backoff.max_attempts then begin
          delay := !delay +. Backoff.delay backoff rng ~attempt:k;
          home_attempts (k + 1)
        end
        else `Exhausted
  in
  (* ... then one attempt per foreign region *)
  let rec foreign_regions = function
    | [] -> `Exhausted
    | r :: rest -> (
      match attempt ~region:r ~cross:true with
      | `Final v -> `Final v
      | `Empty | `Retry -> foreign_regions rest)
  in
  let verdict =
    match home_attempts 0 with
    | `Final v -> v
    | `Exhausted -> (
      match foreign_regions foreign with
      | `Final v -> v
      | `Exhausted ->
        if (not !saw_package) && c.failures = 0 && c.timeouts = 0 then No_package
        else Unavailable)
  in
  { verdict; delay = !delay; counters = c }
