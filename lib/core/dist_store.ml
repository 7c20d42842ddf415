module R = Js_util.Rng
module Backoff = Js_util.Backoff
module L = Fetch_ladder

type network = L.network = {
  fetch_fail_rate : float; fetch_timeout : float; latency_mean : float;
  tail_prob : float; tail_alpha : float; stale_rate : float;
}

let default_network = L.default_network

type t = {
  store : Store.t;
  net : network;
  backoff : Backoff.config;
  ttl_seconds : float;
  regions : int array;
  cross_region : bool;
  expected_fingerprint : int option;
}

let create ?(network = default_network) ?(backoff = Backoff.default) ?(ttl_seconds = 0.)
    ?(cross_region = false) ?(regions = [| 0 |]) ?repo store =
  {
    store;
    net = network;
    backoff;
    ttl_seconds;
    regions;
    cross_region;
    (* O(bytecode), so hash the build once here rather than per fetch *)
    expected_fingerprint = Option.map Hhbc.Repo.fingerprint repo;
  }

let active t =
  t.net.fetch_fail_rate > 0. || t.net.fetch_timeout > 0. || t.net.latency_mean > 0.
  || t.net.stale_rate > 0.

type reject_kind = Stale_replica | Fingerprint_mismatch | Ttl_expired

(* Per-kind reject counters: the salvage path treats a fingerprint mismatch
   as recoverable (match the embedded shape against the live repo) while a
   forced-stale replica or TTL expiry stays terminal, so lumping them into
   one counter would hide exactly the split that matters. *)
let reject_counter = function
  | Stale_replica -> "dist.stale_replica"
  | Fingerprint_mismatch -> "dist.fingerprint_mismatch"
  | Ttl_expired -> "dist.ttl_expired"

type fetch_result =
  | Delivered of { bytes : string; meta : Package.meta; region : int; delay : float }
  | Rejected of {
      kind : reject_kind;
      reason : string;
      bytes : string;
      meta : Package.meta;
      delay : float;
    }
  | Unavailable of { reason : string; delay : float }
  | No_package

(* The staleness gate (§VII profile reuse): a delivered package is unusable —
   as opposed to unreachable — when it was built against a different repo or
   has outlived its TTL.  Gate verdicts are deterministic; [forced_stale]
   models a replica that still serves the previous release's package. *)
let gate t ~now ~forced_stale (meta : Package.meta) =
  if forced_stale then Error (Stale_replica, "stale replica: package from a previous release")
  else
    match t.expected_fingerprint with
    | Some fp when meta.Package.repo_fingerprint <> fp ->
      Error
        ( Fingerprint_mismatch,
          Printf.sprintf "repo fingerprint mismatch: package %x <> repo %x (stale release)"
            (meta.Package.repo_fingerprint land 0xffffff)
            (fp land 0xffffff) )
    | Some _ | None ->
      let age = now -. float_of_int meta.Package.published_at in
      if t.ttl_seconds > 0. && age > t.ttl_seconds then
        Error
          (Ttl_expired, Printf.sprintf "package expired: age %.0fs > ttl %.0fs" age t.ttl_seconds)
      else Ok ()

let fetch ?telemetry t rng ~now ~region:home ~bucket =
  let tel f = Option.iter f telemetry in
  (* A delivered package is final either way: the staleness gate's verdict
     is terminal and feeds the consumer's boot-attempt machinery. *)
  let probe ~region ~elapsed:_ =
    match Store.pick_random ?telemetry t.store rng ~region ~bucket with
    | None -> L.Nothing
    | Some (bytes, meta) -> (
      let forced_stale = t.net.stale_rate > 0. && R.bool rng t.net.stale_rate in
      match gate t ~now ~forced_stale meta with
      | Ok () -> L.Found (bytes, meta, region)
      | Error (kind, reason) ->
        tel (fun s -> Js_telemetry.incr s (reject_counter kind));
        L.Refused (kind, reason, bytes, meta))
  in
  let foreign =
    if t.cross_region then List.filter (fun r -> r <> home) (Array.to_list t.regions) else []
  in
  let o =
    (* the store's replica sets are static: an empty bucket stays empty *)
    L.run ~telemetry t.net t.backoff rng ~home ~foreign ~retry_empty:false
      ~reachable:(fun ~region:_ ~elapsed:_ -> true)
      ~probe
  in
  let delay = o.L.delay in
  tel (fun s ->
      if delay > 0. then begin
        let clock = Js_telemetry.clock s in
        Js_telemetry.add_span s "dist.fetch_wait" ~start:(Js_telemetry.Clock.now clock) ~dur:delay;
        Js_telemetry.Clock.advance clock delay
      end);
  match o.L.verdict with
  | L.Delivered (bytes, meta, region) -> Delivered { bytes; meta; region; delay }
  | L.Rejected (kind, reason, bytes, meta) -> Rejected { kind; reason; bytes; meta; delay }
  | L.No_package -> No_package
  | L.Unavailable ->
    let c = o.L.counters in
    let reason =
      Printf.sprintf "network unavailable after %d failures and %d timeouts" c.L.failures
        c.L.timeouts
    in
    Unavailable { reason; delay }
