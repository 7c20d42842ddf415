module R = Js_util.Rng
module Backoff = Js_util.Backoff
module L = Jumpstart.Fetch_ladder

type config = {
  regions : int;
  fetch_fail_rate : float;
  fetch_timeout : float;
  fetch_latency_mean : float;
  tail_prob : float;
  tail_alpha : float;
  stale_rate : float;
  cross_region : bool;
  backoff : Backoff.config;
  publish_latency_mean : float;
}

let default_config =
  {
    regions = 1;
    fetch_fail_rate = 0.;
    fetch_timeout = 0.;
    fetch_latency_mean = 0.;
    tail_prob = 0.;
    tail_alpha = 1.5;
    stale_rate = 0.;
    cross_region = false;
    backoff = Backoff.default;
    publish_latency_mean = 0.;
  }

(* The neutrality switch: an inactive network (the default config) must make
   [fetch] consume exactly one RNG draw per successful pick and touch no
   dist.* telemetry, leaving every pre-existing seeded simulation
   byte-identical. *)
let active c =
  c.fetch_fail_rate > 0. || c.fetch_timeout > 0. || c.fetch_latency_mean > 0.
  || c.stale_rate > 0. || c.publish_latency_mean > 0. || c.cross_region || c.regions > 1

type counters = L.counters = {
  mutable attempts : int; mutable failures : int; mutable timeouts : int;
  mutable stale_rejects : int; mutable cross_region_fetches : int;
  mutable deliveries : int; mutable empty_probes : int;
}

(* One replica of a published package in one region, visible to fetches once
   replication (publish latency) has completed. *)
type replica = { pkg : Server.package; visible_from : float }

type t = {
  cfg : config;
  net : L.network;
  replicas : (int * int, replica list ref) Hashtbl.t;
  (* One counter shard per fetcher home region.  [fetch ~region:home] only
     touches [shards.(home)], so when the parallel simulator runs each region
     on its own domain every shard has a single writer and the fold in
     [counters] — pure integer addition, commutative — reconstructs the same
     totals a sequential run accumulates. *)
  shards : counters array;
  (* Disaster schedules, fixed before the run starts.  Reachability is a pure
     function of simulation time, never of run order, which is what keeps
     epoch-barrier and merged multi-region runs byte-identical. *)
  down_from : float array;  (* region's replica store unreachable from t on *)
  part_from : float array;  (* fetcher-side partition window per region ... *)
  part_until : float array;  (* ... all of a region's attempts fail inside it *)
  mutable has_faults : bool;
}

let create cfg =
  if cfg.regions < 1 then invalid_arg "Dist_net.create: regions < 1";
  {
    cfg;
    net =
      { L.fetch_fail_rate = cfg.fetch_fail_rate; fetch_timeout = cfg.fetch_timeout;
        latency_mean = cfg.fetch_latency_mean; tail_prob = cfg.tail_prob;
        tail_alpha = cfg.tail_alpha; stale_rate = cfg.stale_rate };
    replicas = Hashtbl.create 16;
    shards = Array.init cfg.regions (fun _ -> L.fresh_counters ());
    down_from = Array.make cfg.regions infinity;
    part_from = Array.make cfg.regions infinity;
    part_until = Array.make cfg.regions infinity;
    has_faults = false;
  }

let counters t =
  let acc = L.fresh_counters () in
  Array.iter (fun c -> L.add_counters ~into:acc c) t.shards;
  acc

let config t = t.cfg

let check_region t region name =
  if region < 0 || region >= t.cfg.regions then invalid_arg name

let set_region_down t ~region ~from_ =
  check_region t region "Dist_net.set_region_down";
  if Float.is_nan from_ then invalid_arg "Dist_net.set_region_down: NaN";
  t.down_from.(region) <- from_;
  t.has_faults <- true

let set_region_partition t ~region ~from_ ~until =
  check_region t region "Dist_net.set_region_partition";
  if Float.is_nan from_ || Float.is_nan until || until < from_ then
    invalid_arg "Dist_net.set_region_partition: bad window";
  t.part_from.(region) <- from_;
  t.part_until.(region) <- until;
  t.has_faults <- true

let region_down t ~region ~now = now >= t.down_from.(region)

let slot t ~region ~bucket =
  match Hashtbl.find_opt t.replicas (region, bucket) with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add t.replicas (region, bucket) l;
    l

(* Replicate into every region.  With publish latency, each region's copy
   becomes visible after an independent exponential replication delay (the
   home copy of a real store is near-instant; we keep the model uniform and
   cheap).  The latency draw is guarded so the default config publishes
   without consuming randomness. *)
let publish t rng ~now ~bucket pkg =
  for region = 0 to t.cfg.regions - 1 do
    (* Replication into a down region fails outright; its consumers must go
       cross-region.  Skipping the latency draw too keeps reachability a pure
       function of time. *)
    if not (region_down t ~region ~now) then begin
      let visible_from =
        if t.cfg.publish_latency_mean <= 0. then now
        else now +. R.exponential rng ~mean:t.cfg.publish_latency_mean
      in
      let l = slot t ~region ~bucket in
      l := { pkg; visible_from } :: !l
    end
  done

let bucket_replicas t ~region ~bucket =
  match Hashtbl.find_opt t.replicas (region, bucket) with
  | None -> []
  | Some l -> !l

type outcome =
  | Delivered of Server.package * float
  | Unavailable of float
  | Not_found

(* Uninhabited: the fleet's probe never refuses a package. *)
type never = |

(* The probe of the fleet's ladder.  Replication is visible only once
   [now + elapsed] passes a replica's [visible_from] (backing off while a
   push propagates lets late replicas appear), and a stale replica sends the
   ladder back for a fresh copy rather than ending it.  An inactive network
   draws only the pick, as the historical [Rng.pick rng (Array.of_list l)]
   did, and neither counts nor emits telemetry. *)
let fetch ?telemetry t rng ~now ~region:home ~bucket =
  check_region t home "Dist_net.fetch";
  let live = active t.cfg || t.has_faults in
  (* disaster windows: a down target store or a partitioned fetcher fails
     the attempt before any randomness is consumed *)
  let reachable ~region ~elapsed =
    let at = now +. elapsed in
    not (region_down t ~region ~now:at || (at >= t.part_from.(home) && at < t.part_until.(home)))
  in
  let probe ~region ~elapsed : (Server.package, never) L.probe =
    match
      List.filter (fun r -> r.visible_from <= now +. elapsed) (bucket_replicas t ~region ~bucket)
    with
    | [] -> L.Nothing
    | l ->
      let r = List.nth l (R.int rng (List.length l)) in
      if t.net.L.stale_rate > 0. && R.bool rng t.net.L.stale_rate then L.Stale else L.Found r.pkg
  in
  let foreign =
    if t.cfg.cross_region then List.filter (fun r -> r <> home) (List.init t.cfg.regions Fun.id)
    else []
  in
  let o =
    L.run
      ~telemetry:(if live then telemetry else None)
      t.net t.cfg.backoff rng ~home ~foreign ~retry_empty:(t.cfg.publish_latency_mean > 0.)
      ~reachable ~probe
  in
  if live then L.add_counters ~into:t.shards.(home) o.L.counters;
  match o.L.verdict with
  | L.Delivered pkg -> Delivered (pkg, o.L.delay)
  | L.Rejected (_ : never) -> .
  | L.Unavailable -> Unavailable o.L.delay
  | L.No_package -> Not_found
