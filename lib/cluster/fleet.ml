module R = Js_util.Rng

type config = {
  n_servers : int;
  n_buckets : int;
  seeders_per_bucket : int;
  server : Server.config;
  validation_catch_rate : float;
  verifier_catch_rate : float;
  max_boot_attempts : int;
  fallback_enabled : bool;
  max_seeder_retries : int;
  dist : Dist_net.config;
  home_region : int;
}

let default_config =
  {
    n_servers = 200;
    n_buckets = 10;
    seeders_per_bucket = 3;
    server = Server.default_config;
    validation_catch_rate = 0.95;
    verifier_catch_rate = 0.0;
    max_boot_attempts = 3;
    fallback_enabled = true;
    max_seeder_retries = 4;
    dist = Dist_net.default_config;
    home_region = 0;
  }

type stats = {
  packages_published : int;
  packages_rejected : int;
  verifier_rejects : int;
  bad_packages_published : int;
  crashes : (float * int) list;
  fallbacks : int;
  jump_started : int;
  bucket_jump_started : int array;
  bucket_fallbacks : int array;
  fleet_rps : Js_util.Stats.Series.t;
  fleet_peak_rps : float;
  dist : Dist_net.counters option;
}

type seeding = {
  per_bucket : Server.package list array;
  published : int;
  rejected : int;
  seed_verifier_rejects : int;
  bad_published : int;
}

(* One fleet member during C3. *)
type member = {
  bucket : int;
  mutable server : Server.t;
  mutable attempts : int;
  seed_base : int;
}

(* C2: run seeders, with fault injection and the §VI gates. *)
let run_seeders config app rng ~bad_package_rate ~thin_profile_rate =
  let published = Array.make config.n_buckets [] in
  let n_published = ref 0 and n_rejected = ref 0 and n_bad_published = ref 0 in
  let n_verifier_rejects = ref 0 in
  for bucket = 0 to config.n_buckets - 1 do
    let bucket_packages = ref [] in
    for s = 0 to config.seeders_per_bucket - 1 do
      (* each seeder retries until it publishes or gives up *)
      let rec attempt k =
        if k > config.max_seeder_retries then ()
        else begin
          let bad = R.bool rng bad_package_rate in
          let thin = R.bool rng thin_profile_rate in
          let quality = if thin then 0.4 else 1.0 in
          let pkg =
            Server.make_package config.server app ~quality ~bad
              ~coverage_target:config.server.Server.profile_request_target ()
          in
          (* §VI-B coverage gate: thin profiles are detectably small *)
          let rejected_by_coverage = quality < 0.6 in
          (* §VI-A.1 self-validation: bad packages are usually caught *)
          let rejected_by_validation = bad && R.bool rng config.validation_catch_rate in
          (* §VI-A static verifier: an independent consistency pass over the
             round-tripped package.  The rate check comes first so the
             default (0.0, verifier off) consumes no randomness and leaves
             every existing seeded simulation byte-identical. *)
          let rejected_by_verifier =
            config.verifier_catch_rate > 0. && bad && R.bool rng config.verifier_catch_rate
          in
          if rejected_by_coverage || rejected_by_validation || rejected_by_verifier then begin
            incr n_rejected;
            if rejected_by_verifier && not (rejected_by_coverage || rejected_by_validation) then
              incr n_verifier_rejects;
            attempt (k + 1)
          end
          else begin
            incr n_published;
            if bad then incr n_bad_published;
            bucket_packages := pkg :: !bucket_packages
          end
        end
      in
      ignore s;
      attempt 0
    done;
    (* store oldest-published first so the network's prepend order (and any
       direct pick) reproduces the historical per-bucket list exactly *)
    published.(bucket) <- List.rev !bucket_packages
  done;
  {
    per_bucket = published;
    published = !n_published;
    rejected = !n_rejected;
    seed_verifier_rejects = !n_verifier_rejects;
    bad_published = !n_bad_published;
  }

let forced_seeding config app ~bad_per_bucket =
  let n = config.seeders_per_bucket in
  let bad_n = min bad_per_bucket n in
  let published =
    (* reversed so the publish order (and the resulting replica lists) stay
       byte-identical to the historical hashtable-of-refs representation *)
    Array.init config.n_buckets (fun _ ->
        List.rev
          (List.init n (fun i ->
               Server.make_package config.server app ~bad:(i < bad_n)
                 ~coverage_target:config.server.Server.profile_request_target ())))
  in
  {
    per_bucket = published;
    published = config.n_buckets * n;
    rejected = 0;
    seed_verifier_rejects = 0;
    bad_published = config.n_buckets * bad_n;
  }

type fallback = No_package | Fetch_failed | Exhausted_attempts of int

let fallback_reason = function
  | No_package -> "no profile package available"
  | Fetch_failed -> "package fetch failed: distribution network unavailable"
  | Exhausted_attempts n -> Printf.sprintf "exhausted %d boot attempts (bad package)" n

(* §VI-A: fetch while boot attempts remain (or fallback is off), otherwise
   boot without Jump-Start.  A no-Jump-Start boot is a fallback when its
   bucket has no package, the fetch ladder gave up, or the server already
   crashed. *)
let boot_role ~telemetry config net rng ~now ~region ~bucket ~attempts ~no_packages =
  let fallback ~fetch_failed =
    if no_packages then Some No_package
    else if fetch_failed then Some Fetch_failed
    else if attempts > 0 then Some (Exhausted_attempts attempts)
    else None
  in
  if config.fallback_enabled && attempts >= config.max_boot_attempts then
    (Server.No_jumpstart, 0., fallback ~fetch_failed:false)
  else
    match Dist_net.fetch ?telemetry net rng ~now ~region ~bucket with
    | Dist_net.Delivered (pkg, d) -> (Server.Consumer pkg, d, None)
    | Dist_net.Unavailable d -> (Server.No_jumpstart, d, fallback ~fetch_failed:true)
    | Dist_net.Not_found -> (Server.No_jumpstart, 0., fallback ~fetch_failed:false)

let simulate_push ?telemetry config ?force_bad_per_bucket app ~seed ~bad_package_rate
    ~thin_profile_rate ~duration =
  let tel f =
    match telemetry with
    | Some t -> f t
    | None -> ()
  in
  let rng = R.create seed in
  let seeding =
    match force_bad_per_bucket with
    | Some bad_per_bucket -> forced_seeding config app ~bad_per_bucket
    | None -> run_seeders config app rng ~bad_package_rate ~thin_profile_rate
  in
  tel (fun t ->
      Js_telemetry.incr t ~by:seeding.published "fleet.packages_published";
      Js_telemetry.incr t ~by:seeding.rejected "fleet.packages_rejected";
      if seeding.seed_verifier_rejects > 0 then
        Js_telemetry.incr t ~by:seeding.seed_verifier_rejects "fleet.verifier_rejects");
  (* The distribution network sits between C2's published packages and C3's
     consumers.  Replicas are published oldest-first so the prepend order
     inside the network reproduces the historical per-bucket list exactly
     (neutral configs must pick draw-identically). *)
  let net = Dist_net.create config.dist in
  for bucket = 0 to config.n_buckets - 1 do
    List.iter
      (fun pkg -> Dist_net.publish net rng ~now:0. ~bucket pkg)
      seeding.per_bucket.(bucket)
  done;
  let fallbacks = ref 0 and jump_started = ref 0 in
  let bucket_jump_started = Array.make config.n_buckets 0 in
  let bucket_fallbacks = Array.make config.n_buckets 0 in
  let boot_member ~ix ~bucket ~seed_base ~attempts ~at =
    let source = Printf.sprintf "server.%d" ix in
    let role, fetch_delay, fallback =
      boot_role ~telemetry config net rng ~now:at ~region:config.home_region ~bucket ~attempts
        ~no_packages:(seeding.per_bucket.(bucket) = [])
    in
    (match fallback with
    | Some f ->
      incr fallbacks;
      bucket_fallbacks.(bucket) <- bucket_fallbacks.(bucket) + 1;
      tel (fun t ->
          let outcome =
            match f with
            | No_package -> "no_package"
            | Fetch_failed -> "fetch_failed"
            | Exhausted_attempts _ -> "fallback"
          in
          Js_telemetry.incr t "fleet.boot_attempts";
          Js_telemetry.incr t "fleet.fallbacks";
          Js_telemetry.record t
            (Js_telemetry.Boot_attempt { source; attempt = attempts + 1; outcome });
          Js_telemetry.record t (Js_telemetry.Fallback { source; reason = fallback_reason f }))
    | None -> ());
    (match role with
    | Server.Consumer _ ->
      if attempts = 0 then begin
        incr jump_started;
        bucket_jump_started.(bucket) <- bucket_jump_started.(bucket) + 1
      end;
      tel (fun t ->
          Js_telemetry.incr t "fleet.boot_attempts";
          Js_telemetry.record t
            (Js_telemetry.Boot_attempt
               { source; attempt = attempts + 1; outcome = "jump_started" }))
    | Server.No_jumpstart | Server.Seeder -> ());
    let server =
      Server.create
        ~discovery_seed:(seed_base + (attempts * 7919))
        ~extra_boot_seconds:fetch_delay config.server app role
    in
    tel (fun t ->
        let boot = Server.boot_seconds server in
        Js_telemetry.add_span t (source ^ ".boot") ~start:at ~dur:boot;
        Js_telemetry.observe t ~lo:0. ~hi:240. ~buckets:24 "fleet.boot_seconds" boot);
    server
  in
  (* C3: the whole fleet restarts at t = 0 *)
  let members =
    Array.init config.n_servers (fun i ->
        let bucket = i * config.n_buckets / config.n_servers in
        let seed_base = seed + (i * 104729) in
        let server = boot_member ~ix:i ~bucket ~seed_base ~attempts:0 ~at:0. in
        { bucket; server; attempts = 0; seed_base })
  in
  let crashes : (float, int ref) Hashtbl.t = Hashtbl.create 16 in
  let fleet_rps = Js_util.Stats.Series.create () in
  let dt = 1.0 in
  let time = ref 0. in
  while !time < duration do
    time := !time +. dt;
    tel (fun t -> Js_telemetry.Clock.set (Js_telemetry.clock t) !time);
    let total = ref 0. in
    Array.iteri
      (fun ix m ->
        Server.step m.server ~dt;
        (match Server.crashed m.server with
        | Some Server.Bad_package ->
          m.attempts <- m.attempts + 1;
          tel (fun t ->
              Js_telemetry.incr t "fleet.crashes";
              Js_telemetry.record t
                (Js_telemetry.Server_crashed { server = ix; kind = "bad_package" }));
          let round = Float.round (!time /. 30.) *. 30. in
          (match Hashtbl.find_opt crashes round with
          | Some r -> incr r
          | None -> Hashtbl.add crashes round (ref 1));
          m.server <-
            boot_member ~ix ~bucket:m.bucket ~seed_base:m.seed_base ~attempts:m.attempts
              ~at:!time
        | None -> ());
        total := !total +. Server.current_rps m.server)
      members;
    Js_util.Stats.Series.add fleet_rps ~time:!time ~value:!total
  done;
  let fleet_peak_rps = Array.fold_left (fun acc m -> acc +. Server.peak_rps m.server) 0. members in
  let blast_radius =
    Hashtbl.fold (fun _ r acc -> max acc !r) crashes 0
  in
  tel (fun t ->
      let n = float_of_int config.n_servers in
      Js_telemetry.set_gauge t "fleet.fallback_rate" (float_of_int !fallbacks /. n);
      Js_telemetry.set_gauge t "fleet.jump_start_rate" (float_of_int !jump_started /. n);
      Js_telemetry.set_gauge t "fleet.crash_blast_radius" (float_of_int blast_radius));
  {
    packages_published = seeding.published;
    packages_rejected = seeding.rejected;
    verifier_rejects = seeding.seed_verifier_rejects;
    bad_packages_published = seeding.bad_published;
    crashes =
      Hashtbl.fold (fun t r acc -> (t, !r) :: acc) crashes [] |> List.sort compare;
    fallbacks = !fallbacks;
    jump_started = !jump_started;
    bucket_jump_started;
    bucket_fallbacks;
    fleet_rps;
    fleet_peak_rps;
    dist = (if Dist_net.active config.dist then Some (Dist_net.counters net) else None);
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>published=%d rejected=%d (verifier=%d) bad_published=%d jump_started=%d fallbacks=%d@,crash rounds:"
    s.packages_published s.packages_rejected s.verifier_rejects s.bad_packages_published
    s.jump_started s.fallbacks;
  (match s.dist with
  | Some c -> Format.fprintf fmt "@,%a" Dist_net.pp_counters c
  | None -> ());
  List.iter (fun (t, n) -> Format.fprintf fmt "@,  t=%5.0fs crashed=%d" t n) s.crashes;
  Format.fprintf fmt "@]"
