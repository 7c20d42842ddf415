(* fleet_sim: the single-server warmup model from the command line.

     dune exec bin/fleet_sim.exe -- warmup [--no-jumpstart] [--minutes N]

   Fleet pushes run on the discrete-event simulator: see push_sim. *)

open Cmdliner

module S = Cluster.Server
module Series = Js_util.Stats.Series

let minutes_arg =
  Arg.(value & opt int 10 & info [ "minutes" ] ~docv:"N" ~doc:"simulated duration in minutes")

let warmup_cmd =
  let no_js = Arg.(value & flag & info [ "no-jumpstart" ] ~doc:"disable Jump-Start") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"discovery seed") in
  let action no_js minutes seed =
    let app = Workload.Macro_app.generate Workload.Macro_app.default_params in
    let cfg = S.default_config in
    let role =
      if no_js then S.No_jumpstart
      else S.Consumer (S.make_package cfg app ~coverage_target:cfg.S.profile_request_target ())
    in
    let server = S.create ~discovery_seed:seed cfg app role in
    let until = float_of_int (minutes * 60) in
    S.run server ~until ~dt:1.;
    Printf.printf "%8s %10s %12s %12s\n" "sec" "rps/peak" "latency(ms)" "code(MB)";
    let steps = max 1 (minutes * 60 / 20) in
    let t = ref 0 in
    while !t <= minutes * 60 do
      let time = float_of_int !t in
      Printf.printf "%8d %10.2f %12.0f %12.0f\n" !t
        (Series.value_at (S.rps_series server) time /. S.peak_rps server)
        (1000. *. Series.value_at (S.latency_series server) time)
        (Series.value_at (S.code_series server) time /. 1e6);
      t := !t + steps
    done;
    Printf.printf "\ncapacity loss: %.1f%%\n"
      (100. *. Series.capacity_loss (S.rps_series server) ~peak:(S.peak_rps server) ~until)
  in
  Cmd.v
    (Cmd.info "warmup" ~doc:"single-server warmup curve (paper Figs. 1, 2, 4)")
    Term.(const action $ no_js $ minutes_arg $ seed)

let () =
  let info = Cmd.info "fleet_sim" ~doc:"single-server warmup simulation of the Jump-Start reproduction" in
  exit (Cmd.eval (Cmd.group info [ warmup_cmd ]))
