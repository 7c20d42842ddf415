module R = Js_util.Rng

type policy = Random | Round_robin | Least_outstanding | Warmup_weighted

let policy_to_string = function
  | Random -> "random"
  | Round_robin -> "round_robin"
  | Least_outstanding -> "least_outstanding"
  | Warmup_weighted -> "warmup_weighted"

let policy_of_string = function
  | "random" -> Some Random
  | "round_robin" | "round-robin" | "rr" -> Some Round_robin
  | "least_outstanding" | "least-outstanding" | "lo" -> Some Least_outstanding
  | "warmup_weighted" | "warmup-weighted" | "aware" | "warmup" -> Some Warmup_weighted
  | _ -> None

let all_policies = [ Random; Round_robin; Least_outstanding; Warmup_weighted ]

type t = { policy : policy; mutable cursor : int }

let create policy = { policy; cursor = 0 }
let policy t = t.policy

let pick t rng ?n ~candidates ~outstanding ~weights () =
  let n = match n with Some n -> n | None -> Array.length candidates in
  if n = 0 then None
  else
    match t.policy with
    | Random -> Some candidates.(R.int rng n)
    | Round_robin ->
      let i = t.cursor mod n in
      t.cursor <- t.cursor + 1;
      Some candidates.(i)
    | Least_outstanding ->
      let best = ref candidates.(0) in
      let best_o = ref (outstanding candidates.(0)) in
      for i = 1 to n - 1 do
        let o = outstanding candidates.(i) in
        if o < !best_o then begin
          best := candidates.(i);
          best_o := o
        end
      done;
      Some !best
    | Warmup_weighted -> Some candidates.(R.sample_weighted_prefix rng weights ~n)

(* Cross-region spillover target: round-robin over the currently-up foreign
   regions, deterministic given [cursor].  Returns the chosen region plus the
   advanced cursor, or [None] when no foreign region is up. *)
let pick_region ~home ~n_regions ~cursor ~up =
  if n_regions <= 1 then None
  else begin
    let chosen = ref None in
    let k = ref 0 in
    while !chosen = None && !k < n_regions do
      let r = (cursor + !k) mod n_regions in
      if r <> home && up r then chosen := Some r;
      incr k
    done;
    match !chosen with
    | None -> None
    | Some r -> Some (r, (cursor + !k) mod n_regions)
  end
