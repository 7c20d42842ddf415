type config = {
  max_attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  jitter : float;
}

let default =
  { max_attempts = 8; base_delay = 0.5; multiplier = 2.0; max_delay = 30.0; jitter = 0.1 }

let raw_delay cfg ~attempt =
  if attempt < 0 then invalid_arg "Backoff.raw_delay: negative attempt";
  Float.min cfg.max_delay (cfg.base_delay *. (cfg.multiplier ** float_of_int attempt))

let delay cfg rng ~attempt =
  let d = raw_delay cfg ~attempt in
  (* The jitter guard mirrors Rng.bool's clamp idiom: a jitter-free schedule
     consumes no randomness, so it can be pinned exactly in tests. *)
  if cfg.jitter <= 0. then d else d *. (1. +. (cfg.jitter *. Rng.float rng 1.0))
