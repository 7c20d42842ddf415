(** Bounded-retry schedule with exponential backoff and deterministic jitter.

    Drives the package-fetch ladder ([Jumpstart.Fetch_ladder]) that both
    distribution-network layers share: a fetch that fails transiently is retried up to [max_attempts] times, sleeping
    [base_delay * multiplier^k] (capped at [max_delay]) between attempts.
    Jitter is {e deterministic}: it is drawn from the caller's seeded {!Rng},
    so the same seed yields the same schedule, and a [jitter = 0] schedule
    consumes no randomness at all. *)

type config = {
  max_attempts : int;  (** total tries before giving up (>= 1) *)
  base_delay : float;  (** seconds before the first retry *)
  multiplier : float;  (** exponential growth factor per retry *)
  max_delay : float;  (** cap on any single delay *)
  jitter : float;
      (** fraction of the delay added as uniform random jitter; 0 disables
          jitter and draws nothing from the generator *)
}

(** 8 attempts, 0.5s base, doubling, 30s cap, 10% jitter. *)
val default : config

(** [raw_delay cfg ~attempt] — the jitter-free delay after 0-based failed
    attempt [attempt].  @raise Invalid_argument on a negative attempt. *)
val raw_delay : config -> attempt:int -> float

(** [delay cfg rng ~attempt] — [raw_delay] times [1 + jitter * u] with
    [u ~ U(0,1)] from [rng] ([rng] is untouched when [jitter <= 0]). *)
val delay : config -> Rng.t -> attempt:int -> float
