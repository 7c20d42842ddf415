(** Load-balancing policies for the discrete-event simulator.

    The warmup-aware policy is the simulator's stand-in for the slow-start /
    capacity-aware routing production balancers apply to freshly restarted
    HHVM servers (paper §II-B): routing probability proportional to each
    server's {e estimated current capacity}, so cold servers receive little
    traffic until their warmup curve flattens. *)

type policy =
  | Random  (** uniform over serving servers *)
  | Round_robin  (** cycles the candidate set *)
  | Least_outstanding  (** fewest in-flight requests; ties to lowest index *)
  | Warmup_weighted  (** probability proportional to estimated capacity *)

val policy_to_string : policy -> string

(** Accepts the canonical names plus short aliases ("rr", "aware", ...). *)
val policy_of_string : string -> policy option

val all_policies : policy list

type t

val create : policy -> t
val policy : t -> policy

(** [pick t rng ?n ~candidates ~outstanding ~weights ()] chooses one of the
    first [n] entries of [candidates] (server indices; [n] defaults to the
    whole array); [None] iff that prefix is empty.  Passing [?n] lets callers
    keep a persistent dense "accepting" array and route without rebuilding
    candidate arrays per arrival.  [outstanding] maps a server index to its
    in-flight count.  [weights] is aligned with [candidates]: [weights.(i)] is
    the routing weight of [candidates.(i)], non-negative with a positive sum
    over the prefix (callers floor cold servers at a small epsilon).  Only
    [Warmup_weighted] reads it, and only [Random] and [Warmup_weighted]
    consume randomness.  Per pick, [Random] and [Round_robin] are O(1),
    [Least_outstanding] is an O(n) scan of [outstanding], and
    [Warmup_weighted] is an O(n) sum and scan of [weights] that allocates
    nothing; keeping the weights current is the caller's job. *)
val pick :
  t ->
  Js_util.Rng.t ->
  ?n:int ->
  candidates:int array ->
  outstanding:(int -> int) ->
  weights:float array ->
  unit ->
  int option

(** [pick_region ~home ~n_regions ~cursor ~up] chooses a cross-region
    spillover target: the first region [<> home] satisfying [up], scanning
    round-robin from [cursor].  Returns the region and the advanced cursor.
    Pure and rng-free, so spillover routing cannot perturb the per-region
    random streams (part of the epoch-barrier determinism argument). *)
val pick_region :
  home:int -> n_regions:int -> cursor:int -> up:(int -> bool) -> (int * int) option
