(** Deterministic pseudo-random number generator (SplitMix64).

    All stochastic behaviour in the simulators is driven through this module
    so that every experiment is reproducible from a single integer seed.  The
    generator is splittable: independent subsystems receive independent
    streams via {!split} without sharing mutable state. *)

type t

(** [create seed] returns a fresh generator seeded with [seed]. *)
val create : int -> t

(** [split t] derives a new, statistically independent generator.

    The split-stream contract the simulators build their per-region /
    per-server stream layouts on:
    {ul
    {- {b draw-compatibility}: a split costs the parent {e exactly one}
       {!bits64} draw — after [split t], the parent's stream continues
       exactly as if one value had been drawn and discarded.  Stream layouts
       can therefore mix splits and draws freely: the position of every
       later draw is a pure function of how many draws-or-splits preceded
       it, never of which they were;}
    {- {b independence}: the child stream is seeded by remixing the parent
       draw, so children taken at different positions (and the parent's own
       continuation) are pairwise independent streams for simulation
       purposes — overlaps are as likely as SplitMix64 collisions;}
    {- {b reproducibility}: splitting is deterministic — the same parent
       state yields the same child stream, so a layout that hands each
       subsystem a split at a fixed position is reproducible from the root
       seed alone.}} *)
val split : t -> t

(** [copy t] duplicates the current state (both copies then evolve
    independently but identically under the same call sequence). *)
val copy : t -> t

(** [bits64 t] returns 64 uniformly random bits. *)
val bits64 : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] returns a uniform integer in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)
val int_in : t -> int -> int -> int

(** [float t bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [bool t p] returns [true] with probability [p] (clamped to [\[0,1\]]). *)
val bool : t -> float -> bool

(** [exponential t ~mean] samples an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [gaussian t ~mu ~sigma] samples a normal distribution (Box-Muller). *)
val gaussian : t -> mu:float -> sigma:float -> float

(** [pareto t ~alpha ~x_min] samples a Pareto distribution; used for the
    long-tailed ("flat profile") function-hotness distributions. *)
val pareto : t -> alpha:float -> x_min:float -> float

(** [zipf t ~n ~s] samples a rank in [\[0, n)] under a Zipf distribution with
    exponent [s].  Rank 0 is the most likely. *)
val zipf : t -> n:int -> s:float -> int

(** [pick t arr] returns a uniformly random element of [arr].
    @raise Invalid_argument on an empty array. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] shuffles [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [sample_weighted t weights] returns an index sampled proportionally to
    [weights.(i)] (all weights must be non-negative).  One [unit_float] draw.
    @raise Invalid_argument unless the sum is [> 0.] (a NaN sum included). *)
val sample_weighted : t -> float array -> int

(** [sample_weighted_prefix t weights ~n] is [sample_weighted t (Array.sub
    weights 0 n)] without the copy: the same index and the same draw, summed
    in the same order.  Allocates nothing.
    @raise Invalid_argument if [n] is outside [\[0, Array.length weights\]]
    or the prefix sum is not [> 0.]. *)
val sample_weighted_prefix : t -> float array -> n:int -> int
