(** Ext-TSP basic-block reordering (Newell & Pupyrev, IEEE TC 2020), the
    algorithm HHVM uses for basic-block layout and that paper §V-A improves
    with accurate Vasm-level counters.

    The objective extends fall-through maximization ("TSP") with partial
    credit for short forward and backward jumps:

    - fall-through (gap 0): full arc weight;
    - forward jump with gap [0 < d <= 1024]: [0.1 * w * (1 - d/1024)];
    - backward jump with gap [0 < d <= 640]:  [0.1 * w * (1 - d/640)].

    Self-loops score nothing under any order.

    The optimizer greedily merges chains of blocks, considering both
    concatenation orders and splitting the receiving chain, until no merge
    improves the score; remaining chains are emitted entry-chain first, then
    by decreasing density.  The best merge of each connected chain pair is
    computed once and cached per pair; it stays valid until either chain of
    the pair changes, so a merge re-scores only the pairs of the chain that
    grew. *)

(** Scoring parameters; {!default_params} matches the published constants. *)
type params = {
  forward_window : int;
  backward_window : int;
  forward_scale : float;
  backward_scale : float;
  max_chain_split : int;
      (** chains longer than this are not considered for splitting *)
}

val default_params : params

(** [score ?params cfg order] evaluates the Ext-TSP objective of a layout.
    [order] is a permutation of all block ids.
    @raise Invalid_argument if [order] is not a permutation. *)
val score : ?params:params -> Cfg.t -> int array -> float

(** [layout ?params cfg] computes a block order with the entry block first.
    Only the blocks of [cfg] are permuted; callers handle hot/cold splitting
    separately (see {!Hotcold}). *)
val layout : ?params:params -> Cfg.t -> int array
