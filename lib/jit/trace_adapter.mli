(** Turns replayed translation execution into a machine-level access trace.

    Consumes {!Context} events and, using the {!Code_cache} placement, emits
    instruction fetches, dynamic branches and data accesses into a [sink]
    (implemented by the experiment layer over {!Machine.Hierarchy}).  This
    is the bridge that lets the cache/TLB/branch models observe the effect
    of basic-block layout, hot/cold splitting, function order and object
    layout — i.e. regenerate paper Fig. 5.

    Modelling notes:
    - a conditional branch is charged at the end of every block with more
      than one successor; it is "taken" when the dynamic successor is not
      the block laid out immediately after it;
    - calls between translations are not charged as branches (call/return
      prediction on real hardware is near-perfect via the RAS); their
      locality cost is captured by the callee entry fetch;
    - untranslated (interpreter) execution emits no fetches: the
      interpreter's own loop is small and cache-resident, and its dispatch
      cost is accounted by {!Tiers};
    - a branch's pc is [src_end - 4 - 4 * slot], where [slot] is the first
      index of the destination in the source block's successor list, and 0
      when the destination is not a successor;
    - some arcs are not in the translation's CFG.  {!Vasm.Lower} gives
      [Slow] blocks no successors, and replay moves between a slow block and
      a block of another inline node (slow to main, main to slow, slow to
      slow).  Such an arc gets slot 0's pc.  {!Vasm_profile} counts it but
      [Vasm_profile.to_cfg] drops it, so Ext-TSP never sees it.  One
      seed-1 [steady] pass (the no-JS and JS replays) has 32,690 of them
      among 2,963,046 arcs (1.1%), every one between two inline nodes; see
      DESIGN.md §7. *)

type sink = {
  fetch : addr:int -> size:int -> unit;
  branch : pc:int -> target:int -> taken:bool -> unit;
  load : addr:int -> unit;
  store : addr:int -> unit;
}

(** [handler ~cache sink] — plug the result into {!Context.probes}. *)
val handler : cache:Code_cache.t -> sink -> Context.handler
