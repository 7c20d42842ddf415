(** The JIT code cache: a simulated address space holding placed
    translations.

    Mirrors HHVM's structure: a {e hot} area for the fast-path portions of
    optimized translations, a {e cold} area for slow paths, and capacity
    limits — when the cache fills, JITing ceases (point "D" in paper Fig. 1).
    Placement order within the hot area follows the function-sorting
    decision (C3), which is exactly the intermediate result Jump-Start ships
    in the profile package (§IV-B category 4). *)

type placed = {
  vfunc : Vasm.Vfunc.t;
  order : int array;  (** block layout order, hot prefix first *)
  n_hot : int;  (** blocks in [order.(0 .. n_hot-1)] are in the hot area *)
  offsets : int array;  (** block id -> absolute simulated address *)
  ends : int array;  (** block id -> address just past the block *)
  succs : int array array;  (** block id -> successors, in [Vfunc] list order *)
  hot_base : int;
  hot_size : int;
  cold_base : int;
  cold_size : int;
}

type t

(** Defaults: 128 MiB hot, 256 MiB cold (scaled-down HHVM values: our
    synthetic app is smaller than facebook.com). *)
val create : ?hot_capacity:int -> ?cold_capacity:int -> unit -> t

(** [place t vfunc ~order ~n_hot] appends the translation at the current
    cursors; returns [None] when either area would overflow (JITing must
    stop). *)
val place : t -> Vasm.Vfunc.t -> order:int array -> n_hot:int -> placed option

(** [lookup t fid] — the current placement of [fid]'s translation: an array
    index, no hashing, always reflecting the latest [place] or [reset]. *)
val lookup : t -> Hhbc.Instr.fid -> placed option
val placed_list : t -> placed list

(** [used_hot t], [used_cold t] — bytes consumed. *)
val used_hot : t -> int

val used_cold : t -> int

(** [reset t] empties the cache (relocation re-places translations in a new
    order: HHVM moves optimized code from temporary buffers into the cache
    between points "B" and "C"). *)
val reset : t -> unit

(** [block_addr placed block_id] — absolute address of a block. *)
val block_addr : placed -> int -> int

(** Address of the translation entry block. *)
val entry_addr : placed -> int
