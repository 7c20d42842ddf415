(** Host-time spans recorded by the benchmark around its calls into the
    [lib/] layers.  Spans stay in memory until the run ends.  A span's layer
    is its name up to the first dot ("jit.finish" belongs to [jit]). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  start : float;
  stop : float;
}

type t

(** A disabled recorder runs the wrapped function and records nothing. *)
val create : enabled:bool -> t

(** Host wall clock, seconds. *)
val now : unit -> float

(** [span t name f] runs [f] as a child of the innermost open span. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Closed spans, in the order they were opened. *)
val spans : t -> span list

val duration : span -> float

(** [covered ~lo ~hi intervals] — length of the union of [intervals]
    clipped to [\[lo, hi\]]. *)
val covered : lo:float -> hi:float -> (float * float) list -> float

(** A span's duration minus the time its direct children cover. *)
val self_time : span list -> span -> float

(** Self time per layer over [root] and its descendants.  For spans of one
    thread, which nest without overlapping, the values sum to [root]'s
    duration. *)
val self_by_layer : span list -> span -> (string * float) list

(** Spans with exactly this name, and the sum of their durations. *)
val find : span list -> string -> span list

val total : span list -> string -> float

(** A metric or span name: 1 to 64 of [A-Za-z0-9_.-], starting with a
    letter or digit. *)
val valid_name : string -> bool

val to_json : span list -> string
