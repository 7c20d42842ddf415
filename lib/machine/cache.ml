type config = { name : string; sets : int; ways : int; line_bytes : int }
type stats = { accesses : int; misses : int }

type t = {
  cfg : config;
  tags : int array;  (** sets * ways, -1 = invalid *)
  lru : int array;  (** per-entry last-use stamp *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  set_mask : int;
  line_shift : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  if not (is_pow2 cfg.sets) then invalid_arg "Cache.create: sets must be a power of two";
  if not (is_pow2 cfg.line_bytes) then invalid_arg "Cache.create: line_bytes must be a power of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    cfg;
    tags = Array.make (cfg.sets * cfg.ways) (-1);
    lru = Array.make (cfg.sets * cfg.ways) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    set_mask = cfg.sets - 1;
    line_shift = log2 cfg.line_bytes;
  }

let config t = t.cfg

(* One scan of the set: stop at the way holding [line]; on the way, keep the
   first way with the smallest LRU stamp as the victim.  A plain loop over
   local refs (kept in registers): an access neither raises nor allocates. *)
let access t ~addr ~write:_ =
  let line = addr lsr t.line_shift in
  let ways = t.cfg.ways in
  let base = (line land t.set_mask) * ways in
  let stop = base + ways in
  let tags = t.tags and lru = t.lru in
  let clock = t.clock + 1 in
  t.clock <- clock;
  t.accesses <- t.accesses + 1;
  let i = ref base and victim = ref base in
  while !i < stop && Array.unsafe_get tags !i <> line do
    if Array.unsafe_get lru !i < Array.unsafe_get lru !victim then victim := !i;
    incr i
  done;
  if !i < stop then begin
    Array.unsafe_set lru !i clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    Array.unsafe_set tags !victim line;
    Array.unsafe_set lru !victim clock;
    false
  end

let probe t ~addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  let base = set * t.cfg.ways in
  let rec scan i = i < base + t.cfg.ways && (t.tags.(i) = line || scan (i + 1)) in
  scan base

let stats t = { accesses = t.accesses; misses = t.misses }

let reset_stats t =
  t.accesses <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0

let miss_rate (s : stats) = if s.accesses = 0 then 0. else float_of_int s.misses /. float_of_int s.accesses
