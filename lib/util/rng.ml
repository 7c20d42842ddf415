type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 random bits mapped to [0,1). *)
  let v = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float v *. 0x1p-53

let float t bound = unit_float t *. bound

let bool t p =
  if p <= 0. then false
  else if p >= 1. then true
  else unit_float t < p

let exponential t ~mean =
  let u = 1. -. unit_float t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let rec non_zero () =
    let u = unit_float t in
    if u = 0. then non_zero () else u
  in
  let u1 = non_zero () and u2 = unit_float t in
  mu +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let pareto t ~alpha ~x_min =
  let u = 1. -. unit_float t in
  x_min /. (u ** (1. /. alpha))

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  (* Inverse-CDF sampling over the harmonic weights; O(log n) via a cached
     prefix table would be faster, but n is small enough in practice and the
     rejection-free approach keeps the generator allocation-free. *)
  let h = ref 0. in
  for k = 1 to n do
    h := !h +. (1. /. (float_of_int k ** s))
  done;
  let target = unit_float t *. !h in
  let rec scan k acc =
    if k > n then n - 1
    else
      let acc = acc +. (1. /. (float_of_int k ** s)) in
      if acc >= target then k - 1 else scan (k + 1) acc
  in
  scan 1 0.

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_weighted_prefix t weights ~n =
  if n < 0 || n > Array.length weights then
    invalid_arg "Rng.sample_weighted: prefix out of bounds";
  (* [n] is checked above, so the two passes skip the bounds checks *)
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. Array.unsafe_get weights i
  done;
  (* [not (> 0.)] also rejects a NaN total, which [<= 0.] lets through *)
  if not (!total > 0.) then invalid_arg "Rng.sample_weighted: total must be positive";
  let target = unit_float t *. !total in
  let i = ref 0 and acc = ref 0. and found = ref false in
  while (not !found) && !i < n - 1 do
    acc := !acc +. Array.unsafe_get weights !i;
    if !acc >= target then found := true else incr i
  done;
  !i

let sample_weighted t weights = sample_weighted_prefix t weights ~n:(Array.length weights)
