type params = {
  forward_window : int;
  backward_window : int;
  forward_scale : float;
  backward_scale : float;
  max_chain_split : int;
}

let default_params =
  {
    forward_window = 1024;
    backward_window = 640;
    forward_scale = 0.1;
    backward_scale = 0.1;
    max_chain_split = 128;
  }

(* Score contribution of one arc given the layout byte offsets of its
   endpoints.  [src_end] is the address just past the source block; [dst]
   the address of the target block. *)
let[@inline] arc_score params ~weight ~src_end ~dst =
  if dst = src_end then weight
  else if dst > src_end then begin
    let gap = dst - src_end in
    if gap <= params.forward_window then
      params.forward_scale *. weight *. (1. -. (float_of_int gap /. float_of_int params.forward_window))
    else 0.
  end
  else begin
    let gap = src_end - dst in
    if gap <= params.backward_window then
      params.backward_scale *. weight *. (1. -. (float_of_int gap /. float_of_int params.backward_window))
    else 0.
  end

let score ?(params = default_params) cfg order =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  if Array.length order <> n then invalid_arg "Exttsp.score: order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun id ->
      if id < 0 || id >= n || seen.(id) then invalid_arg "Exttsp.score: not a permutation";
      seen.(id) <- true)
    order;
  (* byte offset of each block start and end under [order] *)
  let start = Array.make n 0 in
  let stop = Array.make n 0 in
  let off = ref 0 in
  Array.iter
    (fun id ->
      start.(id) <- !off;
      off := !off + blocks.(id).Cfg.size;
      stop.(id) <- !off)
    order;
  Array.fold_left
    (fun acc (a : Cfg.arc) ->
      if a.src = a.dst then acc (* self-loops score nothing, as in [seq_score] *)
      else acc +. arc_score params ~weight:a.weight ~src_end:stop.(a.src) ~dst:start.(a.dst))
    0. (Cfg.arcs cfg)

(* --- greedy chain merging --- *)

type chain = {
  cid : int;
  mutable blocks_seq : int array;  (** layout order within the chain *)
  mutable size : int;
  mutable weight : float;
  mutable alive : bool;
}

(* A chain pair's best merge: the receiver's sequence with the other chain's
   inserted at [cut] scores [score], [gain] more than the two apart. *)
type merge = { gain : float; cut : int; score : float }

(* Value of a connected chain pair: its best merge, valid until either chain
   changes ([stale] is set when the receiver absorbs another chain). *)
type pair = { mutable stale : bool; mutable best : merge option }

(* Ext-TSP score of the arcs internal to [xs.(0..cut-1) @ ys @ xs.(cut..)],
   scored in place without building the sequence.  [member] marks the blocks
   of [xs] and [ys]; [succs] holds each block's [Cfg.succs]; [start] and
   [stop] are per-block scratch offsets.  Blocks and their successors are
   visited in sequence order, so the float sum is the same as over the built
   sequence. *)
let seq_score params ~succs block_sizes ~member ~start ~stop xs ys cut =
  let nx = Array.length xs and ny = Array.length ys in
  let block i = if i < cut then xs.(i) else if i < cut + ny then ys.(i - cut) else xs.(i - ny) in
  let off = ref 0 in
  for i = 0 to nx + ny - 1 do
    let id = block i in
    start.(id) <- !off;
    off := !off + block_sizes.(id);
    stop.(id) <- !off
  done;
  let acc = ref 0. in
  for i = 0 to nx + ny - 1 do
    let arcs = succs.(block i) in
    for k = 0 to Array.length arcs - 1 do
      let (a : Cfg.arc) = arcs.(k) in
      if a.src <> a.dst && member.(a.dst) then
        acc := !acc +. arc_score params ~weight:a.weight ~src_end:stop.(a.src) ~dst:start.(a.dst)
    done
  done;
  !acc

let layout ?(params = default_params) cfg =
  let blocks = Cfg.blocks cfg in
  let n = Array.length blocks in
  if n = 0 then [||]
  else if n = 1 then [| 0 |]
  else begin
    let entry = Cfg.entry cfg in
    let block_sizes = Array.map (fun b -> b.Cfg.size) blocks in
    let succs = Array.init n (fun id -> Array.of_list (Cfg.succs cfg id)) in
    let chains = Array.init n (fun i ->
        { cid = i; blocks_seq = [| i |]; size = blocks.(i).Cfg.size; weight = blocks.(i).Cfg.weight; alive = true })
    in
    let chain_of = Array.init n (fun i -> i) in
    let member = Array.make n false in
    let start = Array.make n 0 and stop = Array.make n 0 in
    (* score of a chain's internal arcs; a single block has none *)
    let chain_score = Array.make n 0. in
    let mark seq v = Array.iter (fun id -> member.(id) <- v) seq in
    (* Candidates in order: x@y, y@x, then y inserted at each cut of x from
       the last down to the first (only if x is short enough to split).  The
       entry block must stay first; the first best score wins. *)
    let best_merge x y =
      let xs = x.blocks_seq and ys = y.blocks_seq in
      let nx = Array.length xs in
      mark xs true;
      mark ys true;
      let entry_inside = member.(entry) in
      let best = ref None in
      let try_cut cut =
        if (not entry_inside) || (if cut = 0 then ys.(0) else xs.(0)) = entry then begin
          let s = seq_score params ~succs block_sizes ~member ~start ~stop xs ys cut in
          match !best with
          | Some (bs, _) when bs >= s -> ()
          | _ -> best := Some (s, cut)
        end
      in
      try_cut nx;
      try_cut 0;
      if nx > 1 && nx <= params.max_chain_split then
        for cut = nx - 1 downto 1 do
          try_cut cut
        done;
      mark xs false;
      mark ys false;
      match !best with
      | None -> None
      | Some (score, cut) ->
        let gain = score -. chain_score.(x.cid) -. chain_score.(y.cid) in
        if gain > 1e-9 then Some { gain; cut; score } else None
    in
    (* Only chain pairs connected by at least one arc are merge candidates. *)
    let connected = Hashtbl.create 64 in
    let note_pair a b =
      if a <> b then Hashtbl.replace connected (min a b, max a b) { stale = true; best = None }
    in
    Array.iter (fun (a : Cfg.arc) -> note_pair chain_of.(a.src) chain_of.(a.dst)) (Cfg.arcs cfg);
    let rec iterate () =
      (* find the best gain over all connected alive chain pairs *)
      let best = ref None in
      Hashtbl.iter
        (fun (ca, cb) p ->
          let x = chains.(ca) and y = chains.(cb) in
          if x.alive && y.alive then begin
            if p.stale then begin
              p.best <- best_merge x y;
              p.stale <- false
            end;
            match p.best with
            | None -> ()
            | Some m -> (
              match !best with
              | Some (bg, _, _, _) when bg >= m.gain -> ()
              | _ -> best := Some (m.gain, x, y, m))
          end)
        connected;
      match !best with
      | None -> ()
      | Some (_, x, y, m) ->
        (* merge y into x with the winning sequence *)
        let xs = x.blocks_seq in
        let seq =
          Array.concat [ Array.sub xs 0 m.cut; y.blocks_seq; Array.sub xs m.cut (Array.length xs - m.cut) ]
        in
        x.blocks_seq <- seq;
        x.size <- x.size + y.size;
        x.weight <- x.weight +. y.weight;
        y.alive <- false;
        Array.iter (fun id -> chain_of.(id) <- x.cid) seq;
        chain_score.(x.cid) <- m.score;
        (* x changed: its cached merges are stale; re-point y's pairs to x *)
        let to_add = ref [] in
        Hashtbl.iter
          (fun (ca, cb) p ->
            if ca = x.cid || cb = x.cid then p.stale <- true
            else if ca = y.cid || cb = y.cid then begin
              let other = if ca = y.cid then cb else ca in
              to_add := other :: !to_add
            end)
          connected;
        List.iter (fun other -> note_pair x.cid other) !to_add;
        iterate ()
    in
    iterate ();
    (* Emit: entry chain first, then remaining chains by decreasing density. *)
    let alive = Array.to_list chains |> List.filter (fun c -> c.alive) in
    let entry_chain = List.find (fun c -> chain_of.(entry) = c.cid) alive in
    let rest = List.filter (fun c -> c.cid <> entry_chain.cid) alive in
    let density c = if c.size = 0 then 0. else c.weight /. float_of_int c.size in
    let rest =
      List.sort
        (fun a b ->
          let c = compare (density b) (density a) in
          if c <> 0 then c else compare a.cid b.cid)
        rest
    in
    Array.concat (List.map (fun c -> c.blocks_seq) (entry_chain :: rest))
  end
