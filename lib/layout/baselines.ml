let source_order cfg = Array.init (Cfg.n_blocks cfg) (fun i -> i)

let pettis_hansen cfg =
  let n = Cfg.n_blocks cfg in
  if n = 0 then [||]
  else begin
    let entry = Cfg.entry cfg in
    let next = Array.make n (-1) in
    let prev = Array.make n (-1) in
    (* chain representative = head block; find head by walking prev *)
    let rec head_of b = if prev.(b) = -1 then b else head_of prev.(b) in
    let arcs = Array.copy (Cfg.arcs cfg) in
    Array.sort (fun (a : Cfg.arc) b -> compare b.weight a.weight) arcs;
    Array.iter
      (fun (a : Cfg.arc) ->
        if
          a.src <> a.dst && a.dst <> entry && next.(a.src) = -1 && prev.(a.dst) = -1
          && head_of a.src <> head_of a.dst (* no cycles *)
        then begin
          next.(a.src) <- a.dst;
          prev.(a.dst) <- a.src
        end)
      arcs;
    (* collect chains: entry's chain first, then by total weight *)
    let blocks = Cfg.blocks cfg in
    let chains = ref [] in
    for b = 0 to n - 1 do
      if prev.(b) = -1 then begin
        let rec collect x acc w =
          let acc = x :: acc and w = w +. blocks.(x).Cfg.weight in
          if next.(x) = -1 then (List.rev acc, w) else collect next.(x) acc w
        in
        chains := collect b [] 0. :: !chains
      end
    done;
    let entry_head = head_of entry in
    let entry_chain, rest = List.partition (fun (c, _) -> List.hd c = entry_head) !chains in
    let rest = List.sort (fun (_, wa) (_, wb) -> compare wb wa) rest in
    Array.of_list (List.concat_map fst (entry_chain @ rest))
  end

let by_hotness ~nodes =
  let order = Array.init (Array.length nodes) (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare nodes.(b).C3.samples nodes.(a).C3.samples in
      if c <> 0 then c else compare a b)
    order;
  order

let by_id ~nodes = Array.init (Array.length nodes) (fun i -> i)
