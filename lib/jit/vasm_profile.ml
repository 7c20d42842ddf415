module VF = Vasm.Vfunc

type t = {
  blocks : (int, float array) Hashtbl.t;  (* root fid -> per-block counts *)
  arcs : (int, (int * int, float ref) Hashtbl.t) Hashtbl.t;
  cg : (int * int, int ref) Hashtbl.t;
  entries : (int, int ref) Hashtbl.t;
}

let create () =
  { blocks = Hashtbl.create 64; arcs = Hashtbl.create 64; cg = Hashtbl.create 64; entries = Hashtbl.create 64 }

let block_array t (vf : VF.t) =
  match Hashtbl.find_opt t.blocks vf.VF.root_fid with
  | Some a when Array.length a = VF.n_blocks vf -> a
  | Some _ | None ->
    let a = Array.make (VF.n_blocks vf) 0. in
    Hashtbl.replace t.blocks vf.VF.root_fid a;
    a

(* The read path: reading a profile (a consumer booting a package) must
   leave it unchanged, so a missing or misshapen vector reads as zeros. *)
let block_counts t (vf : VF.t) =
  match Hashtbl.find_opt t.blocks vf.VF.root_fid with
  | Some a when Array.length a = VF.n_blocks vf -> a
  | Some _ | None -> Array.make (VF.n_blocks vf) 0.

let arc_table t (vf : VF.t) =
  match Hashtbl.find_opt t.arcs vf.VF.root_fid with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 32 in
    Hashtbl.replace t.arcs vf.VF.root_fid tbl;
    tbl

let handler t =
  {
    Context.on_vblock =
      (fun vf blk ->
        let a = block_array t vf in
        a.(blk) <- a.(blk) +. 1.);
    on_varc =
      (fun vf ~src ~dst ->
        let tbl = arc_table t vf in
        match Hashtbl.find_opt tbl (src, dst) with
        | Some r -> r := !r +. 1.
        | None -> Hashtbl.add tbl (src, dst) (ref 1.));
    on_xcall =
      (fun ~caller ~callee ->
        (match Hashtbl.find_opt t.entries callee with
        | Some r -> incr r
        | None -> Hashtbl.add t.entries callee (ref 1));
        match caller with
        | None -> ()
        | Some c -> (
          match Hashtbl.find_opt t.cg (c, callee) with
          | Some r -> incr r
          | None -> Hashtbl.add t.cg (c, callee) (ref 1)));
    on_untranslated = (fun _ _ -> ());
    on_prop = (fun ~addr:_ ~write:_ -> ());
  }

let block_weights t vf = Array.copy (block_counts t vf)

let arc_weight t (vf : VF.t) key =
  match Hashtbl.find_opt t.arcs vf.VF.root_fid with
  | None -> 0.
  | Some tbl -> ( match Hashtbl.find_opt tbl key with Some r -> !r | None -> 0.)

let to_cfg t (vf : VF.t) =
  let counts = block_counts t vf in
  let blocks =
    Array.map (fun (b : VF.block) -> { Layout.Cfg.id = b.VF.id; size = b.VF.size; weight = counts.(b.VF.id) }) vf.VF.blocks
  in
  let arcs =
    Array.map (fun (src, dst) -> { Layout.Cfg.src; dst; weight = arc_weight t vf (src, dst) }) (VF.arcs vf)
  in
  Layout.Cfg.create ~blocks ~arcs ~entry:vf.VF.entry

let call_graph t =
  Hashtbl.fold (fun (caller, callee) r acc -> (caller, callee, !r) :: acc) t.cg [] |> List.sort compare

let entry_count t fid = match Hashtbl.find_opt t.entries fid with Some r -> !r | None -> 0

let profiled_blocks t =
  Hashtbl.fold (fun fid a acc -> (fid, Array.copy a) :: acc) t.blocks [] |> List.sort compare

let profiled_arcs t =
  Hashtbl.fold
    (fun fid tbl acc ->
      let entries = Hashtbl.fold (fun (s, d) c acc -> (s, d, !c) :: acc) tbl [] in
      (fid, List.sort compare entries) :: acc)
    t.arcs []
  |> List.sort compare

let entry_counts t =
  Hashtbl.fold (fun fid c acc -> (fid, !c) :: acc) t.entries [] |> List.sort compare

(* Stale-profile salvage: re-key every per-root-function table through the
   old-fid -> new-fid map.  Entries whose root (or either call-graph
   endpoint) does not map are dropped; block/arc indices are kept verbatim —
   the caller only remaps strict-identical matches, whose translations
   re-lower to the same shape, and Package_check's self-shape pass (P310/
   P311) guards the rest. *)
let remap t ~f =
  let out = create () in
  Hashtbl.iter
    (fun fid a -> match f fid with Some n -> Hashtbl.replace out.blocks n a | None -> ())
    t.blocks;
  Hashtbl.iter
    (fun fid tbl -> match f fid with Some n -> Hashtbl.replace out.arcs n tbl | None -> ())
    t.arcs;
  Hashtbl.iter
    (fun (a, b) c ->
      match (f a, f b) with
      | Some na, Some nb -> Hashtbl.replace out.cg (na, nb) c
      | _ -> ())
    t.cg;
  Hashtbl.iter
    (fun fid c -> match f fid with Some n -> Hashtbl.replace out.entries n c | None -> ())
    t.entries;
  out

module W = Js_util.Binio.Writer
module Rd = Js_util.Binio.Reader

let serialize t w =
  let blocks = Hashtbl.fold (fun fid a acc -> (fid, a) :: acc) t.blocks [] in
  W.list w
    (fun (fid, counts) ->
      W.varint w fid;
      W.array w (fun c -> W.f64 w c) counts)
    (List.sort compare blocks);
  let arcs =
    Hashtbl.fold
      (fun fid tbl acc ->
        let entries = Hashtbl.fold (fun (s, d) c acc -> (s, d, !c) :: acc) tbl [] in
        (fid, List.sort compare entries) :: acc)
      t.arcs []
  in
  W.list w
    (fun (fid, entries) ->
      W.varint w fid;
      W.list w
        (fun (s, d, c) ->
          W.varint w s;
          W.varint w d;
          W.f64 w c)
        entries)
    (List.sort compare arcs);
  let cg = Hashtbl.fold (fun (a, b) c acc -> (a, b, !c) :: acc) t.cg [] in
  W.list w
    (fun (a, b, c) ->
      W.varint w a;
      W.varint w b;
      W.varint w c)
    (List.sort compare cg);
  let entries = Hashtbl.fold (fun fid c acc -> (fid, !c) :: acc) t.entries [] in
  W.list w
    (fun (fid, c) ->
      W.varint w fid;
      W.varint w c)
    (List.sort compare entries)

let deserialize ?n_funcs r =
  let t = create () in
  let check_fid fid =
    match n_funcs with
    | Some n when fid < 0 || fid >= n ->
      raise (Js_util.Binio.Corrupt "vasm profile: function id out of range")
    | _ -> ()
  in
  List.iter
    (fun (fid, counts) ->
      check_fid fid;
      Hashtbl.replace t.blocks fid counts)
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         let counts = Rd.array r (fun r -> Rd.f64 r) in
         (fid, counts)));
  List.iter
    (fun (fid, entries) ->
      check_fid fid;
      let tbl = Hashtbl.create (List.length entries) in
      List.iter (fun (s, d, c) -> Hashtbl.replace tbl (s, d) (ref c)) entries;
      Hashtbl.replace t.arcs fid tbl)
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         let entries =
           Rd.list r (fun r ->
               let s = Rd.varint r in
               let d = Rd.varint r in
               let c = Rd.f64 r in
               (s, d, c))
         in
         (fid, entries)));
  List.iter
    (fun (a, b, c) ->
      check_fid a;
      check_fid b;
      Hashtbl.replace t.cg (a, b) (ref c))
    (Rd.list r (fun r ->
         let a = Rd.varint r in
         let b = Rd.varint r in
         let c = Rd.varint r in
         (a, b, c)));
  List.iter
    (fun (fid, c) ->
      check_fid fid;
      Hashtbl.replace t.entries fid (ref c))
    (Rd.list r (fun r ->
         let fid = Rd.varint r in
         let c = Rd.varint r in
         (fid, c)));
  t
