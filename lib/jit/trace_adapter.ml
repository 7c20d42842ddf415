module VF = Vasm.Vfunc

type sink = {
  fetch : addr:int -> size:int -> unit;
  branch : pc:int -> target:int -> taken:bool -> unit;
  load : addr:int -> unit;
  store : addr:int -> unit;
}

(* Branch slot of [dst] among [src]'s successors: its first index, 0 when
   it is not a successor. *)
let slot succs dst =
  let n = Array.length succs in
  let rec go i = if i >= n then 0 else if Array.unsafe_get succs i = dst then i else go (i + 1) in
  go 0

(* The placement is looked up on every event, never kept: a translation
   placed, reset or re-placed after the handler was built is followed. *)
let handler ~cache sink =
  {
    Context.on_vblock =
      (fun vf blk ->
        match Code_cache.lookup cache vf.VF.root_fid with
        | None -> ()
        | Some placed ->
          sink.fetch ~addr:placed.Code_cache.offsets.(blk) ~size:vf.VF.blocks.(blk).VF.size);
    on_varc =
      (fun vf ~src ~dst ->
        match Code_cache.lookup cache vf.VF.root_fid with
        | None -> ()
        | Some placed ->
          let succs = placed.Code_cache.succs.(src) in
          let src_end = placed.Code_cache.ends.(src) in
          let dst_addr = placed.Code_cache.offsets.(dst) in
          (* Each distinct successor corresponds to a distinct branch
             instruction within the block (calls, jumps, guards), so derive
             a per-target pc; otherwise one pc would alternate targets and
             the BTB would thrash artificially. *)
          let pc = src_end - 4 - (4 * slot succs dst) in
          if dst_addr <> src_end then sink.branch ~pc ~target:dst_addr ~taken:true
          else if Array.length succs > 1 then
            (* fall-through; only a conditional not-taken consults the
               predictor *)
            sink.branch ~pc ~target:dst_addr ~taken:false);
    on_xcall = (fun ~caller:_ ~callee:_ -> ());
    on_untranslated = (fun _ _ -> ());
    on_prop =
      (fun ~addr ~write -> if write then sink.store ~addr else sink.load ~addr);
  }
