module IT = Vasm.Inline_tree
module VF = Vasm.Vfunc

type handler = {
  on_vblock : VF.t -> int -> unit;
  on_varc : VF.t -> src:int -> dst:int -> unit;
  on_xcall : caller:Hhbc.Instr.fid option -> callee:Hhbc.Instr.fid -> unit;
  on_untranslated : Hhbc.Instr.fid -> int -> unit;
  on_prop : addr:int -> write:bool -> unit;
}

let null_handler =
  {
    on_vblock = (fun _ _ -> ());
    on_varc = (fun _ ~src:_ ~dst:_ -> ());
    on_xcall = (fun ~caller:_ ~callee:_ -> ());
    on_untranslated = (fun _ _ -> ());
    on_prop = (fun ~addr:_ ~write:_ -> ());
  }

module Int_tbl = Hashtbl.Make (Int)

type frame = {
  f_fid : Hhbc.Instr.fid;
  vf : VF.t option;  (* translation executing this frame *)
  node : int;  (* inline-tree node of [vf] *)
  inlined : bool;  (* vf shared with the caller's translation *)
  mutable last_block : int;  (* last vasm block executed in this frame *)
}

type state = {
  repo : Hhbc.Repo.t;
  lookup : Hhbc.Instr.fid -> VF.t option;
  h : handler;
  mutable stack : frame list;
  (* the announced call not yet entered: caller, site, callee; -1 = none *)
  mutable pending_caller : Hhbc.Instr.fid;
  mutable pending_site : int;
  mutable pending_callee : Hhbc.Instr.fid;
  (* instr index -> bb id, cached per function *)
  bb_maps : (int, int array) Hashtbl.t;
  (* polymorphic inline caches: per (caller fid, site), the first
     [pic_entries] distinct callees dispatch on the fast path; anything else
     executes the site's slow-path block (generic dispatch) *)
  pics : Hhbc.Instr.fid list ref Int_tbl.t;
}

let pic_entries = 2

(* One int per (caller fid, site): sites are instruction indices, far below
   2^32. *)
let pic_key ~caller ~site = (caller lsl 32) lor site

(* [true] when this dynamic callee misses the site's inline cache. *)
let pic_miss st ~caller ~site ~callee =
  let key = pic_key ~caller ~site in
  match Int_tbl.find_opt st.pics key with
  | None ->
    Int_tbl.add st.pics key (ref [ callee ]);
    false
  | Some entries ->
    if List.mem callee !entries then false
    else if List.length !entries < pic_entries then begin
      entries := callee :: !entries;
      false
    end
    else true

let bb_map st fid =
  match Hashtbl.find_opt st.bb_maps fid with
  | Some m -> m
  | None ->
    let f = Hhbc.Repo.func st.repo fid in
    let blocks = Hhbc.Func.basic_blocks f in
    let m = Array.make (Array.length f.Hhbc.Func.body) 0 in
    Array.iter
      (fun (b : Hhbc.Func.block) ->
        for i = b.start to b.start + b.len - 1 do
          m.(i) <- b.bb_id
        done)
      blocks;
    Hashtbl.add st.bb_maps fid m;
    m

let caller_root st =
  match st.stack with
  | [] -> None
  | top :: _ -> (
    match top.vf with
    | Some vf -> Some vf.VF.root_fid
    | None -> Some top.f_fid)

(* A frame running [fid]'s own translation, if it has one. *)
let own_frame st fid =
  { f_fid = fid; vf = st.lookup fid; node = 0; inlined = false; last_block = -1 }

let enter st fid =
  let caller_fid = st.pending_caller and site = st.pending_site in
  let announced = st.pending_callee = fid in
  st.pending_caller <- -1;
  st.pending_site <- -1;
  st.pending_callee <- -1;
  let frame =
    if not announced then begin
      st.h.on_xcall ~caller:None ~callee:fid;
      own_frame st fid
    end
    else
      match st.stack with
      | top :: _ when top.f_fid = caller_fid -> (
        match top.vf with
        | Some vf -> (
          let node = top.node in
          let take_slow_path () =
            let site_bb = (bb_map st caller_fid).(site) in
            let slow = VF.slow_id vf ~node ~bb:site_bb in
            if slow >= 0 then begin
              if top.last_block >= 0 then st.h.on_varc vf ~src:top.last_block ~dst:slow;
              st.h.on_vblock vf slow;
              top.last_block <- slow
            end
          in
          let is_method_site =
            match (Hhbc.Repo.func st.repo caller_fid).Hhbc.Func.body.(site) with
            | Hhbc.Instr.CallMethod _ | Hhbc.Instr.New _ -> true
            | _ -> false
          in
          match IT.child_at vf.VF.tree node site with
          | Some child when child.IT.fid = fid ->
            (* inlined: stay inside the caller's translation *)
            { f_fid = fid; vf = top.vf; node = child.IT.node_id; inlined = true; last_block = top.last_block }
          | Some _ ->
            (* inline guard failure: slow path, then an out-of-line call *)
            take_slow_path ();
            st.h.on_xcall ~caller:(Some vf.VF.root_fid) ~callee:fid;
            own_frame st fid
          | None ->
            (* dynamic dispatch through a polymorphic inline cache: callees
               beyond the cached set run the generic (slow) path *)
            if is_method_site && pic_miss st ~caller:caller_fid ~site ~callee:fid then
              take_slow_path ();
            st.h.on_xcall ~caller:(Some vf.VF.root_fid) ~callee:fid;
            own_frame st fid)
        | None ->
          st.h.on_xcall ~caller:(caller_root st) ~callee:fid;
          own_frame st fid)
      | _ ->
        st.h.on_xcall ~caller:None ~callee:fid;
        own_frame st fid
  in
  st.stack <- frame :: st.stack

let exit_frame st fid =
  match st.stack with
  | [] -> ()
  | top :: rest ->
    if top.f_fid = fid then begin
      st.stack <- rest;
      (* inlined return: arc back into the caller's current block *)
      match (top.vf, top.inlined, rest) with
      | Some vf, true, parent :: _ ->
        if top.last_block >= 0 && parent.last_block >= 0 && parent.last_block <> top.last_block
        then st.h.on_varc vf ~src:top.last_block ~dst:parent.last_block
      | _, _, _ -> ()
    end

let block st fid bb =
  match st.stack with
  | top :: _ when top.f_fid = fid -> (
    match top.vf with
    | Some vf ->
      let blk = VF.main_id vf ~node:top.node ~bb in
      if blk >= 0 then begin
        if top.last_block >= 0 then st.h.on_varc vf ~src:top.last_block ~dst:blk;
        st.h.on_vblock vf blk;
        top.last_block <- blk
      end
      else st.h.on_untranslated fid bb
    | None -> st.h.on_untranslated fid bb)
  | _ -> ()

let probes repo ~lookup handler =
  let st =
    {
      repo;
      lookup;
      h = handler;
      stack = [];
      pending_caller = -1;
      pending_site = -1;
      pending_callee = -1;
      bb_maps = Hashtbl.create 64;
      pics = Int_tbl.create 256;
    }
  in
  {
    Interp.Probes.on_block = (fun fid bb -> block st fid bb);
    on_arc = (fun _ ~src:_ ~dst:_ -> ());
    on_call =
      (fun ~caller ~site ~callee ->
        st.pending_caller <- caller;
        st.pending_site <- site;
        st.pending_callee <- callee);
    on_func_entry = (fun fid -> enter st fid);
    on_func_exit = (fun fid -> exit_frame st fid);
    on_prop_access = (fun _ _ ~addr ~write -> handler.on_prop ~addr ~write);
  }
