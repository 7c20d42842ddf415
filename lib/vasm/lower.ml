module I = Hhbc.Instr

type mode = Optimized | Instrumented

let instrumentation_bytes = 8

let instr_size = function
  | I.Nop -> 0
  | I.LitInt _ -> 5
  | I.LitFloat _ -> 8
  | I.LitBool _ -> 4
  | I.LitNull -> 4
  | I.LitStr _ -> 7
  | I.LitArr _ -> 10
  | I.LoadLoc _ -> 4
  | I.StoreLoc _ -> 4
  | I.Pop -> 0
  | I.Dup -> 3
  | I.BinOp _ -> 8
  | I.UnOp _ -> 6
  | I.Jmp _ -> 5
  | I.JmpZ _ -> 8
  | I.JmpNZ _ -> 8
  | I.Call _ -> 12
  | I.CallMethod _ -> 18
  | I.New _ -> 26
  | I.GetThis -> 3
  | I.GetProp _ -> 14
  | I.SetProp _ -> 16
  | I.NewVec _ -> 14
  | I.VecGet -> 16
  | I.VecSet -> 18
  | I.VecPush -> 18
  | I.VecLen -> 8
  | I.NewDict _ -> 18
  | I.DictGet -> 18
  | I.DictSet -> 20
  | I.DictHas -> 14
  | I.InstanceOf _ -> 10
  | I.Cast _ -> 8
  | I.Print -> 12
  | I.Ret -> 6

(* Guard size replacing an inlined call (class check / frame setup). *)
let inline_guard_size = 8

let is_dynamic = function
  | I.CallMethod _ | I.GetProp _ | I.SetProp _ | I.VecGet | I.VecSet | I.VecPush | I.DictGet
  | I.DictSet | I.DictHas | I.Cast _ | I.New _ ->
    true
  | I.Nop | I.LitInt _ | I.LitFloat _ | I.LitBool _ | I.LitNull | I.LitStr _ | I.LitArr _
  | I.LoadLoc _ | I.StoreLoc _ | I.Pop | I.Dup | I.BinOp _ | I.UnOp _ | I.Jmp _ | I.JmpZ _
  | I.JmpNZ _ | I.Call _ | I.GetThis | I.NewVec _ | I.NewDict _ | I.VecLen | I.InstanceOf _
  | I.Print | I.Ret ->
    false

let dynamic_ops body ~start ~len =
  let count = ref 0 in
  for i = start to start + len - 1 do
    if is_dynamic body.(i) then incr count
  done;
  !count

(* mutable staging record for a block being built *)
type proto = {
  p_id : int;
  mutable p_size : int;
  mutable p_succs : int list;
  p_node : int;
  p_bb : int;
  p_role : Vfunc.role;
}

let lower repo tree ~mode =
  let protos = ref [] in
  let n_protos = ref 0 in
  let nodes = Inline_tree.nodes tree in
  let node_bbs =
    Array.map
      (fun (n : Inline_tree.node) -> Hhbc.Func.basic_blocks (Hhbc.Repo.func repo n.Inline_tree.fid))
      nodes
  in
  let main_of = Array.map (fun bbs -> Array.make (Array.length bbs) (-1)) node_bbs in
  let slow_of = Array.map (fun bbs -> Array.make (Array.length bbs) (-1)) node_bbs in
  let instr_overhead = match mode with Optimized -> 0 | Instrumented -> instrumentation_bytes in
  let new_proto ~node ~bb ~role ~size =
    let p = { p_id = !n_protos; p_size = size + instr_overhead; p_succs = []; p_node = node; p_bb = bb; p_role = role } in
    incr n_protos;
    protos := p :: !protos;
    p
  in
  (* Pass 1: create main blocks (and slow blocks) for every (node, bb). *)
  Array.iteri
    (fun node_id (n : Inline_tree.node) ->
      let f = Hhbc.Repo.func repo n.Inline_tree.fid in
      let body = f.Hhbc.Func.body in
      Array.iter
        (fun (bb : Hhbc.Func.block) ->
          (* size: lowered instrs; inlined call sites contribute a guard
             instead of the call sequence *)
          let size = ref 0 in
          let dyn = ref 0 in
          for i = bb.start to bb.start + bb.len - 1 do
            let inlined = Inline_tree.child_at tree node_id i <> None in
            if inlined then size := !size + inline_guard_size
            else begin
              size := !size + instr_size body.(i);
              if is_dynamic body.(i) then incr dyn
            end
          done;
          let main = new_proto ~node:node_id ~bb:bb.Hhbc.Func.bb_id ~role:Vfunc.Main ~size:!size in
          main_of.(node_id).(bb.Hhbc.Func.bb_id) <- main.p_id;
          (* guards from inlined sites also need a side exit *)
          let has_inlined_site =
            let rec scan i =
              i < bb.start + bb.len && (Inline_tree.child_at tree node_id i <> None || scan (i + 1))
            in
            scan bb.start
          in
          if !dyn > 0 || has_inlined_site then begin
            let slow = new_proto ~node:node_id ~bb:bb.Hhbc.Func.bb_id ~role:Vfunc.Slow ~size:(20 + (6 * !dyn)) in
            slow_of.(node_id).(bb.Hhbc.Func.bb_id) <- slow.p_id
          end)
        node_bbs.(node_id))
    nodes;
  let proto_arr = Array.of_list (List.rev !protos) in
  Array.iteri (fun i p -> assert (p.p_id = i)) proto_arr;
  (* Pass 2: connect successors. *)
  Array.iteri
    (fun node_id bbs ->
      Array.iter
        (fun (bb : Hhbc.Func.block) ->
          let main = proto_arr.(main_of.(node_id).(bb.Hhbc.Func.bb_id)) in
          (* bytecode CFG successors *)
          let cfg_succs = List.map (fun s -> main_of.(node_id).(s)) bb.Hhbc.Func.succs in
          (* inlined callee entries from sites within this bb *)
          let callee_entries = ref [] in
          let returns_here = ref [] in
          for i = bb.start to bb.start + bb.len - 1 do
            match Inline_tree.child_at tree node_id i with
            | None -> ()
            | Some child ->
              let child_id = child.Inline_tree.node_id in
              let child_f = Hhbc.Repo.func repo child.Inline_tree.fid in
              callee_entries := main_of.(child_id).(0) :: !callee_entries;
              (* callee blocks ending in Ret flow back to this block *)
              Array.iter
                (fun (cbb : Hhbc.Func.block) ->
                  let last = child_f.Hhbc.Func.body.(cbb.start + cbb.len - 1) in
                  if last = I.Ret then
                    returns_here := main_of.(child_id).(cbb.Hhbc.Func.bb_id) :: !returns_here)
                node_bbs.(child_id)
          done;
          let slow = slow_of.(node_id).(bb.Hhbc.Func.bb_id) in
          (* append: return arcs from inlined callees may already be here *)
          main.p_succs <-
            main.p_succs @ cfg_succs @ List.rev !callee_entries
            @ if slow >= 0 then [ slow ] else [];
          List.iter
            (fun ret_block -> proto_arr.(ret_block).p_succs <- proto_arr.(ret_block).p_succs @ [ main.p_id ])
            (List.rev !returns_here))
        bbs)
    node_bbs;
  let blocks =
    Array.map
      (fun p ->
        {
          Vfunc.id = p.p_id;
          size = p.p_size;
          succs = p.p_succs;
          node = p.p_node;
          bb = p.p_bb;
          role = p.p_role;
        })
      proto_arr
  in
  {
    Vfunc.root_fid = (Inline_tree.root tree).Inline_tree.fid;
    tree;
    blocks;
    entry = main_of.(0).(0);
    main_of;
    slow_of;
  }
