(* Inline trees and lowering. *)

module IT = Vasm.Inline_tree
module VF = Vasm.Vfunc
module Lower = Vasm.Lower
module I = Hhbc.Instr

let simple_repo () =
  Minihack.Compile.compile_source ~path:"t.mh"
    {|function callee($x) { return $x * 2; }
      function looped($n) {
        $s = 0;
        for ($i = 0; $i < $n; $i = $i + 1) { $s = $s + callee($i); }
        return $s;
      }
      class C { prop $p = 0; method m() { return $this->p; } }
      function dyn($o) { return $o->m(); }
      function main() { return looped(3) + dyn(new C()); }|}

let fid repo name = (Option.get (Hhbc.Repo.find_func_by_name repo name)).Hhbc.Func.id

(* --- inline tree --- *)

let test_tree_build () =
  let b = IT.Build.start 7 in
  let c1 = IT.Build.add_child b ~parent:0 ~site:3 ~fid:9 in
  let c2 = IT.Build.add_child b ~parent:c1 ~site:1 ~fid:11 in
  let tree = IT.Build.finish b in
  Alcotest.(check int) "3 nodes" 3 (IT.n_nodes tree);
  Alcotest.(check int) "2 inlined" 2 (IT.n_inlined tree);
  Alcotest.(check int) "root fid" 7 (IT.root tree).IT.fid;
  (match IT.child_at tree 0 3 with
  | Some n -> Alcotest.(check int) "child fid" 9 n.IT.fid
  | None -> Alcotest.fail "missing child");
  Alcotest.(check bool) "no child at other site" true (IT.child_at tree 0 4 = None);
  (match (IT.node tree c2).IT.parent with
  | Some (p, site) ->
    Alcotest.(check int) "parent" c1 p;
    Alcotest.(check int) "site" 1 site
  | None -> Alcotest.fail "no parent")

let test_tree_duplicate_site_rejected () =
  let b = IT.Build.start 0 in
  ignore (IT.Build.add_child b ~parent:0 ~site:2 ~fid:1);
  match IT.Build.add_child b ~parent:0 ~site:2 ~fid:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of duplicate site"

(* --- lowering --- *)

let test_lower_leaf () =
  let repo = simple_repo () in
  let tree = IT.Build.finish (IT.Build.start (fid repo "callee")) in
  let vf = Lower.lower repo tree ~mode:Lower.Optimized in
  Alcotest.(check int) "root" (fid repo "callee") vf.VF.root_fid;
  (* callee is a straight-line bb plus the compiler's unreachable
     null-return epilogue block *)
  Alcotest.(check int) "one block" 2 (VF.n_blocks vf);
  Alcotest.(check bool) "entry is its main block" true
    (VF.main_block vf ~node:0 ~bb:0 = Some vf.VF.entry);
  Alcotest.(check bool) "positive size" true (VF.code_size vf > 0)

let test_lower_cfg_shape () =
  let repo = simple_repo () in
  let f = fid repo "looped" in
  let tree = IT.Build.finish (IT.Build.start f) in
  let vf = Lower.lower repo tree ~mode:Lower.Optimized in
  let bytecode_blocks = Array.length (Hhbc.Func.basic_blocks (Hhbc.Repo.func repo f)) in
  (* every bytecode block has a main vasm block *)
  for bb = 0 to bytecode_blocks - 1 do
    Alcotest.(check bool) (Printf.sprintf "main block for bb%d" bb) true
      (VF.main_block vf ~node:0 ~bb <> None)
  done;
  (* arcs mirror the bytecode CFG (plus optional slow arcs) *)
  Alcotest.(check bool) "has arcs" true (Array.length (VF.arcs vf) > 0)

let test_lower_slow_paths () =
  let repo = simple_repo () in
  let f = fid repo "dyn" in
  let tree = IT.Build.finish (IT.Build.start f) in
  let vf = Lower.lower repo tree ~mode:Lower.Optimized in
  (* dyn's body has a CallMethod -> its bb gets a slow block *)
  Alcotest.(check bool) "slow block exists" true (VF.slow_block vf ~node:0 ~bb:0 <> None);
  let slow = Option.get (VF.slow_block vf ~node:0 ~bb:0) in
  Alcotest.(check bool) "slow role" true (vf.VF.blocks.(slow).VF.role = VF.Slow);
  (* main block lists the slow block as successor *)
  let main = Option.get (VF.main_block vf ~node:0 ~bb:0) in
  Alcotest.(check bool) "side-exit arc" true (List.mem slow vf.VF.blocks.(main).VF.succs)

let test_lower_inlined_callee () =
  let repo = simple_repo () in
  let f = fid repo "looped" and g = fid repo "callee" in
  (* find the call site of callee in looped's body *)
  let body = (Hhbc.Repo.func repo f).Hhbc.Func.body in
  let site = ref (-1) in
  Array.iteri (fun i instr -> match instr with I.Call (c, _) when c = g -> site := i | _ -> ()) body;
  Alcotest.(check bool) "found call site" true (!site >= 0);
  let b = IT.Build.start f in
  ignore (IT.Build.add_child b ~parent:0 ~site:!site ~fid:g);
  let tree = IT.Build.finish b in
  let vf = Lower.lower repo tree ~mode:Lower.Optimized in
  (* callee body appears as node 1 *)
  Alcotest.(check bool) "callee entry exists" true (VF.main_block vf ~node:1 ~bb:0 <> None);
  let callee_entry = Option.get (VF.main_block vf ~node:1 ~bb:0) in
  let bbs = Hhbc.Func.basic_blocks (Hhbc.Repo.func repo f) in
  let site_bb = Hhbc.Func.block_of_instr bbs !site in
  let caller_block = Option.get (VF.main_block vf ~node:0 ~bb:site_bb) in
  Alcotest.(check bool) "arc caller -> inlined entry" true
    (List.mem callee_entry vf.VF.blocks.(caller_block).VF.succs);
  (* callee's ret block flows back to the caller block *)
  Alcotest.(check bool) "return arc" true
    (List.mem caller_block vf.VF.blocks.(callee_entry).VF.succs
    || Array.exists
         (fun (b : VF.block) -> b.VF.node = 1 && List.mem caller_block b.VF.succs)
         vf.VF.blocks);
  (* inlining replaces the call with a guard: smaller than two separate
     bodies but bigger than the caller alone *)
  let caller_alone =
    Lower.lower repo (IT.Build.finish (IT.Build.start f)) ~mode:Lower.Optimized
  in
  Alcotest.(check bool) "inlined body adds code" true
    (VF.code_size vf > VF.code_size caller_alone)

let test_instrumented_bigger () =
  let repo = simple_repo () in
  let tree = IT.Build.finish (IT.Build.start (fid repo "looped")) in
  let plain = Lower.lower repo tree ~mode:Lower.Optimized in
  let inst = Lower.lower repo tree ~mode:Lower.Instrumented in
  Alcotest.(check int) "same structure" (VF.n_blocks plain) (VF.n_blocks inst);
  Alcotest.(check int) "per-block overhead"
    (VF.code_size plain + (VF.n_blocks plain * Lower.instrumentation_bytes))
    (VF.code_size inst)

let test_dynamic_ops_counting () =
  let repo = simple_repo () in
  let f = Hhbc.Repo.func repo (fid repo "dyn") in
  let n = Lower.dynamic_ops f.Hhbc.Func.body ~start:0 ~len:(Array.length f.Hhbc.Func.body) in
  Alcotest.(check bool) "at least the CallMethod" true (n >= 1)

(* The dense (node, bb) -> block id tables agree with [blocks] for every
   translation of the profiled codegen app: each Main and Slow block is found
   at its own (node, bb), every lowered bytecode block has a main block, and
   out-of-range lookups answer [None]. *)
let test_dense_ids_match_blocks () =
  let app = Workload.Codegen.generate Workload.App_spec.tiny in
  let repo = app.Workload.Codegen.repo in
  let counters = Jit_profile.Counters.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let engine =
    Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo
      (Mh_runtime.Heap.create repo layouts)
  in
  let mix = Workload.Request.mix app ~region:0 ~bucket:0 in
  let rng = Js_util.Rng.create 1 in
  for _ = 1 to 200 do
    ignore (Workload.Request.invoke engine app (Workload.Request.sample rng mix))
  done;
  let inlined = ref 0 and slow = ref 0 in
  for f = 0 to Hhbc.Repo.n_funcs repo - 1 do
    let vf = Jit.Compiler.plan_and_lower repo counters Jit.Compiler.default_config f in
    let nodes = IT.nodes vf.VF.tree in
    inlined := !inlined + IT.n_inlined vf.VF.tree;
    Array.iter
      (fun (b : VF.block) ->
        let found =
          match b.VF.role with
          | VF.Main -> VF.main_block vf ~node:b.VF.node ~bb:b.VF.bb
          | VF.Slow ->
            incr slow;
            VF.slow_block vf ~node:b.VF.node ~bb:b.VF.bb
        in
        Alcotest.(check (option int)) "block at its own (node, bb)" (Some b.VF.id) found)
      vf.VF.blocks;
    Array.iteri
      (fun node (n : IT.node) ->
        let n_bbs = Array.length (Hhbc.Func.basic_blocks (Hhbc.Repo.func repo n.IT.fid)) in
        for bb = 0 to n_bbs - 1 do
          let m = Option.get (VF.main_block vf ~node ~bb) in
          Alcotest.(check bool) "main block's own coordinates" true
            (let b = vf.VF.blocks.(m) in
             b.VF.node = node && b.VF.bb = bb && b.VF.role = VF.Main)
        done;
        List.iter
          (fun bb ->
            Alcotest.(check (option int)) "bb out of range" None (VF.main_block vf ~node ~bb);
            Alcotest.(check (option int)) "slow bb out of range" None (VF.slow_block vf ~node ~bb))
          [ -1; n_bbs; max_int; min_int ])
      nodes;
    List.iter
      (fun node ->
        Alcotest.(check (option int)) "node out of range" None (VF.main_block vf ~node ~bb:0);
        Alcotest.(check (option int)) "slow node out of range" None (VF.slow_block vf ~node ~bb:0))
      [ -1; Array.length nodes; max_int; min_int ]
  done;
  Alcotest.(check bool) "some translation inlines" true (!inlined > 0);
  Alcotest.(check bool) "some translation has slow paths" true (!slow > 0)

let () =
  Alcotest.run "vasm"
    [ ( "inline tree",
        [ Alcotest.test_case "build" `Quick test_tree_build;
          Alcotest.test_case "duplicate site" `Quick test_tree_duplicate_site_rejected
        ] );
      ( "lowering",
        [ Alcotest.test_case "leaf function" `Quick test_lower_leaf;
          Alcotest.test_case "cfg shape" `Quick test_lower_cfg_shape;
          Alcotest.test_case "slow paths" `Quick test_lower_slow_paths;
          Alcotest.test_case "inlined callee" `Quick test_lower_inlined_callee;
          Alcotest.test_case "instrumented size" `Quick test_instrumented_bigger;
          Alcotest.test_case "dynamic op count" `Quick test_dynamic_ops_counting;
          Alcotest.test_case "dense ids match blocks" `Quick test_dense_ids_match_blocks
        ] )
    ]
