(* JIT pipeline tests: inliner, weight estimation, code cache, compiler,
   context replay, vasm profiles. *)

module C = Jit_profile.Counters
module IT = Vasm.Inline_tree
module VF = Vasm.Vfunc

let app_src =
  {|class A { prop $p = 1; method m() { return $this->p; } }
    class B extends A { method m() { return $this->p * 2; } }
    function tiny($x) { return $x + 1; }
    function hot($o, $n) {
      $s = 0;
      for ($i = 0; $i < $n; $i = $i + 1) { $s = $s + tiny($i) + $o->m(); }
      return $s;
    }
    function main() {
      $a = new A();
      $b = new B();
      $acc = 0;
      for ($r = 0; $r < 30; $r = $r + 1) {
        $acc = $acc + hot($a, 5);
        if ($r % 10 == 0) { $acc = $acc + hot($b, 5); }
      }
      return $acc;
    }|}

let profiled_setup () =
  let repo = Minihack.Compile.compile_source ~path:"t.mh" app_src in
  let counters = C.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let heap = Mh_runtime.Heap.create repo layouts in
  let engine = Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo heap in
  let result = Interp.Engine.run_main engine in
  (repo, counters, layouts, result)

let fid repo name = (Option.get (Hhbc.Repo.find_func_by_name repo name)).Hhbc.Func.id

(* --- inliner --- *)

let test_inliner_inlines_hot_direct_call () =
  let repo, counters, _, _ = profiled_setup () in
  let tree = Jit.Inliner.plan repo counters (fid repo "hot") Jit.Inliner.default_params in
  let inlined_fids = Array.to_list (IT.nodes tree) |> List.map (fun n -> n.IT.fid) in
  Alcotest.(check bool) "tiny inlined into hot" true (List.mem (fid repo "tiny") inlined_fids)

let test_inliner_speculates_dominant_method () =
  let repo, counters, _, _ = profiled_setup () in
  (* A::m dominates the dispatch in hot (A receiver 30x vs B 3x) *)
  let tree = Jit.Inliner.plan repo counters (fid repo "hot") Jit.Inliner.default_params in
  let inlined_fids = Array.to_list (IT.nodes tree) |> List.map (fun n -> n.IT.fid) in
  let a_m =
    let a = (Option.get (Hhbc.Repo.find_class_by_name repo "A")).Hhbc.Class_def.id in
    let m = Option.get (Hhbc.Repo.find_name repo "m") in
    Option.get (Hhbc.Repo.resolve_method repo a m)
  in
  Alcotest.(check bool) "A::m speculatively inlined" true (List.mem a_m inlined_fids)

let test_inliner_respects_budget () =
  let repo, counters, _, _ = profiled_setup () in
  let params = { Jit.Inliner.default_params with Jit.Inliner.max_total_bytecode = 0 } in
  let tree = Jit.Inliner.plan repo counters (fid repo "hot") params in
  Alcotest.(check int) "no inlining under zero budget" 0 (IT.n_inlined tree)

let test_inliner_no_recursion () =
  let src = "function r($n) { if ($n == 0) { return 0; } return r($n - 1); }\nfunction main() { return r(20); }" in
  let repo = Minihack.Compile.compile_source ~path:"t.mh" src in
  let counters = C.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let engine =
    Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo
      (Mh_runtime.Heap.create repo layouts)
  in
  ignore (Interp.Engine.run_main engine);
  let tree = Jit.Inliner.plan repo counters (fid repo "r") Jit.Inliner.default_params in
  Alcotest.(check int) "self-recursion not inlined" 0 (IT.n_inlined tree)

(* --- weight estimation --- *)

let test_weights_scale_with_counts () =
  let repo, counters, _, _ = profiled_setup () in
  let f = fid repo "hot" in
  let tree = Jit.Inliner.plan repo counters f Jit.Inliner.default_params in
  let vf = Vasm.Lower.lower repo tree ~mode:Vasm.Lower.Optimized in
  let w = Jit.Weights.estimate repo counters vf in
  (* entry weight equals the function's profiled entries, up to the
     documented pipeline-drift factor in [0.55, 1.45] *)
  let entries = float_of_int (C.func_entries counters f) in
  let entry_w = w.Jit.Weights.block_weights.(vf.VF.entry) in
  Alcotest.(check bool) "entry block weight tracks entries" true
    (entry_w >= 0.55 *. entries && entry_w <= 1.45 *. entries);
  (* loop body hotter than entry *)
  let max_w = Array.fold_left Float.max 0. w.Jit.Weights.block_weights in
  Alcotest.(check bool) "loop body hotter" true
    (max_w > w.Jit.Weights.block_weights.(vf.VF.entry));
  (* slow paths estimated cold (the §V-A blind spot) *)
  Array.iter
    (fun (b : VF.block) ->
      if b.VF.role = VF.Slow then
        Alcotest.(check (float 1e-9)) "slow path estimated 0" 0. w.Jit.Weights.block_weights.(b.VF.id))
    vf.VF.blocks

(* --- code cache --- *)

let mk_vf repo name =
  let tree = IT.Build.finish (IT.Build.start (fid repo name)) in
  Vasm.Lower.lower repo tree ~mode:Vasm.Lower.Optimized

let test_code_cache_placement () =
  let repo, _, _, _ = profiled_setup () in
  let cache = Jit.Code_cache.create () in
  let vf = mk_vf repo "hot" in
  let order = Array.init (VF.n_blocks vf) (fun i -> i) in
  let placed = Option.get (Jit.Code_cache.place cache vf ~order ~n_hot:(VF.n_blocks vf)) in
  Alcotest.(check int) "hot bytes" (VF.code_size vf) placed.Jit.Code_cache.hot_size;
  Alcotest.(check int) "lookup finds it" placed.Jit.Code_cache.hot_base
    (Option.get (Jit.Code_cache.lookup cache (fid repo "hot"))).Jit.Code_cache.hot_base;
  (* blocks laid out contiguously in order *)
  let addr0 = Jit.Code_cache.block_addr placed order.(0) in
  let addr1 = Jit.Code_cache.block_addr placed order.(1) in
  Alcotest.(check int) "contiguous" (addr0 + vf.VF.blocks.(order.(0)).VF.size) addr1

let test_code_cache_hot_cold_areas () =
  let repo, _, _, _ = profiled_setup () in
  let cache = Jit.Code_cache.create () in
  let vf = mk_vf repo "hot" in
  let order = Array.init (VF.n_blocks vf) (fun i -> i) in
  let n_hot = max 1 (VF.n_blocks vf - 1) in
  let placed = Option.get (Jit.Code_cache.place cache vf ~order ~n_hot) in
  let cold_block = order.(VF.n_blocks vf - 1) in
  Alcotest.(check bool) "cold block in cold area" true
    (Jit.Code_cache.block_addr placed cold_block >= placed.Jit.Code_cache.cold_base);
  Alcotest.(check bool) "cold area far from hot" true
    (placed.Jit.Code_cache.cold_base - placed.Jit.Code_cache.hot_base > 0x1000_0000)

let test_code_cache_overflow () =
  let repo, _, _, _ = profiled_setup () in
  let cache = Jit.Code_cache.create ~hot_capacity:8 ~cold_capacity:8 () in
  let vf = mk_vf repo "hot" in
  let order = Array.init (VF.n_blocks vf) (fun i -> i) in
  Alcotest.(check bool) "overflow refused" true
    (Jit.Code_cache.place cache vf ~order ~n_hot:(VF.n_blocks vf) = None)

let test_code_cache_reset () =
  let repo, _, _, _ = profiled_setup () in
  let cache = Jit.Code_cache.create () in
  let vf = mk_vf repo "tiny" in
  let order = Array.init (VF.n_blocks vf) (fun i -> i) in
  ignore (Jit.Code_cache.place cache vf ~order ~n_hot:1);
  Jit.Code_cache.reset cache;
  Alcotest.(check int) "empty" 0 (Jit.Code_cache.used_hot cache);
  Alcotest.(check bool) "lookup cleared" true (Jit.Code_cache.lookup cache (fid repo "tiny") = None)

(* --- compiler pipeline --- *)

let test_compiler_end_to_end () =
  let repo, counters, _, _ = profiled_setup () in
  let config = { Jit.Compiler.default_config with Jit.Compiler.min_entries = 2 } in
  let compiled = Jit.Compiler.compile repo counters config ~measured:None in
  Alcotest.(check bool) "translations placed" true (compiled.Jit.Compiler.n_translations > 0);
  Alcotest.(check int) "none skipped" 0 compiled.Jit.Compiler.n_skipped;
  Alcotest.(check bool) "hot got a translation" true
    (Jit.Compiler.lookup compiled (fid repo "hot") <> None);
  (* cold functions are not compiled *)
  let selected = Jit.Compiler.select repo counters ~min_entries:1_000_000 in
  Alcotest.(check (list int)) "nothing passes an impossible bar" [] selected

let test_compiler_shipped_order_respected () =
  let repo, counters, _, _ = profiled_setup () in
  let config = { Jit.Compiler.default_config with Jit.Compiler.min_entries = 2 } in
  let vfuncs = Jit.Compiler.lower_all repo counters config in
  let shipped = Array.of_list (List.rev_map fst vfuncs) in
  let compiled = Jit.Compiler.finish repo counters config ~measured:None ~order:shipped vfuncs in
  Alcotest.(check (array int)) "placement follows shipped order" shipped
    compiled.Jit.Compiler.order

(* --- context replay + vasm profile --- *)

let run_measured () =
  let repo, counters, layouts, _ = profiled_setup () in
  let config = { Jit.Compiler.default_config with Jit.Compiler.min_entries = 2 } in
  let vfuncs = Jit.Compiler.lower_all repo counters config in
  let measured = Jit.Vasm_profile.create () in
  let probes =
    Jit.Context.probes repo
      ~lookup:(fun f -> List.assoc_opt f vfuncs)
      (Jit.Vasm_profile.handler measured)
  in
  let engine = Interp.Engine.create ~probes repo (Mh_runtime.Heap.create repo layouts) in
  ignore (Interp.Engine.run_main engine);
  (repo, counters, vfuncs, measured)

let test_context_counts_blocks () =
  let repo, _, vfuncs, measured = run_measured () in
  let vf = List.assoc (fid repo "hot") vfuncs in
  let w = Jit.Vasm_profile.block_weights measured vf in
  (* hot was entered 33 times *)
  Alcotest.(check (float 0.5)) "entry count" 33. w.(vf.VF.entry);
  Alcotest.(check bool) "arcs measured" true
    (Array.exists (fun (src, dst) -> Jit.Vasm_profile.arc_weight measured vf (src, dst) > 0.)
       (VF.arcs vf))

let test_context_tier2_call_graph_folds_inlined () =
  let repo, counters, _, measured = run_measured () in
  (* tiny is inlined into hot: the tier-2 graph must NOT contain the
     hot->tiny arc, while the tier-1 graph does *)
  let hot = fid repo "hot" and tiny = fid repo "tiny" in
  let tier1_has = List.exists (fun (a, b, _) -> a = hot && b = tiny) (C.call_graph counters) in
  let tier2_has =
    List.exists (fun (a, b, _) -> a = hot && b = tiny) (Jit.Vasm_profile.call_graph measured)
  in
  Alcotest.(check bool) "tier-1 sees the call" true tier1_has;
  Alcotest.(check bool) "tier-2 folded it away" false tier2_has

let test_context_guard_failure_slow_path () =
  let repo, _, vfuncs, measured = run_measured () in
  (* hot's method dispatch speculates A::m; B receivers defeat the guard.
     The slow block of the dispatch bb must have measured weight > 0. *)
  let vf = List.assoc (fid repo "hot") vfuncs in
  let w = Jit.Vasm_profile.block_weights measured vf in
  let slow_weight = ref 0. in
  Array.iter
    (fun (b : VF.block) -> if b.VF.role = VF.Slow then slow_weight := !slow_weight +. w.(b.VF.id))
    vf.VF.blocks;
  Alcotest.(check bool) "guard failures observed" true (!slow_weight > 0.)

let test_context_pic_slow_path () =
  (* a megamorphic site: 3 receiver classes defeat the 2-entry inline cache,
     so the third class' dispatches execute the slow block in replay *)
  let src =
    {|class A { method m() { return 1; } }
      class B extends A { method m() { return 2; } }
      class C extends A { method m() { return 3; } }
      function dispatch($o) { return $o->m(); }
      function main() {
        $acc = 0;
        $a = new A(); $b = new B(); $c = new C();
        for ($i = 0; $i < 20; $i = $i + 1) {
          $acc = $acc + dispatch($a) + dispatch($b) + dispatch($c);
        }
        return $acc;
      }|}
  in
  let repo = Minihack.Compile.compile_source ~path:"t.mh" src in
  let counters = C.create repo in
  let layouts = Mh_runtime.Class_layout.build repo ~reorder:false ~hotness:(fun _ _ -> 0) in
  let engine =
    Interp.Engine.create ~probes:(Jit_profile.Collector.probes counters) repo
      (Mh_runtime.Heap.create repo layouts)
  in
  ignore (Interp.Engine.run_main engine);
  (* dispatch's method site is 3-way polymorphic: no dominant target, so the
     inliner leaves it alone and replay must route misses via the PIC *)
  let config = { Jit.Compiler.default_config with Jit.Compiler.min_entries = 2 } in
  let vfuncs = Jit.Compiler.lower_all repo counters config in
  let dispatch = fid repo "dispatch" in
  let vf = List.assoc dispatch vfuncs in
  Alcotest.(check int) "dispatch not inlined into" 0 (IT.n_inlined vf.VF.tree);
  let measured = Jit.Vasm_profile.create () in
  let probes =
    Jit.Context.probes repo
      ~lookup:(fun f -> List.assoc_opt f vfuncs)
      (Jit.Vasm_profile.handler measured)
  in
  let engine2 = Interp.Engine.create ~probes repo (Mh_runtime.Heap.create repo layouts) in
  ignore (Interp.Engine.run_main engine2);
  let w = Jit.Vasm_profile.block_weights measured vf in
  let slow_weight = ref 0. in
  Array.iter
    (fun (b : VF.block) -> if b.VF.role = VF.Slow then slow_weight := !slow_weight +. w.(b.VF.id))
    vf.VF.blocks;
  (* 20 iterations x 1 uncached class, minus warm-up learning *)
  Alcotest.(check bool) "inline-cache misses take the slow path" true (!slow_weight >= 15.)

let test_weights_drift_bounded () =
  let repo, counters, _, _ = profiled_setup () in
  let vf = mk_vf repo "hot" in
  let est = Jit.Weights.estimate repo counters vf in
  let entries = float_of_int (C.func_entries counters (fid repo "hot")) in
  (* drift never nulls a hot block or inflates it beyond its band *)
  let w = est.Jit.Weights.block_weights.(vf.VF.entry) in
  Alcotest.(check bool) "drift within [0.55, 1.45]" true
    (w >= 0.55 *. entries -. 1e-6 && w <= 1.45 *. entries +. 1e-6)

let test_code_cache_cold_dilution () =
  (* consecutive cold chunks never share a 16 KiB-aligned region *)
  let repo, _, _, _ = profiled_setup () in
  let cache = Jit.Code_cache.create () in
  let place name =
    let vf = mk_vf repo name in
    let order = Array.init (VF.n_blocks vf) (fun i -> i) in
    Option.get (Jit.Code_cache.place cache vf ~order ~n_hot:1)
  in
  let p1 = place "hot" in
  let p2 = place "tiny" in
  Alcotest.(check bool) "cold chunks diluted" true
    (p2.Jit.Code_cache.cold_base - p1.Jit.Code_cache.cold_base >= 16 * 1024)

let test_vasm_profile_roundtrip () =
  let repo, _, vfuncs, measured = run_measured () in
  let w = Js_util.Binio.Writer.create () in
  Jit.Vasm_profile.serialize measured w;
  let back = Jit.Vasm_profile.deserialize (Js_util.Binio.Reader.of_string (Js_util.Binio.Writer.contents w)) in
  let vf = List.assoc (fid repo "hot") vfuncs in
  Alcotest.(check (array (float 1e-9))) "block weights survive"
    (Jit.Vasm_profile.block_weights measured vf)
    (Jit.Vasm_profile.block_weights back vf);
  Alcotest.(check bool) "call graph survives" true
    (Jit.Vasm_profile.call_graph measured = Jit.Vasm_profile.call_graph back)

(* --- trace adapter --- *)

(* A handler built before any placement must follow the code cache as it is
   at each event: a later [place], a [reset] and a re-place in a new order. *)
let test_trace_adapter_follows_cache () =
  let repo, _, _, _ = profiled_setup () in
  let cache = Jit.Code_cache.create () in
  let events = ref [] in
  let sink =
    {
      Jit.Trace_adapter.fetch = (fun ~addr ~size -> events := `Fetch (addr, size) :: !events);
      branch = (fun ~pc ~target ~taken -> events := `Branch (pc, target, taken) :: !events);
      load = (fun ~addr:_ -> ());
      store = (fun ~addr:_ -> ());
    }
  in
  let h = Jit.Trace_adapter.handler ~cache sink in
  let vf = mk_vf repo "hot" in
  let n = VF.n_blocks vf in
  (* a conditional block: its second successor has branch slot 1 *)
  let src =
    (List.find (fun (b : VF.block) -> List.length b.VF.succs >= 2) (Array.to_list vf.VF.blocks))
      .VF.id
  in
  let succs = Array.of_list vf.VF.blocks.(src).VF.succs in
  let drain () =
    let e = List.rev !events in
    events := [];
    e
  in
  h.Jit.Context.on_vblock vf src;
  h.Jit.Context.on_varc vf ~src ~dst:succs.(1);
  Alcotest.(check int) "no placement, no events" 0 (List.length (drain ()));
  let expect placed =
    h.Jit.Context.on_vblock vf src;
    h.Jit.Context.on_varc vf ~src ~dst:succs.(1);
    let src_end = Jit.Code_cache.block_addr placed src + vf.VF.blocks.(src).VF.size in
    let dst = Jit.Code_cache.block_addr placed succs.(1) in
    Alcotest.(check bool) "fetch and branch at the placed addresses" true
      (drain ()
      = [ `Fetch (Jit.Code_cache.block_addr placed src, vf.VF.blocks.(src).VF.size);
          `Branch (src_end - 8, dst, dst <> src_end)
        ])
  in
  (* placed after the handler was built *)
  let first = Option.get (Jit.Code_cache.place cache vf ~order:(Array.init n Fun.id) ~n_hot:n) in
  expect first;
  (* reset: the old placement is gone *)
  Jit.Code_cache.reset cache;
  h.Jit.Context.on_vblock vf src;
  Alcotest.(check int) "reset, no events" 0 (List.length (drain ()));
  (* re-placed after another translation, in reverse order *)
  let tiny = mk_vf repo "tiny" in
  ignore
    (Jit.Code_cache.place cache tiny ~order:(Array.init (VF.n_blocks tiny) Fun.id)
       ~n_hot:(VF.n_blocks tiny));
  let second =
    Option.get (Jit.Code_cache.place cache vf ~order:(Array.init n (fun i -> n - 1 - i)) ~n_hot:n)
  in
  Alcotest.(check bool) "new addresses" true
    (Jit.Code_cache.block_addr second src <> Jit.Code_cache.block_addr first src);
  expect second;
  (* an arc to a block that is not a successor takes slot 0's pc *)
  let other = List.find (fun b -> not (Array.mem b succs)) (List.init n Fun.id) in
  h.Jit.Context.on_varc vf ~src ~dst:other;
  let src_end = Jit.Code_cache.block_addr second src + vf.VF.blocks.(src).VF.size in
  Alcotest.(check bool) "non-successor uses slot 0" true
    (match drain () with [ `Branch (pc, _, _) ] -> pc = src_end - 4 | _ -> false)

let test_tiers_ordering () =
  let cyc m = Jit.Tiers.cycles_per_instr m in
  Alcotest.(check bool) "interp slowest" true
    (cyc Jit.Tiers.Interp > cyc Jit.Tiers.Profiling
    && cyc Jit.Tiers.Profiling > cyc Jit.Tiers.Live
    && cyc Jit.Tiers.Live > cyc Jit.Tiers.Optimized);
  Alcotest.(check bool) "optimized compile costliest" true
    (Jit.Tiers.compile_cycles_per_byte Jit.Tiers.Optimized
    > Jit.Tiers.compile_cycles_per_byte Jit.Tiers.Profiling)

let () =
  Alcotest.run "jit"
    [ ( "inliner",
        [ Alcotest.test_case "hot direct call" `Quick test_inliner_inlines_hot_direct_call;
          Alcotest.test_case "dominant method" `Quick test_inliner_speculates_dominant_method;
          Alcotest.test_case "budget" `Quick test_inliner_respects_budget;
          Alcotest.test_case "recursion" `Quick test_inliner_no_recursion
        ] );
      ("weights", [ Alcotest.test_case "estimates" `Quick test_weights_scale_with_counts ]);
      ( "code cache",
        [ Alcotest.test_case "placement" `Quick test_code_cache_placement;
          Alcotest.test_case "hot/cold areas" `Quick test_code_cache_hot_cold_areas;
          Alcotest.test_case "overflow" `Quick test_code_cache_overflow;
          Alcotest.test_case "reset" `Quick test_code_cache_reset
        ] );
      ( "compiler",
        [ Alcotest.test_case "end to end" `Quick test_compiler_end_to_end;
          Alcotest.test_case "shipped order" `Quick test_compiler_shipped_order_respected
        ] );
      ( "context replay",
        [ Alcotest.test_case "block counts" `Quick test_context_counts_blocks;
          Alcotest.test_case "tier-2 call graph" `Quick test_context_tier2_call_graph_folds_inlined;
          Alcotest.test_case "guard failures" `Quick test_context_guard_failure_slow_path;
          Alcotest.test_case "inline-cache misses" `Quick test_context_pic_slow_path;
          Alcotest.test_case "weight drift bounds" `Quick test_weights_drift_bounded;
          Alcotest.test_case "cold dilution" `Quick test_code_cache_cold_dilution;
          Alcotest.test_case "profile roundtrip" `Quick test_vasm_profile_roundtrip
        ] );
      ( "trace adapter",
        [ Alcotest.test_case "follows the code cache" `Quick test_trace_adapter_follows_cache
        ] );
      ("tiers", [ Alcotest.test_case "cost ordering" `Quick test_tiers_ordering ])
    ]
