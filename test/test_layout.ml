(* Code-layout algorithm tests: Ext-TSP, hot/cold splitting, C3. *)

module Cfg = Layout.Cfg
module Exttsp = Layout.Exttsp
module Hotcold = Layout.Hotcold
module C3 = Layout.C3

let mk_cfg blocks arcs entry =
  Cfg.create
    ~blocks:(Array.of_list (List.mapi (fun i (size, weight) -> { Cfg.id = i; size; weight }) blocks))
    ~arcs:(Array.of_list (List.map (fun (src, dst, weight) -> { Cfg.src; dst; weight }) arcs))
    ~entry

let is_permutation n order =
  let seen = Array.make n false in
  Array.length order = n
  && Array.for_all
       (fun id ->
         if id < 0 || id >= n || seen.(id) then false
         else begin
           seen.(id) <- true;
           true
         end)
       order

(* --- Ext-TSP score --- *)

let test_score_fallthrough () =
  (* two blocks laid consecutively: arc scores its full weight *)
  let cfg = mk_cfg [ (10, 100.); (10, 100.) ] [ (0, 1, 100.) ] 0 in
  Alcotest.(check (float 1e-6)) "fallthrough" 100. (Exttsp.score cfg [| 0; 1 |]);
  (* reversed: backward jump of 20 bytes within window *)
  let back = Exttsp.score cfg [| 1; 0 |] in
  Alcotest.(check bool) "backward partial credit" true (back > 0. && back < 100.);
  (* a self-loop scores nothing under any order *)
  let looped = mk_cfg [ (10, 100.); (10, 100.) ] [ (0, 1, 100.); (1, 1, 50.) ] 0 in
  Alcotest.(check (float 0.)) "self-loop adds 0" (Exttsp.score cfg [| 0; 1 |]) (Exttsp.score looped [| 0; 1 |])

let test_score_forward_window () =
  (* forward jump beyond the 1024-byte window scores zero *)
  let cfg = mk_cfg [ (10, 1.); (2000, 0.); (10, 1.) ] [ (0, 2, 50.) ] 0 in
  Alcotest.(check (float 1e-6)) "outside window" 0. (Exttsp.score cfg [| 0; 1; 2 |]);
  (* laid adjacent, full credit *)
  Alcotest.(check (float 1e-6)) "adjacent" 50. (Exttsp.score cfg [| 0; 2; 1 |])

let test_score_rejects_bad_order () =
  let cfg = mk_cfg [ (10, 1.); (10, 1.) ] [] 0 in
  Alcotest.check_raises "not a permutation" (Invalid_argument "Exttsp.score: not a permutation")
    (fun () -> ignore (Exttsp.score cfg [| 0; 0 |]))

(* --- Ext-TSP layout --- *)

let test_layout_entry_first () =
  let cfg =
    mk_cfg
      [ (10, 5.); (10, 100.); (10, 100.) ]
      [ (0, 1, 5.); (1, 2, 100.); (2, 1, 95.) ]
      0
  in
  let order = Exttsp.layout cfg in
  Alcotest.(check bool) "permutation" true (is_permutation 3 order);
  Alcotest.(check int) "entry first" 0 order.(0)

let test_layout_prefers_hot_fallthrough () =
  (* diamond: entry 0 -> {1 (hot), 2 (cold)} -> 3; hot side must follow entry *)
  let cfg =
    mk_cfg
      [ (10, 100.); (10, 99.); (10, 1.); (10, 100.) ]
      [ (0, 1, 99.); (0, 2, 1.); (1, 3, 99.); (2, 3, 1.) ]
      0
  in
  let order = Exttsp.layout cfg in
  Alcotest.(check int) "hot successor second" 1 order.(1);
  Alcotest.(check int) "join third" 3 order.(2);
  let src_score = Exttsp.score cfg (Layout.Baselines.source_order cfg) in
  Alcotest.(check bool) "beats source order" true (Exttsp.score cfg order >= src_score)

let test_layout_loop_rotation () =
  (* entry -> header; loop header <-> body; exit. the body should sit right
     after the header for the fallthrough *)
  let cfg =
    mk_cfg
      [ (10, 1.); (10, 100.); (10, 99.); (10, 1.) ]
      [ (0, 1, 1.); (1, 2, 99.); (2, 1, 98.); (1, 3, 1.) ]
      0
  in
  let order = Exttsp.layout cfg in
  let pos = Array.make 4 0 in
  Array.iteri (fun i b -> pos.(b) <- i) order;
  Alcotest.(check int) "body after header" (pos.(1) + 1) pos.(2)

let test_layout_improves_on_random_cfgs () =
  (* on random CFGs the optimizer should never do much worse than source
     order, and usually better *)
  let rng = Js_util.Rng.create 123 in
  let better = ref 0 in
  for _ = 1 to 25 do
    let n = 4 + Js_util.Rng.int rng 12 in
    let blocks = List.init n (fun _ -> (8 + Js_util.Rng.int rng 60, Js_util.Rng.float rng 100.)) in
    let arcs =
      List.init (2 * n) (fun _ ->
          let s = Js_util.Rng.int rng n and d = Js_util.Rng.int rng n in
          (s, d, Js_util.Rng.float rng 50.))
    in
    let cfg = mk_cfg blocks arcs 0 in
    let order = Exttsp.layout cfg in
    Alcotest.(check bool) "permutation" true (is_permutation n order);
    Alcotest.(check int) "entry first" 0 order.(0);
    let s_opt = Exttsp.score cfg order in
    let s_src = Exttsp.score cfg (Layout.Baselines.source_order cfg) in
    if s_opt > s_src +. 1e-9 then incr better;
    Alcotest.(check bool) "no catastrophic regression" true (s_opt >= 0.5 *. s_src)
  done;
  Alcotest.(check bool) "usually improves" true (!better >= 15)

(* Pins Ext-TSP's exact output: the md5 of [Exttsp.layout] over 500 seeded
   random CFGs.  Small-integer weights make equal merge gains common, so the
   tie-break and the order in which chain pairs are visited both show; entries
   other than block 0, self-loops and duplicate arcs are drawn too, and every
   100th CFG has over 128 blocks on a fall-through backbone, so chains grow
   past [max_chain_split] and the no-split path runs. *)
let pinned_cfg rng k =
  let module R = Js_util.Rng in
  let big = k mod 100 = 99 in
  let n = if big then 130 + R.int rng 30 else 1 + R.int rng 24 in
  let small_w = R.bool rng 0.5 in
  let w () = if small_w then float_of_int (R.int rng 4) else R.float rng 100. in
  let blocks = List.init n (fun _ -> (1 + R.int rng 64, w ())) in
  let backbone = if big then List.init (n - 1) (fun i -> (i, i + 1, 1. +. w ())) else [] in
  let random_arcs =
    List.init (R.int rng ((2 * n) + 1)) (fun _ ->
        let src = R.int rng n in
        let dst = if R.bool rng 0.1 then src else R.int rng n in
        (src, dst, w ()))
  in
  let arcs = backbone @ random_arcs in
  let dups = List.filter (fun _ -> R.bool rng 0.15) arcs in
  let entry = if R.bool rng 0.5 then 0 else R.int rng n in
  mk_cfg blocks (arcs @ dups) entry

let layout_digest () =
  let rng = Js_util.Rng.create 2020 in
  let buf = Buffer.create 65536 in
  for k = 0 to 499 do
    Array.iter (fun b -> Buffer.add_string buf (string_of_int b ^ ",")) (Exttsp.layout (pinned_cfg rng k));
    Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_layout_pinned () =
  Alcotest.(check string) "layout md5 over 500 random cfgs" "557ec2a9b784c0d7b17690c6adb1a34d" (layout_digest ())

(* --- hot/cold --- *)

let test_hotcold_split () =
  let cfg = mk_cfg [ (10, 100.); (10, 0.); (10, 90.); (10, 0.) ] [] 0 in
  let { Hotcold.hot; cold } = Hotcold.split cfg ~threshold:0.01 in
  Alcotest.(check (array int)) "hot" [| 0; 2 |] hot;
  Alcotest.(check (array int)) "cold" [| 1; 3 |] cold

let test_hotcold_entry_always_hot () =
  let cfg = mk_cfg [ (10, 0.); (10, 100.) ] [] 0 in
  let { Hotcold.hot; _ } = Hotcold.split cfg ~threshold:0.5 in
  Alcotest.(check bool) "entry kept hot" true (Array.exists (fun b -> b = 0) hot)

let test_hotcold_arrange () =
  let cfg =
    mk_cfg
      [ (10, 100.); (10, 0.); (10, 90.) ]
      [ (0, 2, 90.); (0, 1, 1.) ]
      0
  in
  let order, n_hot = Hotcold.arrange cfg ~threshold:0.01 ~order_hot:Exttsp.layout in
  Alcotest.(check int) "two hot blocks" 2 n_hot;
  Alcotest.(check bool) "permutation" true (is_permutation 3 order);
  Alcotest.(check int) "cold block last" 1 order.(2);
  Alcotest.(check (array int)) "hot pair laid for fallthrough" [| 0; 2 |] (Array.sub order 0 2)

(* --- C3 --- *)

let mk_nodes specs = Array.of_list (List.mapi (fun i (size, samples) -> { C3.id = i; size; samples }) specs)
let mk_arcs l = Array.of_list (List.map (fun (caller, callee, weight) -> { C3.caller; callee; weight }) l)

let test_c3_permutation () =
  let nodes = mk_nodes [ (100, 10.); (100, 5.); (100, 1.) ] in
  let arcs = mk_arcs [ (0, 1, 50.); (1, 2, 10.) ] in
  let order = C3.order ~nodes ~arcs () in
  Alcotest.(check bool) "permutation" true (is_permutation 3 order)

let test_c3_clusters_caller_callee () =
  (* hot pair (0 -> 1) must be adjacent, cold 2 elsewhere *)
  let nodes = mk_nodes [ (100, 100.); (100, 90.); (100, 1.) ] in
  let arcs = mk_arcs [ (0, 1, 90.); (2, 0, 1.) ] in
  let order = C3.order ~nodes ~arcs () in
  let pos = Array.make 3 0 in
  Array.iteri (fun i f -> pos.(f) <- i) order;
  Alcotest.(check int) "callee right after caller" (pos.(0) + 1) pos.(1)

let test_c3_size_cap () =
  (* merging would exceed the cluster cap, so the pair stays separate *)
  let nodes = mk_nodes [ (600, 10.); (600, 9.) ] in
  let arcs = mk_arcs [ (0, 1, 100.) ] in
  let capped = C3.order ~nodes ~arcs ~max_cluster_size:1000 () in
  Alcotest.(check bool) "still a permutation" true (is_permutation 2 capped);
  let merged = C3.order ~nodes ~arcs ~max_cluster_size:4096 () in
  Alcotest.(check (array int)) "merges when it fits" [| 0; 1 |] merged

let test_c3_call_distance_improves () =
  (* chain 0->1->2->3 with strong arcs vs hotness-only order *)
  let nodes = mk_nodes [ (500, 10.); (500, 40.); (500, 20.); (500, 30.) ] in
  let arcs = mk_arcs [ (0, 1, 100.); (1, 2, 100.); (2, 3, 100.) ] in
  let c3 = C3.order ~nodes ~arcs () in
  let hot = Layout.Baselines.by_hotness ~nodes in
  let d_c3 = C3.weighted_call_distance ~nodes ~arcs c3 in
  let d_hot = C3.weighted_call_distance ~nodes ~arcs hot in
  Alcotest.(check bool) "c3 shortens call distance" true (d_c3 <= d_hot)

let test_c3_deterministic () =
  let nodes = mk_nodes [ (10, 3.); (10, 3.); (10, 3.) ] in
  let arcs = mk_arcs [ (0, 1, 1.); (1, 2, 1.) ] in
  Alcotest.(check (array int)) "stable under ties" (C3.order ~nodes ~arcs ())
    (C3.order ~nodes ~arcs ())

(* --- baselines --- *)

let test_pettis_hansen () =
  let cfg =
    mk_cfg
      [ (10, 10.); (10, 9.); (10, 1.) ]
      [ (0, 1, 9.); (0, 2, 1.) ]
      0
  in
  let order = Layout.Baselines.pettis_hansen cfg in
  Alcotest.(check bool) "permutation" true (is_permutation 3 order);
  Alcotest.(check int) "entry first" 0 order.(0);
  Alcotest.(check int) "heavy arc chained" 1 order.(1)

let test_by_hotness () =
  let nodes = mk_nodes [ (10, 1.); (10, 5.); (10, 3.) ] in
  Alcotest.(check (array int)) "descending samples" [| 1; 2; 0 |]
    (Layout.Baselines.by_hotness ~nodes)

let () =
  Alcotest.run "layout"
    [ ( "exttsp",
        [ Alcotest.test_case "fallthrough score" `Quick test_score_fallthrough;
          Alcotest.test_case "forward window" `Quick test_score_forward_window;
          Alcotest.test_case "bad order rejected" `Quick test_score_rejects_bad_order;
          Alcotest.test_case "entry first" `Quick test_layout_entry_first;
          Alcotest.test_case "hot fallthrough" `Quick test_layout_prefers_hot_fallthrough;
          Alcotest.test_case "loop bodies" `Quick test_layout_loop_rotation;
          Alcotest.test_case "random cfgs" `Quick test_layout_improves_on_random_cfgs;
          Alcotest.test_case "pinned output" `Quick test_layout_pinned
        ] );
      ( "hotcold",
        [ Alcotest.test_case "split" `Quick test_hotcold_split;
          Alcotest.test_case "entry always hot" `Quick test_hotcold_entry_always_hot;
          Alcotest.test_case "arrange" `Quick test_hotcold_arrange
        ] );
      ( "c3",
        [ Alcotest.test_case "permutation" `Quick test_c3_permutation;
          Alcotest.test_case "caller/callee adjacency" `Quick test_c3_clusters_caller_callee;
          Alcotest.test_case "size cap" `Quick test_c3_size_cap;
          Alcotest.test_case "call distance" `Quick test_c3_call_distance_improves;
          Alcotest.test_case "deterministic" `Quick test_c3_deterministic
        ] );
      ( "baselines",
        [ Alcotest.test_case "pettis-hansen" `Quick test_pettis_hansen;
          Alcotest.test_case "by hotness" `Quick test_by_hotness
        ] )
    ]
