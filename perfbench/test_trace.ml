let span id name parent start stop = { Trace.id; name; parent; start; stop }
let close = Alcotest.(check (float 1e-9))

(* root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
   grandchild [2, 3] inside the first child *)
let spans =
  [ span 0 "bench.run" (-1) 0. 10.;
    span 1 "core.boot" 0 1. 4.;
    span 2 "jit.finish" 1 2. 3.;
    span 3 "machine.replay" 0 3. 6.
  ]

let test_covered () =
  close "disjoint" 3. (Trace.covered ~lo:0. ~hi:10. [ (1., 2.); (5., 7.) ]);
  close "overlapping" 5. (Trace.covered ~lo:0. ~hi:10. [ (1., 4.); (3., 6.) ]);
  close "nested" 3. (Trace.covered ~lo:0. ~hi:10. [ (1., 4.); (2., 3.) ]);
  close "clipped" 1.5 (Trace.covered ~lo:2. ~hi:4. [ (0., 3.); (3.5, 9.) ]);
  close "empty" 0. (Trace.covered ~lo:0. ~hi:1. [])

let test_self_time () =
  let self name = Trace.self_time spans (List.hd (Trace.find spans name)) in
  (* children cover [1, 6]: grandchildren do not count against the root *)
  close "root" 5. (self "bench.run");
  close "child with grandchild" 2. (self "core.boot");
  close "leaf" 1. (self "jit.finish");
  close "leaf 2" 3. (self "machine.replay")

let test_by_layer () =
  let root = List.hd spans in
  let layers = Trace.self_by_layer spans root in
  Alcotest.(check (list string))
    "layers" [ "bench"; "core"; "jit"; "machine" ] (List.map fst layers);
  (* overlapping siblings are double-counted only by what they overlap *)
  close "sum" 11. (List.fold_left (fun a (_, s) -> a +. s) 0. layers);
  let only_core = Trace.self_by_layer spans (List.nth spans 1) in
  Alcotest.(check (list string)) "subtree" [ "core"; "jit" ] (List.map fst only_core);
  close "subtree sum" 3. (List.fold_left (fun a (_, s) -> a +. s) 0. only_core)

let test_recorder () =
  let tr = Trace.create ~enabled:true in
  let v = Trace.span tr "bench.run" (fun () -> Trace.span tr "sim.run" (fun () -> 42)) in
  Alcotest.(check int) "value" 42 v;
  match Trace.spans tr with
  | [ root; child ] ->
    Alcotest.(check string) "opened first" "bench.run" root.Trace.name;
    Alcotest.(check int) "parent" root.Trace.id child.Trace.parent;
    Alcotest.(check bool) "nested" true
      (root.Trace.start <= child.Trace.start && child.Trace.stop <= root.Trace.stop);
    close "layers sum to the root"
      (Trace.duration root)
      (List.fold_left (fun a (_, s) -> a +. s) 0. (Trace.self_by_layer [ root; child ] root))
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_disabled () =
  let tr = Trace.create ~enabled:false in
  Alcotest.(check int) "value" 7 (Trace.span tr "bench.run" (fun () -> 7));
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans tr))

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Trace.valid_name n))
    [ "wall_s"; "jit.finish_s"; "machine.l1i_miss_rate"; "9lives"; "a-b.c_d"; String.make 64 'x' ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S" n) false (Trace.valid_name n))
    [ ""; ".wall"; "_x"; "-x"; "wall s"; "wall/s"; "p99%"; "lat\"ency"; "caf\xc3\xa9";
      String.make 65 'x' ]

let () =
  Alcotest.run "perfbench_trace"
    [ ( "trace",
        [ Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "self time by layer" `Quick test_by_layer;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "disabled recorder" `Quick test_disabled;
          Alcotest.test_case "metric names" `Quick test_names
        ] )
    ]
