(* Cache, TLB, branch predictor and hierarchy tests. *)

module Cache = Machine.Cache
module Branch = Machine.Branch
module H = Machine.Hierarchy

let small_cache ?(sets = 4) ?(ways = 2) ?(line = 64) () =
  Cache.create { Cache.name = "t"; sets; ways; line_bytes = line }

let test_cache_miss_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "first access misses" false (Cache.access c ~addr:0x1000 ~write:false);
  Alcotest.(check bool) "second access hits" true (Cache.access c ~addr:0x1000 ~write:false);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~addr:0x103F ~write:false);
  Alcotest.(check bool) "next line misses" false (Cache.access c ~addr:0x1040 ~write:false);
  let s = Cache.stats c in
  Alcotest.(check int) "accesses" 4 s.Cache.accesses;
  Alcotest.(check int) "misses" 2 s.Cache.misses

let test_cache_lru_eviction () =
  (* 2-way set: A, B fill the set; touching A then adding C evicts B *)
  let c = small_cache ~sets:1 ~ways:2 () in
  let a = 0x0 and b = 0x40 and d = 0x80 in
  ignore (Cache.access c ~addr:a ~write:false);
  ignore (Cache.access c ~addr:b ~write:false);
  ignore (Cache.access c ~addr:a ~write:false) (* refresh A *);
  ignore (Cache.access c ~addr:d ~write:false) (* evicts B *);
  Alcotest.(check bool) "A survives" true (Cache.probe c ~addr:a);
  Alcotest.(check bool) "B evicted" false (Cache.probe c ~addr:b);
  Alcotest.(check bool) "D present" true (Cache.probe c ~addr:d)

let test_cache_set_isolation () =
  let c = small_cache ~sets:4 ~ways:1 () in
  (* different sets don't evict each other *)
  ignore (Cache.access c ~addr:0x000 ~write:false);
  ignore (Cache.access c ~addr:0x040 ~write:false);
  Alcotest.(check bool) "set 0 intact" true (Cache.probe c ~addr:0x000)

let test_cache_flush_and_reset () =
  let c = small_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.probe c ~addr:0);
  Cache.reset_stats c;
  Alcotest.(check int) "stats cleared" 0 (Cache.stats c).Cache.accesses

let test_cache_geometry_validation () =
  Alcotest.check_raises "non-pow2 sets" (Invalid_argument "Cache.create: sets must be a power of two")
    (fun () -> ignore (Cache.create { Cache.name = "x"; sets = 3; ways = 1; line_bytes = 64 }))

let test_tlb_page_granularity () =
  let tlb = Cache.create { Cache.name = "tlb"; sets = 4; ways = 2; line_bytes = 4096 } in
  ignore (Cache.access tlb ~addr:0x1000 ~write:false);
  Alcotest.(check bool) "same page hits" true (Cache.access tlb ~addr:0x1FFF ~write:false);
  Alcotest.(check bool) "next page misses" false (Cache.access tlb ~addr:0x2000 ~write:false)

(* Pins [Cache.access] exactly: the md5 of the hit/miss sequence and the
   final stats for a seeded address stream, over several geometries.  The
   stream mixes a skewed reuse set (LRU refresh decides what survives), runs
   of consecutive lines and far random lines, with a flush halfway through.
   The md5s were recorded on the try/raise implementation that the
   allocation-free loop replaced. *)
let cache_trace_digest ~sets ~ways =
  let line = 64 in
  let c = Cache.create { Cache.name = "pin"; sets; ways; line_bytes = line } in
  let lines = sets * ways in
  let rng = Js_util.Rng.create (1000 + (sets * 31) + ways) in
  let buf = Buffer.create 20_000 in
  let last = ref 0 in
  for i = 0 to 19_999 do
    if i = 10_000 then Cache.flush c;
    let r = Js_util.Rng.int rng 100 in
    let l =
      if r < 60 then Js_util.Rng.zipf rng ~n:(2 * lines) ~s:0.9
      else if r < 85 then !last + 1
      else Js_util.Rng.int rng (16 * lines)
    in
    last := l;
    let addr = (l * line) + Js_util.Rng.int rng line in
    Buffer.add_char buf (if Cache.access c ~addr ~write:(r land 1 = 0) then 'H' else 'M')
  done;
  let s = Cache.stats c in
  Printf.sprintf "%s %d %d" (Digest.to_hex (Digest.string (Buffer.contents buf))) s.Cache.accesses
    s.Cache.misses

let test_cache_pinned () =
  List.iter
    (fun (sets, ways, want) ->
      Alcotest.(check string) (Printf.sprintf "%d sets x %d ways" sets ways) want
        (cache_trace_digest ~sets ~ways))
    [ (64, 1, "6ac9f3edf62bf55e63896004abed6ebd 20000 9313");
      (16, 4, "7f9a5879b24b9e865b09f2aafc3fb8fb 20000 8975");
      (4, 16, "db7f9aa4b5c737e3770c6aaef0e7e34e 20000 9167");
      (1, 8, "6f9f4498f30e9f62ae57fe751cdba76d 20000 11297")
    ]

(* --- branch predictor --- *)

let test_branch_learns_loop () =
  let bp = Branch.create ~entries:64 in
  (* a branch taken 50 times in a row: after warmup it predicts correctly *)
  for _ = 1 to 50 do
    ignore (Branch.execute bp ~pc:0x400 ~target:0x500 ~taken:true)
  done;
  let s = Branch.stats bp in
  Alcotest.(check bool) "few mispredicts" true (s.Branch.mispredicts <= 3);
  Alcotest.(check int) "all counted" 50 s.Branch.branches

let test_branch_btb_target_miss () =
  let bp = Branch.create ~entries:64 in
  ignore (Branch.execute bp ~pc:0x100 ~target:0x200 ~taken:true);
  ignore (Branch.execute bp ~pc:0x100 ~target:0x200 ~taken:true);
  (* same direction but a brand-new target: BTB miss counts as mispredict *)
  Alcotest.(check bool) "target change mispredicts" true
    (Branch.execute bp ~pc:0x100 ~target:0x999 ~taken:true)

let test_branch_alternating_hurts () =
  let bp = Branch.create ~entries:64 in
  let mis = ref 0 in
  for i = 1 to 100 do
    if Branch.execute bp ~pc:0x40 ~target:0x80 ~taken:(i mod 2 = 0) then incr mis
  done;
  Alcotest.(check bool) "alternation mispredicts a lot" true (!mis > 30)

(* --- hierarchy --- *)

let test_hierarchy_fetch_lines () =
  let h = H.create H.default_config in
  (* a 130-byte fetch spans 3 lines -> 3 L1I accesses *)
  H.fetch h ~addr:0 ~size:130;
  let s = H.snapshot h in
  Alcotest.(check int) "3 line accesses" 3 s.H.l1i_s.Cache.accesses;
  Alcotest.(check int) "instructions derived from bytes" (130 / 4) s.H.instructions

let test_hierarchy_warm_cheaper () =
  let h = H.create H.default_config in
  H.fetch h ~addr:0 ~size:4096;
  let cold = (H.snapshot h).H.cycles in
  H.reset_stats h;
  H.fetch h ~addr:0 ~size:4096;
  let warm = (H.snapshot h).H.cycles in
  Alcotest.(check bool) "warm run cheaper" true (warm < cold)

let test_hierarchy_data_side () =
  let h = H.create H.default_config in
  H.load h ~addr:0x8000;
  H.load h ~addr:0x8000;
  H.store h ~addr:0x8000;
  let s = H.snapshot h in
  Alcotest.(check int) "3 D accesses" 3 s.H.l1d_s.Cache.accesses;
  Alcotest.(check int) "1 D miss" 1 s.H.l1d_s.Cache.misses;
  Alcotest.(check int) "I side untouched" 0 s.H.l1i_s.Cache.accesses

let test_hierarchy_flush () =
  let h = H.create H.default_config in
  H.fetch h ~addr:0 ~size:64;
  H.flush h;
  let s = H.snapshot h in
  Alcotest.(check int) "stats cleared" 0 s.H.l1i_s.Cache.accesses;
  H.fetch h ~addr:0 ~size:64;
  Alcotest.(check int) "cold again" 1 (H.snapshot h).H.l1i_s.Cache.misses

let test_cpi_sane () =
  let h = H.create H.default_config in
  for i = 0 to 999 do
    H.fetch h ~addr:(i * 64 mod 8192) ~size:64
  done;
  let s = H.snapshot h in
  let cpi = H.cpi s H.default_config in
  Alcotest.(check bool) "cpi within sane range" true (cpi > 0.3 && cpi < 10.)

let test_working_set_thrashing () =
  (* a working set larger than L1I must miss more than one that fits *)
  let run size =
    let h = H.create H.default_config in
    for round = 0 to 9 do
      ignore round;
      let lines = size / 64 in
      for l = 0 to lines - 1 do
        H.fetch h ~addr:(l * 64) ~size:64
      done
    done;
    Cache.miss_rate (H.snapshot h).H.l1i_s
  in
  let fits = run (16 * 1024) in
  let thrashes = run (256 * 1024) in
  Alcotest.(check bool) "bigger set misses more" true (thrashes > fits)

let () =
  Alcotest.run "machine"
    [ ( "cache",
        [ Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "set isolation" `Quick test_cache_set_isolation;
          Alcotest.test_case "flush/reset" `Quick test_cache_flush_and_reset;
          Alcotest.test_case "geometry validation" `Quick test_cache_geometry_validation;
          Alcotest.test_case "tlb pages" `Quick test_tlb_page_granularity;
          Alcotest.test_case "pinned behaviour" `Quick test_cache_pinned
        ] );
      ( "branch",
        [ Alcotest.test_case "loop learning" `Quick test_branch_learns_loop;
          Alcotest.test_case "btb target miss" `Quick test_branch_btb_target_miss;
          Alcotest.test_case "alternation" `Quick test_branch_alternating_hurts
        ] );
      ( "hierarchy",
        [ Alcotest.test_case "fetch lines" `Quick test_hierarchy_fetch_lines;
          Alcotest.test_case "warm cheaper" `Quick test_hierarchy_warm_cheaper;
          Alcotest.test_case "data side" `Quick test_hierarchy_data_side;
          Alcotest.test_case "flush" `Quick test_hierarchy_flush;
          Alcotest.test_case "cpi sanity" `Quick test_cpi_sane;
          Alcotest.test_case "working-set thrashing" `Quick test_working_set_thrashing
        ] )
    ]
