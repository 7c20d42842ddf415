module VF = Vasm.Vfunc

type placed = {
  vfunc : VF.t;
  order : int array;
  n_hot : int;
  offsets : int array;
  ends : int array;
  succs : int array array;
  hot_base : int;
  hot_size : int;
  cold_base : int;
  cold_size : int;
}

type t = {
  hot_capacity : int;
  cold_capacity : int;
  hot_origin : int;
  cold_origin : int;
  mutable hot_cursor : int;
  mutable cold_cursor : int;
  mutable placed_rev : placed list;
  mutable by_fid : placed option array;  (* fid -> current placement *)
}

let hot_origin = 0x1000_0000
let cold_origin = 0x3000_0000

(* Cold chunks are padded apart: HHVM's cold/frozen section is hundreds of
   megabytes, so a side exit lands on code that shares no lines or pages
   with anything recently executed.  Our synthetic app is ~1000x smaller;
   spacing each translation's cold chunk reproduces that dilution. *)
let cold_alignment = 16 * 1024

let create ?(hot_capacity = 128 * 1024 * 1024) ?(cold_capacity = 256 * 1024 * 1024) () =
  {
    hot_capacity;
    cold_capacity;
    hot_origin;
    cold_origin;
    hot_cursor = 0;
    cold_cursor = 0;
    placed_rev = [];
    by_fid = Array.make 64 None;
  }

let place t vfunc ~order ~n_hot =
  let blocks = vfunc.VF.blocks in
  if Array.length order <> Array.length blocks then
    invalid_arg "Code_cache.place: order length mismatch";
  let hot_size = ref 0 and cold_size = ref 0 in
  Array.iteri
    (fun i id ->
      let s = blocks.(id).VF.size in
      if i < n_hot then hot_size := !hot_size + s else cold_size := !cold_size + s)
    order;
  if t.hot_cursor + !hot_size > t.hot_capacity || t.cold_cursor + !cold_size > t.cold_capacity
  then None
  else begin
    let hot_base = t.hot_origin + t.hot_cursor in
    let cold_base = t.cold_origin + t.cold_cursor in
    let offsets = Array.make (Array.length blocks) 0 in
    let hot_off = ref hot_base and cold_off = ref cold_base in
    Array.iteri
      (fun i id ->
        if i < n_hot then begin
          offsets.(id) <- !hot_off;
          hot_off := !hot_off + blocks.(id).VF.size
        end
        else begin
          offsets.(id) <- !cold_off;
          cold_off := !cold_off + blocks.(id).VF.size
        end)
      order;
    let p =
      {
        vfunc;
        order = Array.copy order;
        n_hot;
        offsets;
        ends = Array.mapi (fun id (b : VF.block) -> offsets.(id) + b.VF.size) blocks;
        succs = Array.map (fun (b : VF.block) -> Array.of_list b.VF.succs) blocks;
        hot_base;
        hot_size = !hot_size;
        cold_base;
        cold_size = !cold_size;
      }
    in
    t.hot_cursor <- t.hot_cursor + !hot_size;
    t.cold_cursor <-
      t.cold_cursor + ((!cold_size + cold_alignment - 1) / cold_alignment * cold_alignment);
    t.placed_rev <- p :: t.placed_rev;
    let fid = vfunc.VF.root_fid in
    if fid >= Array.length t.by_fid then begin
      let grown = Array.make (max (fid + 1) (2 * Array.length t.by_fid)) None in
      Array.blit t.by_fid 0 grown 0 (Array.length t.by_fid);
      t.by_fid <- grown
    end;
    let entry = Some p in
    t.by_fid.(fid) <- entry;
    entry
  end

let lookup t fid = if fid >= 0 && fid < Array.length t.by_fid then t.by_fid.(fid) else None
let placed_list t = List.rev t.placed_rev
let used_hot t = t.hot_cursor
let used_cold t = t.cold_cursor

let reset t =
  t.hot_cursor <- 0;
  t.cold_cursor <- 0;
  t.placed_rev <- [];
  Array.fill t.by_fid 0 (Array.length t.by_fid) None

let block_addr p block_id = p.offsets.(block_id)
let entry_addr p = p.offsets.(p.vfunc.VF.entry)
