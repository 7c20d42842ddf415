type span = { id : int; name : string; parent : int; start : float; stop : float }

type t = {
  enabled : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (* newest first; written out only at the end *)
}

let create ~enabled = { enabled; next_id = 0; stack = []; spans = [] }
let now = Unix.gettimeofday

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = now () in
    Fun.protect f ~finally:(fun () ->
        let stop = now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; parent; start; stop } :: t.spans)
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.spans
let duration s = s.stop -. s.start

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let self_time spans s =
  let children =
    List.filter_map (fun c -> if c.parent = s.id then Some (c.start, c.stop) else None) spans
  in
  duration s -. covered ~lo:s.start ~hi:s.stop children

let subtree spans root =
  let rec grow acc frontier =
    match frontier with
    | [] -> acc
    | _ ->
      let ids = List.map (fun s -> s.id) frontier in
      let next = List.filter (fun s -> List.mem s.parent ids) spans in
      grow (acc @ next) next
  in
  grow [ root ] [ root ]

let self_by_layer spans root =
  let tree = subtree spans root in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let layer = layer_of s.name in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl layer) in
      Hashtbl.replace tbl layer (prev +. self_time tree s))
    tree;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let find spans name = List.filter (fun s -> s.name = name) spans
let total spans name = List.fold_left (fun acc s -> acc +. duration s) 0. (find spans name)

let valid_name s =
  let n = String.length s in
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

let to_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}" s.id
        s.name s.parent s.start s.stop)
    spans;
  Buffer.add_char b ']';
  Buffer.contents b
