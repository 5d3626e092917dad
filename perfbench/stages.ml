(* The FFC batch pipeline called stage by stage, with a benchmark span
   around each public call.  Same calls, same order and same result as
   [Ffc.Embed.embed ?ws] followed by [Ffc.Embed.verify ?ws]. *)

open Common
module Fa = Graphlib.Flatarr

let stage_names =
  [ "bstar"; "adjacency"; "spanning"; "modify"; "successor"; "walk"; "verify" ]

let walk ?ws ~root successor =
  match ws with
  | None -> Graphlib.Cycle.of_successor_flat_n ~start:root successor
  | Some ws ->
      Graphlib.Cycle.of_successor_flat_into ~seen:ws.Ffc.Workspace.cycle_seen
        ~buf:ws.Ffc.Workspace.cycle_buf ~start:root successor
      |> Option.map (fun len -> Fa.sub_to_array ws.Ffc.Workspace.cycle_buf 0 len)

let embed ?ws p ~faults =
  match Span.span "ffc.bstar" (fun () -> Ffc.Bstar.compute ?ws p ~faults) with
  | None -> None
  | Some bstar ->
      let adj = Span.span "ffc.adjacency" (fun () -> Ffc.Adjacency.build ?ws bstar) in
      let tree = Span.span "ffc.spanning" (fun () -> Ffc.Spanning.build ?ws adj) in
      let modified = Span.span "ffc.modify" (fun () -> Ffc.Spanning.modify ?ws tree) in
      let successor =
        Span.span "ffc.successor" (fun () -> Ffc.Embed.successor_map ?ws modified)
      in
      Span.span "ffc.walk" (fun () -> walk ?ws ~root:bstar.Ffc.Bstar.root successor)
      |> Option.map (fun cycle -> { Ffc.Embed.bstar; modified; successor; cycle })

let verify ?ws e = Span.span "ffc.verify" (fun () -> Ffc.Embed.verify ?ws e)

let embed_verify ?ws p ~faults =
  Option.map (fun e -> (e, verify ?ws e)) (embed ?ws p ~faults)

(* Exact counters of one embedding. *)
type counters = { bstar_nodes : int; ring_len : int; ecc : int; root : int }

let counters (e : Ffc.Embed.t) =
  {
    bstar_nodes = e.Ffc.Embed.bstar.Ffc.Bstar.size;
    ring_len = Array.length e.Ffc.Embed.cycle;
    ecc = e.Ffc.Embed.modified.Ffc.Spanning.tree.Ffc.Spanning.ecc;
    root = e.Ffc.Embed.bstar.Ffc.Bstar.root;
  }

(* Median time of each stage over every staged embed of the run. *)
let stage_medians () = List.map (fun s -> (s, median (Span.durations ("ffc." ^ s)))) stage_names

(* The per-layer FFC figures.  The stage spans sit under an enclosing
   [op_span], whose self time is the part no stage explains.  [alloc]
   holds the minor/major words of each staged embed; [first] the
   counters of the run's first embed. *)
let layer_metrics ~op_span ~alloc ~(first : counters) =
  let stages = stage_medians () in
  let walk = List.assoc "walk" stages in
  List.map (fun (s, v) -> m ("ffc." ^ s ^ "_s") "s" v) stages
  @ [
      m ~kind:Residual "ffc.unexplained_s" "s" (median (Span.self_by_name op_span));
      m "ffc.walk_ns_per_node" "ns" (walk *. 1e9 /. float first.ring_len);
      m "ffc.minor_words" "words" (median (List.map fst alloc));
      m "ffc.major_words" "words" (median (List.map snd alloc));
      m ~kind:Exact "ffc.bstar_nodes" "count" (float first.bstar_nodes);
      m ~kind:Exact "ffc.ring_len" "count" (float first.ring_len);
      m ~kind:Exact "ffc.ecc" "count" (float first.ecc);
    ]

(* Minor and major words allocated by [f]. *)
let allocated f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (r, (s1.Gc.minor_words -. s0.Gc.minor_words, s1.Gc.major_words -. s0.Gc.major_words))
