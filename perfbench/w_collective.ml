(* collective: a closed loop of Fastpath.run calls at B(4,10).  One
   operation runs the same op (reduce-scatter, all-gather or allreduce,
   in turn) on three shapes, and each shape makes a different layer
   dominate:
   - small: the FFC ring, 64 ranks x 256 words — Compile.lower;
   - large: the FFC ring, 64 ranks x 4096 words — the phase kernel;
   - striped: the ψ(4) − 1 surviving disjoint rings, 64 ranks x 256
     words — the edge-key sort of Compile.max_edge_share. *)

open Common

type shape = Small | Large | Striped

let shape_name = function Small -> "small" | Large -> "large" | Striped -> "striped"
let shapes = [| Small; Large; Striped |]
let d = 4
let ranks = 64
let node_faults = 2
let chunk_words = function Small | Striped -> 256 | Large -> 4096
let ops = Collective.Schedule.[| Reduce_scatter; All_gather; Allreduce |]

(* The exact counters of a report; the same spec must repeat them. *)
let counters (r : Collective.Exec.report) =
  Collective.Exec.
    [ r.rounds; r.delivered; r.wire_words; r.max_link_load; r.max_port_load; r.checksum ]

(* Output check: the payload verified against the rank-space
   reference, and the counters equal those of the first run of the
   same spec (if any). *)
let check ~previous (r : Collective.Exec.report) =
  r.Collective.Exec.verified
  && match previous with None -> true | Some c -> counters r = c

type setup = {
  p : Debruijn.Word.params;
  faults : int list;
  ffc_ring : int array;
  striped : int array list;
  link_fault : int * int;
}

(* A link on a seeded member of the ψ(d) disjoint family, so exactly
   one ring dies and the striped shape always runs on ψ(d) − 1 rings. *)
let pick_link_fault rng ~n =
  let family = Dhc.Compose.disjoint_hamiltonian_streams ~d ~n in
  let st = List.nth family (Util.Rng.int rng (List.length family)) in
  let u = ref st.Dhc.Stream.start in
  for _ = 1 to Util.Rng.int rng st.Dhc.Stream.length do
    u := st.Dhc.Stream.succ !u
  done;
  (!u, st.Dhc.Stream.succ !u)

let build_setup ~n ~faults ~link_fault ~alloc =
  let p = Debruijn.Word.params ~d ~n in
  let ffc_ring =
    Span.new_op ();
    match
      Stages.allocated (fun () ->
          Span.span "collective.ring_embed" (fun () ->
              if !Span.enabled then Stages.embed_verify p ~faults
              else Option.map (fun e -> (e, Ffc.Embed.verify e)) (Ffc.Embed.embed p ~faults)))
    with
    | Some (e, true), a ->
        alloc := (a, Stages.counters e) :: !alloc;
        e.Ffc.Embed.cycle
    | _ -> failwith "collective set-up: no verified fault-free ring"
  in
  let striped =
    Span.span "collective.dhc_rings" (fun () ->
        Dhc.Edge_fault.surviving_disjoint_streams ~d ~n ~faults:[ link_fault ]
        |> List.map Dhc.Stream.to_nodes)
  in
  { p; faults; ffc_ring; striped; link_fault }

(* Per-shape inputs and samples. *)
type lane = {
  shape : shape;
  faulty : int -> bool;
  rings : int array list;
  edge_faults : (int * int) list;
  cw : int;
  first : int list option array;  (** counters of the first run, per op *)
  mutable plain : float list;
  mutable traced : float list;
  mutable lowers : float list;
  mutable shares : float list;
  mutable minor : float list;
  mutable reports : Collective.Exec.report list;
  mutable allreduce : Collective.Exec.report option;
}

let lane s ~tiny shape =
  let faulty, rings, edge_faults =
    match shape with
    | Small | Large -> ((fun v -> List.mem v s.faults), [ s.ffc_ring ], [])
    | Striped -> ((fun _ -> false), s.striped, [ s.link_fault ])
  in
  {
    shape;
    faulty;
    rings;
    edge_faults;
    cw = (if tiny then 4 else chunk_words shape);
    first = Array.make (Array.length ops) None;
    plain = [];
    traced = [];
    lowers = [];
    shares = [];
    minor = [];
    reports = [];
    allreduce = None;
  }

let run cfg =
  let n = if cfg.tiny then 5 else 10 in
  let rng = Util.Rng.create cfg.seed in
  let size = Debruijn.Word.(params ~d ~n).size in
  let faults = Util.Rng.sample_distinct rng ~k:node_faults ~bound:size in
  let link_fault = pick_link_fault rng ~n in
  let alloc = ref [] in
  let s, setup_s = repeated_setup (fun () -> build_setup ~n ~faults ~link_fault ~alloc) in
  let lanes = Array.map (lane s ~tiny:cfg.tiny) shapes in
  let attempted = ref 0 and failed = ref 0 in
  let op_times = ref [] and op_traced = ref [] in
  (* One Fastpath.run; its time, or None when it failed. *)
  let call l ~traced_run k =
    let op = ops.(k) in
    let spec = { Collective.Exec.op; ranks; chunk_words = l.cw; bidirectional = false } in
    let fastpath () =
      Collective.Fastpath.run ~edge_faults:l.edge_faults ~p:s.p ~faulty:l.faulty ~rings:l.rings spec
    in
    let m0 = Gc.minor_words () in
    match
      time (fun () ->
          if traced_run then Span.span ("fastpath.run." ^ shape_name l.shape) fastpath
          else fastpath ())
    with
    | exception _ -> None
    | r, dt ->
        let words = Gc.minor_words () -. m0 in
        if not (check ~previous:l.first.(k) r) then None
        else begin
          if l.first.(k) = None then l.first.(k) <- Some (counters r);
          if traced_run then begin
            l.traced <- dt :: l.traced;
            l.minor <- words :: l.minor
          end
          else l.plain <- dt :: l.plain;
          l.reports <- r :: l.reports;
          if op = Collective.Schedule.Allreduce then l.allreduce <- Some r;
          Some dt
        end
  in
  (* The layers a run goes through, called on their own: lower, then
     the edge-share sort on that fresh lowering. *)
  let layers l k =
    let c, lo =
      time (fun () ->
          Span.span "compile.lower" (fun () ->
              Collective.Compile.lower ~what:"perfbench" ~clamp_ranks:false
                ~edge_faults:l.edge_faults ~bidirectional:false ~ranks ~chunk_words:l.cw ~p:s.p
                ~faulty:l.faulty ~rings:l.rings))
    in
    let share, es =
      time (fun () ->
          Span.span "compile.edge_share" (fun () -> Collective.Compile.max_edge_share c))
    in
    l.lowers <- lo :: l.lowers;
    l.shares <- es :: l.shares;
    (* Every ring edge carries the same messages, so the report's link
       load is the deepest sharing times that count. *)
    match l.first.(k) with
    | Some (_ :: _ :: _ :: link :: _) ->
        link = share * Collective.Schedule.segment_messages ops.(k) ~ranks:c.Collective.Compile.ranks
    | _ -> true
  in
  let operation ~traced_run k =
    incr attempted;
    Span.new_op ();
    let times = Array.map (fun l -> call l ~traced_run k) lanes in
    if Array.for_all Option.is_some times then
      Some (Array.fold_left (fun acc t -> acc +. Option.get t) 0. times)
    else begin
      incr failed;
      None
    end
  in
  (* Untraced runs stop on a whole rs/ag/ar cycle; traced runs, over
     twice as long per operation, on any operation. *)
  closed_loop cfg ~cycle:(if cfg.trace then 1 else Array.length ops) (fun i ->
      let k = i mod Array.length ops in
      Option.iter (fun t -> op_times := t :: !op_times) (operation ~traced_run:false k);
      if cfg.trace then begin
        Option.iter (fun t -> op_traced := t :: !op_traced) (operation ~traced_run:true k);
        Array.iter (fun l -> if not (layers l k) then incr failed) lanes
      end);
  let p50 = median !op_times in
  let peak = float (self_hwm_kb ()) in
  let e2e = [ m "setup_s" "s" setup_s; m "p50_s" "s" p50; m "peak_rss_kb" "kB" peak ] in
  let per_shape l =
    let name = shape_name l.shape in
    let exact label f =
      m ~kind:Exact (Printf.sprintf "collective.%s.%s" label name) "count"
        (match l.allreduce with Some r -> float (f r) | None -> nan)
    in
    m (Printf.sprintf "collective_%s_p50_s" name) "s" (median l.plain)
    :: Collective.Exec.
         [
           exact "rounds" (fun r -> r.rounds);
           exact "delivered" (fun r -> r.delivered);
           exact "wire_words" (fun r -> r.wire_words);
           exact "max_link_load" (fun r -> r.max_link_load);
           exact "max_port_load" (fun r -> r.max_port_load);
           exact "checksum" (fun r -> r.checksum);
         ]
  in
  let kernel l = median l.traced -. median l.lowers -. median l.shares in
  let per_shape_traced l =
    let name = shape_name l.shape in
    let per_s f = median (List.map (fun r -> 8. *. float (f r)) l.reports) /. median l.plain in
    [
      m ("collective.lower_s." ^ name) "s" (median l.lowers);
      m ("collective.edge_share_s." ^ name) "s" (median l.shares);
      m ~kind:Residual ("collective.kernel_s." ^ name) "s" (kernel l);
      m ("collective.minor_words." ^ name) "words" (median l.minor);
      m ("collective.payload_bytes_per_s." ^ name) "B/s"
        (per_s (fun r -> r.Collective.Exec.payload_words));
      m ~kind:Logical ("collective.wire_bytes_per_s.logical." ^ name) "B/s"
        (per_s (fun r -> r.Collective.Exec.wire_words));
    ]
  in
  let layer, trace_detail =
    if not cfg.trace then ([], [])
    else begin
      let over = overhead ~traced:!op_traced ~untraced:!op_times in
      (* The kernel, port-load merge and verification: the part of the
         runs neither lower nor the edge-share sort explains. *)
      let unexplained = sum (List.map kernel (Array.to_list lanes)) /. median !op_traced in
      let ffc =
        Stages.layer_metrics ~op_span:"collective.ring_embed" ~alloc:(List.map fst !alloc)
          ~first:(snd (List.nth !alloc (List.length !alloc - 1)))
      in
      ( ffc
        @ [
            m "trace.overhead_share" "share" over;
            m ~kind:Residual "trace.unexplained_share" "share" unexplained;
          ],
        ffc
        @ [
            m "collective.ring_embed_s" "s" (median (Span.durations "collective.ring_embed"));
            m "collective.dhc_rings_s" "s" (median (Span.durations "collective.dhc_rings"));
          ]
        @ List.concat_map per_shape_traced (Array.to_list lanes)
        @ [
            m "trace.overhead_share.collective" "share" over;
            m ~kind:Residual "trace.unexplained_share.collective" "share" unexplained;
          ] )
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    e2e;
    layer;
    detail =
      [
        m "collective_op_p50_s" "s" p50;
        m "setup_s" "s" setup_s;
        m "peak_rss_kb" "kB" peak;
        m ~kind:Exact "ops_attempted" "count" (float !attempted);
        m ~kind:Exact "ops_failed" "count" (float !failed);
        m ~kind:Exact "collective.striped_rings" "count" (float (List.length s.striped));
      ]
      @ List.concat_map per_shape (Array.to_list lanes)
      @ trace_detail;
    sizes =
      [
        ("instance", Printf.sprintf "B(%d,%d)" d n);
        ("nodes", string_of_int size);
        ("ranks", string_of_int ranks);
        ( "chunk_words",
          String.concat ","
            (Array.to_list
               (Array.map (fun l -> shape_name l.shape ^ "=" ^ string_of_int l.cw) lanes)) );
        ("ffc_ring_length", string_of_int (Array.length s.ffc_ring));
        ("striped_rings", string_of_int (List.length s.striped));
      ];
  }
