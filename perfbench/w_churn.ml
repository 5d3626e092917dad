(* churn: one Live.create at B(2,22), then an open-loop fault/repair
   stream at a fixed arrival rate that hovers around [target]
   outstanding faults. *)

open Common

(* Arrival rate in events/s: about a third of the engine's capacity at
   B(2,22), so the queue drains between slow events. *)
let rate = 200.
let target = 8

(* Consistency checks (a fresh batch embed) every [check_every]
   events and at the end, outside the timed region. *)
let check_every = 2000

(* The birth-death chain of [Ffc.Campaign.churn]: with f faults
   outstanding the next event faults a uniform healthy node with
   probability target/(target+f), else repairs a uniform outstanding
   fault.  Starts from [target] seeded faults. *)
let events rng ~size ~count =
  let initial = Util.Rng.sample_distinct rng ~k:target ~bound:size in
  let faulty = Hashtbl.create 64 in
  let out = ref (Array.of_list initial) in
  List.iter (fun v -> Hashtbl.replace faulty v ()) initial;
  let evs =
    Array.init count (fun _ ->
        let f = Array.length !out in
        if f = 0 || Util.Rng.int rng (target + f) < target then begin
          let rec pick () =
            let v = Util.Rng.int rng size in
            if Hashtbl.mem faulty v then pick () else v
          in
          let v = pick () in
          Hashtbl.replace faulty v ();
          out := Array.append !out [| v |];
          Ffc.Live.Fault v
        end
        else begin
          let i = Util.Rng.int rng f in
          let v = !out.(i) in
          Hashtbl.remove faulty v;
          !out.(i) <- !out.(f - 1);
          out := Array.sub !out 0 (f - 1);
          Ffc.Live.Repair v
        end)
  in
  (initial, evs)

(* Output check: the live ring equals a fresh batch embed of the
   current fault set. *)
let check live fresh = Ffc.Live.ring live = fresh

let run cfg =
  let n = if cfg.tiny then 10 else 22 in
  let p = Debruijn.Word.params ~d:2 ~n in
  let rng = Util.Rng.create cfg.seed in
  let count = max 1 (int_of_float (rate *. cfg.seconds)) in
  let initial, evs = events rng ~size:p.Debruijn.Word.size ~count in
  let ws = Ffc.Workspace.create p in
  let live, setup_s =
    repeated_setup (fun () -> Ffc.Live.create ~ws p ~faults:initial)
  in
  let attempted = ref 0 and failed = ref 0 in
  let first = ref None and alloc = ref [] in
  (* A check that raises (a successor map that does not close, an
     embed that fails) counts as a failed operation. *)
  let consistency () =
    Span.new_op ();
    let faults = Ffc.Live.current_faults live in
    let fresh () =
      if cfg.trace then
        match
          Stages.allocated (fun () ->
              Span.span "churn.check" (fun () -> Stages.embed_verify ~ws p ~faults))
        with
        | Some (e, verified), a ->
            alloc := a :: !alloc;
            if !first = None then first := Some (Stages.counters e);
            if verified then Some e.Ffc.Embed.cycle else None
        | None, _ -> None
      else Option.map (fun e -> e.Ffc.Embed.cycle) (Ffc.Embed.embed ~ws p ~faults)
    in
    let ok = try match fresh () with None -> false | fresh -> check live fresh with _ -> false in
    if not ok then incr failed
  in
  (* Open loop: event i is due at [base + i/rate]; [base] moves forward
     by the length of each consistency check so checks impose no
     wait. *)
  let response = Array.make count 0. and service = Array.make count 0. in
  let wait = Array.make count 0. and lag = Array.make count 0. in
  let minor = Array.make count 0. and affected = Array.make count (-1) in
  let base = ref (now ()) and prev_end = ref 0. in
  for i = 0 to count - 1 do
    if i > 0 && i mod check_every = 0 then begin
      let t0 = now () in
      consistency ();
      base := !base +. (now () -. t0)
    end;
    let due = !base +. (float i /. rate) in
    let ahead = due -. now () in
    if ahead > 0.003 then Unix.sleepf (ahead -. 0.002);
    while now () < due do
      ()
    done;
    let traced_ev = cfg.trace && i land 1 = 1 in
    let m0 = if cfg.trace then Gc.minor_words () else 0. in
    let start = now () in
    let r =
      try
        if traced_ev then Span.span "live.apply" (fun () -> Ffc.Live.apply live evs.(i))
        else Ffc.Live.apply live evs.(i)
      with _ -> Error (Ffc.Live.Out_of_range (-1))
    in
    let stop = now () in
    incr attempted;
    (match r with
    | Ok o ->
        if o = Ffc.Live.Patched then affected.(i) <- (Ffc.Live.stats live).Ffc.Live.last_affected
    | Error _ -> incr failed);
    if cfg.trace then minor.(i) <- Gc.minor_words () -. m0;
    response.(i) <- stop -. due;
    service.(i) <- stop -. start;
    wait.(i) <- start -. due;
    lag.(i) <- start -. Float.max due !prev_end;
    prev_end := stop
  done;
  consistency ();
  let st = Ffc.Live.stats live in
  let idx pred = List.filter pred (List.init count Fun.id) in
  let at a is = List.map (fun i -> a.(i)) is in
  let all = List.init count Fun.id in
  let is_fault i = match evs.(i) with Ffc.Live.Fault _ -> true | Ffc.Live.Repair _ -> false in
  let patched = idx (fun i -> affected.(i) >= 0) in
  let aff = List.map (fun i -> float affected.(i)) patched in
  let p50 = median (Array.to_list response) and p99 = quantile 0.99 (Array.to_list response) in
  let apply_p50 = median (Array.to_list service) in
  let peak = float (self_hwm_kb ()) in
  (* The end-to-end figure is one Live.apply, from the event to an
     observable successor map.  The times from the due time include the
     queue behind the few events that touch 2^16-2^18 nodes; how many
     such events a 20 s stream holds depends on the seed, so those
     times stay in the detail line. *)
  let e2e = [ m "setup_s" "s" setup_s; m "p50_s" "s" apply_p50; m "peak_rss_kb" "kB" peak ] in
  let events_f = float st.Ffc.Live.events in
  let live_detail =
    [
      m "live.apply_p50_s" "s" apply_p50;
      m "live.apply_p99_s" "s" (quantile 0.99 (Array.to_list service));
      m "live.fault_apply_p50_s" "s" (median (at service (idx is_fault)));
      m "live.repair_apply_p50_s" "s" (median (at service (idx (fun i -> not (is_fault i)))));
      m "live.queue_wait_p99_s" "s" (quantile 0.99 (Array.to_list wait));
      m "live.generator_lag_max_s" "s" (maximum (Array.to_list lag));
      m ~kind:Exact "live.patched" "count" (float st.Ffc.Live.patched);
      m ~kind:Exact "live.recomputed" "count" (float st.Ffc.Live.recomputed);
      m ~kind:Exact "live.unchanged" "count" (float st.Ffc.Live.unchanged);
      m ~kind:Exact "live.fallback_share" "share" (float st.Ffc.Live.recomputed /. events_f);
      m ~kind:Exact "live.affected_p50" "nodes" (median aff);
      m ~kind:Exact "live.affected_max" "nodes" (maximum aff);
      m "live.ns_per_affected_node" "ns" (sum (at service patched) *. 1e9 /. sum aff);
      m "live.create_s" "s" setup_s;
    ]
  in
  let layer, trace_detail =
    if not cfg.trace then ([], [])
    else begin
      let odd = List.filter (fun i -> i land 1 = 1) all in
      let even = List.filter (fun i -> i land 1 = 0) all in
      let over = overhead ~traced:(at service odd) ~untraced:(at service even) in
      (* Time inside an event not covered by its live.apply span: the
         benchmark's own bookkeeping between the two clock reads. *)
      let unexplained =
        1. -. (sum (Span.durations "live.apply") /. sum (at service odd))
      in
      (* No counters when every check raised: the run is failed
         already, and the zero ring length makes its figures non-finite. *)
      let first =
        Option.value !first ~default:{ Stages.bstar_nodes = 0; ring_len = 0; ecc = 0; root = 0 }
      in
      let ffc = Stages.layer_metrics ~op_span:"churn.check" ~alloc:!alloc ~first in
      let words = sum (at minor patched) /. sum aff in
      ( ffc
        @ [
            m "trace.overhead_share" "share" over;
            m ~kind:Residual "trace.unexplained_share" "share" unexplained;
          ],
        ffc
        @ [
            m "live.minor_words_per_affected_node" "words" words;
            m "trace.overhead_share.churn" "share" over;
            m ~kind:Residual "trace.unexplained_share.churn" "share" unexplained;
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
        m "event_p50_s" "s" p50;
        m "event_p99_s" "s" p99;
        m "setup_s" "s" setup_s;
        m "peak_rss_kb" "kB" peak;
        m ~kind:Exact "ops_attempted" "count" (float !attempted);
        m ~kind:Exact "ops_failed" "count" (float !failed);
      ]
      @ live_detail @ trace_detail;
    sizes =
      [
        ("instance", Printf.sprintf "B(2,%d)" n);
        ("nodes", string_of_int p.Debruijn.Word.size);
        ("rate_per_s", Printf.sprintf "%g" rate);
        ("target_faults", string_of_int target);
        ("events", string_of_int count);
      ];
  }
