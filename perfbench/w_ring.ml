(* ring-query: Embed.embed ~ws then Embed.verify ~ws at B(2,22) in a
   closed loop, one fresh seeded fault set per query, one reused
   workspace. *)

open Common

(* The fault counts of the thesis's Tables 2.1/2.2. *)
let fault_counts = [| 1; 5; 10; 30; 50 |]

(* Output check of one query: verify accepted the ring, the ring covers
   B*, and for f = 1 it meets the Proposition 2.3 length bound. *)
let check p ~f ~verified (c : Stages.counters) =
  verified && c.Stages.ring_len = c.Stages.bstar_nodes && c.Stages.ring_len > 0
  &&
  match Ffc.Campaign.length_bound p f with
  | Some bound when f = 1 -> c.Stages.ring_len >= bound
  | _ -> true

let query ~ws p ~faults =
  match Ffc.Embed.embed ~ws p ~faults with
  | None -> None
  | Some e -> Some (e, Ffc.Embed.verify ~ws e)

let run cfg =
  let n = if cfg.tiny then 10 else 22 in
  let p = Debruijn.Word.params ~d:2 ~n in
  let ws, setup_s = repeated_setup (fun () -> Ffc.Workspace.create p) in
  let rng = Util.Rng.create cfg.seed in
  let order = Array.copy fault_counts in
  Util.Rng.shuffle rng order;
  let attempted = ref 0 and failed = ref 0 in
  let lat = ref [] and alloc = ref [] and first = ref None in
  closed_loop cfg ~cycle:(Array.length order) (fun i ->
      let f = order.(i mod Array.length order) in
      let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.Debruijn.Word.size in
      incr attempted;
      match time (fun () -> query ~ws p ~faults) with
      | exception _ -> incr failed
      | None, _ -> incr failed
      | Some (e, verified), dt ->
          let c = Stages.counters e in
          if not (check p ~f ~verified c) then incr failed else lat := dt :: !lat;
          if !first = None then first := Some c;
          if cfg.trace then begin
            (* The same faults again, stage by stage under spans: the
               staged result must be the same ring. *)
            let cycle = e.Ffc.Embed.cycle in
            incr attempted;
            Span.new_op ();
            match
              Stages.allocated (fun () ->
                  Span.span "ring_query" (fun () -> Stages.embed_verify ~ws p ~faults))
            with
            | exception _ -> incr failed
            | None, _ -> incr failed
            | Some (e', verified'), a ->
                alloc := a :: !alloc;
                if
                  not
                    (check p ~f ~verified:verified' (Stages.counters e')
                    && Stages.counters e' = c && e'.Ffc.Embed.cycle = cycle)
                then incr failed
          end);
  let p50 = median !lat in
  let peak = float (self_hwm_kb ()) in
  let e2e = [ m "setup_s" "s" setup_s; m "p50_s" "s" p50; m "peak_rss_kb" "kB" peak ] in
  let layer, trace_detail =
    if not cfg.trace then ([], [])
    else begin
      let first = Option.get !first in
      let traced = Span.durations "ring_query" in
      let self = median (Span.self_by_name "ring_query") in
      let ffc = Stages.layer_metrics ~op_span:"ring_query" ~alloc:!alloc ~first in
      let over = overhead ~traced ~untraced:!lat in
      let unexplained = self /. median traced in
      (* The stage medians against the untraced end-to-end median. *)
      let stage_sum = sum (List.map snd (Stages.stage_medians ())) in
      ( ffc
        @ [
            m "trace.overhead_share" "share" over;
            m ~kind:Residual "trace.unexplained_share" "share" unexplained;
          ],
        ffc
        @ [
            m "ffc.stage_sum_s" "s" stage_sum;
            m "ffc.stage_coverage.ring-query" "share" (stage_sum /. p50);
            m "trace.overhead_share.ring-query" "share" over;
            m ~kind:Residual "trace.unexplained_share.ring-query" "share" unexplained;
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
        m "ring_query_p50_s" "s" p50;
        m "setup_s" "s" setup_s;
        m "peak_rss_kb" "kB" peak;
        m ~kind:Exact "ops_attempted" "count" (float !attempted);
        m ~kind:Exact "ops_failed" "count" (float !failed);
        m "queries" "count" (float (List.length !lat));
      ]
      @ trace_detail;
    sizes =
      [
        ("instance", Printf.sprintf "B(2,%d)" n);
        ("nodes", string_of_int p.Debruijn.Word.size);
        ("fault_counts", "1,5,10,30,50");
        ( "arena_bytes",
          let a = ws.Ffc.Workspace.arena in
          string_of_int
            ((8 * Graphlib.Flatarr.Arena.words_used a) + Graphlib.Flatarr.Arena.bytes_used a) );
      ];
  }
