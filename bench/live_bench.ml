(* Live churn benchmarks (EXPERIMENTS.md "Live repair under churn"):
   the Ffc.Live incremental engine under sustained fault/repair
   arrivals, against the batch pipeline it must stay bit-identical to.

   Three studies:

   - workspace vs fresh on B(2,10): the same seeded churn through both
     allocation paths — event outcomes bit-identical, per-event GC
     figures the difference;
   - the headline latency table: B(2,17) and B(2,22) churn, median,
     p90, p99 and max Live.apply latency per event versus the cost of one full
     recompute at that size.  The patched path's point is precisely
     that an event costs µs–ms where the batch pipeline costs seconds;
   - the ratio row: full-recompute seconds / median event seconds.

   Every field except the wall/latency/GC figures is a pure function of
   (seed, target, trials, events) — worker- and reuse-invariant, which
   is what the CI gate pins. *)

module W = Debruijn.Word
module Ca = Ffc.Campaign

let jstr = Jrec.jstr
let jint = Jrec.jint
let jnum = Jrec.jnum
let record = Jrec.record

let churn_fields (cp : Ca.churn_point) =
  [
    ("target_f", jint cp.Ca.target_f);
    ("ctrials", jint cp.Ca.ctrials);
    ("events", jint cp.Ca.events);
    ("cfaults", jint cp.Ca.cfaults);
    ("crepairs", jint cp.Ca.crepairs);
    ("patched", jint cp.Ca.patched);
    ("recomputed", jint cp.Ca.recomputed);
    ("cunchanged", jint cp.Ca.cunchanged);
    ("cerrors", jint cp.Ca.cerrors);
    ("mean_ring_length", jnum cp.Ca.mean_ring_length);
    ("min_ring_length", jint cp.Ca.min_ring_length);
    ("mean_live_faults", jnum cp.Ca.mean_live_faults);
    ("wall_s", jnum cp.Ca.cwall_s);
    ("median_event_s", jnum cp.Ca.median_event_s);
    ("p90_event_s", jnum cp.Ca.p90_event_s);
    ("p99_event_s", jnum cp.Ca.p99_event_s);
    ("max_event_s", jnum cp.Ca.max_event_s);
    ("minor_words_per_event", jnum cp.Ca.minor_words_per_event);
    ("major_words_per_event", jnum cp.Ca.major_words_per_event);
    ("max_rss_kb", jint (Jrec.max_rss_kb ()));
  ]

let print_point (cp : Ca.churn_point) =
  Printf.printf
    "  target=%3d  %3d+%-3d ev  patched %4d  recomputed %4d  unchanged %4d  \
     errors %d  ring %10.1f  median %9.6f s/ev  p90 %9.6f  p99 %9.6f  max \
     %9.6f s  minor %7.0f w/ev\n"
    cp.Ca.target_f cp.Ca.cfaults cp.Ca.crepairs cp.Ca.patched cp.Ca.recomputed
    cp.Ca.cunchanged cp.Ca.cerrors cp.Ca.mean_ring_length cp.Ca.median_event_s
    cp.Ca.p90_event_s cp.Ca.p99_event_s cp.Ca.max_event_s
    cp.Ca.minor_words_per_event

(* The campaign is seeded, so everything but its wall and GC figures
   repeats exactly.  Those figures also hold whatever the host did
   meanwhile: one preempted event sets [max_event_s] for the whole row.
   As [Jrec.time_gc] does: one warm-up run, then the minimum of each
   over [Jrec.repeats] runs. *)
let steady_churn ?reuse ~trials ~events ~targets ~d ~n () =
  let run () = Ca.churn ?reuse ~trials ~targets ~events ~d ~n () in
  ignore (run ());
  let best (a : Ca.churn_point) (b : Ca.churn_point) =
    let seeded (c : Ca.churn_point) =
      {
        c with
        Ca.cwall_s = 0.;
        median_event_s = 0.;
        p90_event_s = 0.;
        p99_event_s = 0.;
        max_event_s = 0.;
        minor_words_per_event = 0.;
        major_words_per_event = 0.;
      }
    in
    if seeded a <> seeded b then failwith "live: a seeded churn campaign did not repeat";
    {
      a with
      Ca.cwall_s = Float.min a.Ca.cwall_s b.Ca.cwall_s;
      median_event_s = Float.min a.Ca.median_event_s b.Ca.median_event_s;
      p90_event_s = Float.min a.Ca.p90_event_s b.Ca.p90_event_s;
      p99_event_s = Float.min a.Ca.p99_event_s b.Ca.p99_event_s;
      max_event_s = Float.min a.Ca.max_event_s b.Ca.max_event_s;
      minor_words_per_event = Float.min a.Ca.minor_words_per_event b.Ca.minor_words_per_event;
      major_words_per_event = Float.min a.Ca.major_words_per_event b.Ca.major_words_per_event;
    }
  in
  List.fold_left (List.map2 best) (run ()) (List.init (Jrec.repeats - 1) (fun _ -> run ()))

(* One churn table; every point becomes a JSON row keyed by
   (d, n, engine, target_f). *)
let table ~engine ?reuse ~trials ~events ~targets ~d ~n () =
  let size = (W.params ~d ~n).W.size in
  Printf.printf " churn: B(%d,%d) (%d nodes), %d trials x %d events [%s]\n" d n
    size trials events engine;
  let pts = steady_churn ?reuse ~trials ~targets ~events ~d ~n () in
  List.iter
    (fun cp ->
      print_point cp;
      record
        ([
           ("section", jstr "live");
           ("d", jint d);
           ("n", jint n);
           ("engine", jstr engine);
         ]
        @ churn_fields cp))
    pts;
  if List.exists (fun cp -> cp.Ca.cerrors > 0) pts then
    failwith "live: a churn trial aborted with a pipeline error";
  pts

(* The headline comparison: median event latency against one full batch
   recompute of the same instance (the cost Live.apply avoids). *)
let recompute_baseline ~d ~n =
  let p = W.params ~d ~n in
  let r, s =
    Jrec.time (fun () -> Ffc.Embed.embed ~root_hint:1 p ~faults:[ 1 ])
  in
  match r with
  | Some _ -> s
  | None -> failwith "live: baseline embed failed"

let latency_vs_recompute ~trials ~events ~targets ~d ~n () =
  let pts = table ~engine:"workspace" ~trials ~events ~targets ~d ~n () in
  let recompute_s = recompute_baseline ~d ~n in
  let median =
    List.fold_left (fun acc cp -> Float.max acc cp.Ca.median_event_s) 0. pts
  in
  let speedup = if median > 0. then recompute_s /. median else 0. in
  Printf.printf
    "  one full recompute: %.3f s; worst median event: %.6f s (%.0fx); \
     thesis target median <= 10 ms: %s\n"
    recompute_s median speedup
    (if median <= 0.010 then "met" else "MISSED");
  record
    [
      ("section", jstr "live-speedup");
      ("d", jint d);
      ("n", jint n);
      ("engine", jstr "workspace");
      ("recompute_s", jnum recompute_s);
      ("speedup_vs_recompute", jnum speedup);
    ]

let run ?(json = false) ?(smoke = false) () =
  print_endline (String.make 78 '-');
  print_endline "LIVE CHURN - incremental ring repair vs the batch FFC pipeline";
  print_endline (String.make 78 '-');
  (* Workspace vs fresh: identical seeded events through both paths. *)
  let trials = if smoke then 4 else 10 in
  let events = if smoke then 60 else 200 in
  let targets = [ 2; 8 ] in
  ignore (table ~engine:"workspace" ~trials ~events ~targets ~d:2 ~n:10 ());
  ignore (table ~engine:"fresh" ~reuse:false ~trials ~events ~targets ~d:2 ~n:10 ());
  if not smoke then begin
    print_endline " latency at scale (one live engine, reused workspace):";
    latency_vs_recompute ~trials:3 ~events:100 ~targets:[ 8 ] ~d:2 ~n:17 ();
    latency_vs_recompute ~trials:2 ~events:50 ~targets:[ 8 ] ~d:2 ~n:22 ()
  end;
  print_newline ();
  if json then Jrec.write "BENCH_live.json"
