(* One FFC embed on one domain: the sequential fresh-allocation run and
   the warm-workspace steady state.

   Smoke: B(2,16); full: B(2,22).  The fresh row records wall clock, GC
   words and peak RSS of one embed; the steady-state row measures GC
   words per embed once the arena is warm — the near-zero-allocation
   claim of the Bigarray workspace.  Both rows are gated.  (The section
   keeps its historical name: it used to sweep domain counts, which
   never beat one domain — EXPERIMENTS.md "Parallelism decision".) *)

module W = Debruijn.Word
module E = Ffc.Embed

let jstr = Jrec.jstr
let jint = Jrec.jint
let jnum = Jrec.jnum
let jbool = Jrec.jbool
let record = Jrec.record

let embed_rows ~d ~n =
  let p = W.params ~d ~n in
  let faults = [ 1 ] in
  Printf.printf " single embed: B(%d,%d) (%d nodes), f = 1\n" d n p.W.size;
  let seq, gseq = Jrec.time_gc (fun () -> Option.get (E.embed p ~faults)) in
  Printf.printf "  sequential fresh        %8.3f s  minor %12.0f w\n" gseq.Jrec.wall_s
    gseq.Jrec.minor_words;
  record
    ([
       ("section", jstr "multicore");
       ("d", jint d);
       ("n", jint n);
       ("nodes", jint p.W.size);
       ("engine", jstr "sequential fresh");
     ]
    @ Jrec.gc_fields gseq
    @ [ ("verified", jbool (E.verify seq)); ("ring_length", jint (E.length seq)) ]);
  let ws = Ffc.Workspace.create p in
  (* Steady state: one warm arena, repeated embeds.  GC words per embed
     must stay near zero — only the result cycle array and the small
     pipeline records are heap-allocated. *)
  let reps = 5 in
  ignore (Option.get (E.embed ~ws p ~faults));
  let _, gsteady =
    Jrec.time_gc (fun () ->
        for _ = 1 to reps do
          ignore (Option.get (E.embed ~ws p ~faults))
        done)
  in
  let per = float_of_int reps in
  Printf.printf
    "  steady-state workspace  %8.3f s/embed  minor %10.1f w/embed  major %10.1f \
     w/embed\n"
    (gsteady.Jrec.wall_s /. per)
    (gsteady.Jrec.minor_words /. per)
    (gsteady.Jrec.major_words /. per);
  record
    [
      ("section", jstr "multicore-steady");
      ("d", jint d);
      ("n", jint n);
      ("nodes", jint p.W.size);
      ("engine", jstr "workspace steady");
      ("wall_s", jnum (gsteady.Jrec.wall_s /. per));
      ("minor_words", jnum (gsteady.Jrec.minor_words /. per));
      ("major_words", jnum (gsteady.Jrec.major_words /. per));
      ("max_rss_kb", jint gsteady.Jrec.max_rss_kb);
    ]

let run ?(json = false) ?(smoke = false) () =
  print_endline (String.make 78 '-');
  print_endline
    "MULTICORE - one embed on one domain: fresh vs warm off-heap arena";
  print_endline (String.make 78 '-');
  if smoke then embed_rows ~d:2 ~n:16 else embed_rows ~d:2 ~n:22;
  print_newline ();
  if json then Jrec.write "BENCH_multicore.json"
