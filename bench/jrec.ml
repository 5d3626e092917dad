(* Shared --json recorder for the bench sections.

   Each section accumulates flat JSON objects with [record] and dumps
   them with [write] (which also clears the buffer, so sections running
   in one process never leak rows into each other's files).  Values are
   pre-encoded strings, so no JSON library is needed.

   [time_gc] is the uniform measurement wrapper: wall clock plus the
   minor/major-heap words allocated by the thunk (from [Gc.counters],
   so promotion is not double-counted), letting every section report
   allocation next to speed and the CI gate window both.  It runs the
   thunk once to warm up and then [repeats] more times, and reports
   the minimum of each figure over those runs. *)

let rows : string list ref = ref []
let jstr s = Printf.sprintf "%S" s
let jint (i : int) = string_of_int i
let jnum f = Printf.sprintf "%.6f" f
let jbool = string_of_bool

let record fields =
  rows :=
    ("  {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")
    :: !rows

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.rev !rows));
  output_string oc "\n]\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length !rows);
  rows := []

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

type gc_timed = {
  wall_s : float;
  minor_words : float;
  major_words : float;
  max_rss_kb : int;
}

(* Peak resident set size (VmHWM) in kB, from /proc/self/status; 0 on
   platforms without procfs.  Monotone over the process lifetime, so
   the recorded value is the peak up to the end of the measured thunk —
   off-heap Bigarray arenas show up here but not in the GC words. *)
let max_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match String.split_on_char ':' line with
            | "VmHWM" :: rest ->
                let toks = String.split_on_char ' ' (String.trim (String.concat ":" rest)) in
                List.fold_left
                  (fun acc tok ->
                    match acc with 0 -> Option.value ~default:0 (int_of_string_opt tok) | n -> n)
                  0 toks
            | _ -> scan ())
      in
      let kb = scan () in
      close_in ic;
      kb

(* One run's word counts also hold whatever the GC state at its start
   adds to its window (a ~10^5-word burst that lands in one row or
   another), so one run measures the heap, not the code.  The thunk's
   own allocation is the same every run; the minimum over the measured
   runs after a warm-up is that figure.  Wall clock takes the minimum
   too: the steady-state cost, without first-touch page faults. *)
let repeats = 3

let time_gc f =
  ignore (Sys.opaque_identity (f ()));
  let once () =
    let mn0, _, mj0 = Gc.counters () in
    let t0 = Unix.gettimeofday () in
    let x = f () in
    let wall_s = Unix.gettimeofday () -. t0 in
    let mn1, _, mj1 = Gc.counters () in
    (x, { wall_s; minor_words = mn1 -. mn0; major_words = mj1 -. mj0; max_rss_kb = 0 })
  in
  let rec go k (x, g) =
    if k = 0 then (x, { g with max_rss_kb = max_rss_kb () })
    else
      let _, g' = once () in
      go (k - 1)
        ( x,
          {
            g with
            wall_s = Float.min g.wall_s g'.wall_s;
            minor_words = Float.min g.minor_words g'.minor_words;
            major_words = Float.min g.major_words g'.major_words;
          } )
  in
  go (repeats - 1) (once ())

let gc_fields g =
  [
    ("wall_s", jnum g.wall_s);
    ("minor_words", jnum g.minor_words);
    ("major_words", jnum g.major_words);
    ("max_rss_kb", jint g.max_rss_kb);
  ]

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words
