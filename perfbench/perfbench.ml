(* perfbench: the repository benchmark.

   perfbench --workload W --seed S --seconds T --trace 0|1 --cli EXE

   runs one workload and prints two JSON lines: a detail line with
   every named figure, the run metadata and the instance sizes, then
   the result line (the last line of standard output) with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   --tiny shrinks every instance for the self-test; --check-checkers
   feeds each output checker a corrupted result. *)

open Common

let workloads =
  [
    ("cli", W_cli.run);
    ("ring-query", W_ring.run);
    ("churn", W_churn.run);
    ("collective", W_collective.run);
  ]

let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ","
    (List.map
       (fun x ->
         Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name (json_number x.value) x.unit_)
       ms)

let json_detail ms =
  String.concat ","
    (List.map
       (fun x ->
         Printf.sprintf "%S:{\"value\":%s,\"unit\":%S,\"kind\":%S}" x.name
           (json_number x.value) x.unit_ (kind_label x.kind))
       ms)

let read_cmd cmd =
  match Unix.open_process_in cmd with
  | exception _ -> "unknown"
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line

let meta cfg workload (r : report) =
  let kv = List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) in
  String.concat ","
    (kv
       ([
          ("workload", workload);
          ("seed", string_of_int cfg.seed);
          ("held_out_seed", "9001");
          ("seconds", Printf.sprintf "%g" cfg.seconds);
          ("trace", if cfg.trace then "1" else "0");
          ("nproc", read_cmd "nproc");
          ("ocaml", Sys.ocaml_version);
          ("commit", read_cmd "git rev-parse --short HEAD 2>/dev/null");
          ("domains", "1");
          ("llc", read_cmd "cat /sys/devices/system/cpu/cpu0/cache/index3/size 2>/dev/null");
        ]
       @ r.sizes))

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli EXE \
     [--tiny] [--out DIR]\n       perfbench --check-checkers --cli EXE";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and cli = ref "" and out = ref ".bench_out" and checkers = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--cli" :: v :: rest -> cli := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--check-checkers" :: rest -> checkers := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !checkers then exit (Selftest.run ~cli_exe:!cli);
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  if !cli = "" || not (Sys.file_exists !cli) then usage ();
  let cfg =
    { seed = !seed; seconds = !seconds; trace = !trace = 1; tiny = !tiny; cli_exe = !cli; out_dir = !out }
  in
  Span.enabled := cfg.trace;
  let r = run cfg in
  if cfg.trace then begin
    (try Unix.mkdir cfg.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.dump (Filename.concat cfg.out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload cfg.seed))
  end;
  let metrics = if cfg.trace then r.layer else r.e2e in
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let correct = r.failed = 0 && r.attempted > 0 && finite in
  Printf.printf "{\"detail\":{%s},\"meta\":{%s}}\n" (json_detail r.detail) (meta cfg !workload r);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    r.attempted r.failed (json_metrics metrics)
