(* cli: spawn `debruijn-rings ffc -d 2 -n 18 <8 seeded faults>` in a
   closed loop, one child at a time, draining its stdout. *)

open Common

let d = 2

(* Output check: the length header, n digits per word, a De Bruijn
   edge between consecutive words (wrap included), and the ring equal
   to the in-process reference. *)
let check p ~expected out =
  match String.index_opt out '\n' with
  | None -> false
  | Some nl -> (
      let header = String.sub out 0 nl in
      let body = String.trim (String.sub out (nl + 1) (String.length out - nl - 1)) in
      let words = if body = "" then [||] else Array.of_list (String.split_on_char ' ' body) in
      let k = Array.length words in
      let n = p.Debruijn.Word.n in
      match Scanf.sscanf header "# ring length %d of %d nodes" (fun len size -> (len, size)) with
      | exception _ -> false
      | len, size ->
          len = k && size = p.Debruijn.Word.size && k = Array.length expected && k > 0
          && Array.for_all
               (fun w ->
                 String.length w = n
                 && String.for_all (fun c -> c >= '0' && Char.code c - 48 < d) w)
               words
          &&
          let ring = Array.map (Debruijn.Word.of_string p) words in
          ring = expected
          &&
          let ok = ref true in
          Array.iteri
            (fun i x ->
              let y = ring.((i + 1) mod k) in
              if Debruijn.Word.prefix p y <> Debruijn.Word.suffix p x then ok := false)
            ring;
          !ok)

(* Spawn [args], drain stdout, poll the child's VmHWM while it runs.
   Returns (exit status, stdout, peak kB). *)
let spawn exe args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let buf = Buffer.create (1 lsl 20) in
  let chunk = Bytes.create 65536 in
  let spid = string_of_int pid in
  let peak = ref 0 in
  let poll () = Option.iter (fun k -> peak := max !peak k) (vm_hwm_kb spid) in
  let rec drain reads =
    if reads land 7 = 0 then poll ();
    let got = Unix.read rd chunk 0 (Bytes.length chunk) in
    if got > 0 then begin
      Buffer.add_subbytes buf chunk 0 got;
      drain (reads + 1)
    end
  in
  Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> drain 0);
  poll ();
  let _, status = Unix.waitpid [] pid in
  (status, Buffer.contents buf, !peak)

let run cfg =
  let n = if cfg.tiny then 8 else 18 in
  let nfaults = if cfg.tiny then 2 else 8 in
  let p = Debruijn.Word.params ~d ~n in
  let rng = Util.Rng.create cfg.seed in
  let faults = Util.Rng.sample_distinct rng ~k:nfaults ~bound:p.Debruijn.Word.size in
  let args =
    [ "ffc"; "-d"; string_of_int d; "-n"; string_of_int n ]
    @ List.map (Debruijn.Word.to_string p) faults
  in
  (* Set-up: the reference ring the checker compares against. *)
  let expected, setup_s =
    repeated_setup (fun () -> Core.fault_free_ring ~d ~n ~faults)
  in
  let attempted = ref 0 and failed = ref 0 in
  let walls = ref [] and peaks = ref [] and traced = ref [] and bytes = ref 0 in
  let startups = ref [] and embeds = ref [] and alloc = ref [] and first = ref None in
  let one ~traced_run =
    incr attempted;
    Span.new_op ();
    match
      time (fun () ->
          if traced_run then Span.span "cli.spawn" (fun () -> spawn cfg.cli_exe args)
          else spawn cfg.cli_exe args)
    with
    | exception _ -> incr failed
    | (status, out, peak), dt ->
        let ok =
          status = Unix.WEXITED 0
          && match expected with Some e -> check p ~expected:e out | None -> false
        in
        if not ok then incr failed
        else if traced_run then traced := dt :: !traced
        else begin
          walls := dt :: !walls;
          peaks := float peak :: !peaks;
          bytes := String.length out
        end
  in
  (* Traced cycle: one plain spawn, one spawn under a span, then the
     parts the residual is taken against — a `--version` spawn and the
     same embedding in process, stage by stage. *)
  closed_loop cfg ~cycle:1 (fun _ ->
      one ~traced_run:false;
      if cfg.trace then begin
        one ~traced_run:true;
        (match time (fun () -> Span.span "cli.startup" (fun () -> spawn cfg.cli_exe [ "--version" ])) with
        | (Unix.WEXITED 0, _, _), dt -> startups := dt :: !startups
        | _ -> incr failed);
        match
          Stages.allocated (fun () ->
              time (fun () -> Span.span "cli.embed" (fun () -> Stages.embed p ~faults)))
        with
        | (Some e, dt), a ->
            embeds := dt :: !embeds;
            alloc := a :: !alloc;
            if !first = None then first := Some (Stages.counters e);
            if not (Stages.verify e && Some e.Ffc.Embed.cycle = expected) then incr failed
        | (None, _), _ -> incr failed
      end);
  let wall = median !walls and peak = median !peaks in
  let e2e = [ m "setup_s" "s" setup_s; m "p50_s" "s" wall; m "peak_rss_kb" "kB" peak ] in
  let layer, trace_detail =
    if not cfg.trace then ([], [])
    else begin
      let startup = median !startups and embed = median !embeds in
      let render = wall -. startup -. embed in
      let over = overhead ~traced:!traced ~untraced:!walls in
      let ffc = Stages.layer_metrics ~op_span:"cli.embed" ~alloc:!alloc ~first:(Option.get !first) in
      ( ffc
        @ [
            m "trace.overhead_share" "share" over;
            m ~kind:Residual "trace.unexplained_share" "share" (render /. wall);
          ],
        ffc
        @ [
            m "cli.startup_s" "s" startup;
            m "cli.embed_s" "s" embed;
            m ~kind:Residual "cli.render_s" "s" render;
            m "trace.overhead_share.cli" "share" over;
            m ~kind:Residual "trace.unexplained_share.cli" "share" (render /. wall);
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
        m "cli_wall_s" "s" wall;
        m "setup_s" "s" setup_s;
        m "peak_rss_kb" "kB" peak;
        m ~kind:Exact "cli.stdout_bytes" "bytes" (float !bytes);
        m ~kind:Exact "ops_attempted" "count" (float !attempted);
        m ~kind:Exact "ops_failed" "count" (float !failed);
        m "spawns" "count" (float (List.length !walls));
      ]
      @ trace_detail;
    sizes =
      [
        ("instance", Printf.sprintf "B(2,%d)" n);
        ("nodes", string_of_int p.Debruijn.Word.size);
        ("faults", String.concat " " (List.map (Debruijn.Word.to_string p) faults));
      ];
  }
