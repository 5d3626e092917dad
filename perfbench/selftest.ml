(* Each output checker must accept a correct result and reject the same
   result with one deliberate corruption. *)

let swap a i j =
  let a = Array.copy a in
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t;
  a

let cases ~cli_exe =
  let p = Debruijn.Word.params ~d:2 ~n:8 in
  let faults = [ 3; 77 ] in
  let e = Option.get (Ffc.Embed.embed p ~faults) in
  let ring = e.Ffc.Embed.cycle in
  let cli_out =
    let args = [ "ffc"; "-d"; "2"; "-n"; "8" ] @ List.map (Debruijn.Word.to_string p) faults in
    let _, out, _ = W_cli.spawn cli_exe args in
    out
  in
  let cli_swapped =
    (* Two adjacent words of the ring swapped. *)
    let nl = String.index cli_out '\n' in
    let words = String.split_on_char ' ' (String.trim (String.sub cli_out (nl + 1) (String.length cli_out - nl - 1))) in
    String.sub cli_out 0 (nl + 1) ^ String.concat " " (Array.to_list (swap (Array.of_list words) 1 2)) ^ "\n"
  in
  let ring_query cycle =
    let e' = { e with Ffc.Embed.cycle } in
    W_ring.check p ~f:2 ~verified:(Ffc.Embed.verify e') (Stages.counters e')
  in
  let live = Ffc.Live.create p ~faults in
  let q = Debruijn.Word.params ~d:4 ~n:4 in
  let report =
    Collective.Fastpath.run ~p:q ~faulty:(fun _ -> false)
      ~rings:(List.map Dhc.Stream.to_nodes (Dhc.Compose.disjoint_hamiltonian_streams ~d:4 ~n:4))
      { Collective.Exec.op = Allreduce; ranks = 8; chunk_words = 4; bidirectional = false }
  in
  let off_by_one = { report with Collective.Exec.checksum = report.Collective.Exec.checksum + 1 } in
  let previous = Some (W_collective.counters report) in
  [
    ("cli", W_cli.check p ~expected:ring cli_out, W_cli.check p ~expected:ring cli_swapped);
    ("ring-query", ring_query ring, ring_query (swap ring 1 2));
    ("churn", W_churn.check live (Some ring), W_churn.check live (Some (swap ring 1 2)));
    ( "collective",
      W_collective.check ~previous report,
      W_collective.check ~previous off_by_one );
  ]

let run ~cli_exe =
  let bad = ref 0 in
  List.iter
    (fun (name, accepts, rejects) ->
      let ok = accepts && not rejects in
      if not ok then incr bad;
      Printf.printf "checker %-10s accepts correct: %b  rejects corrupted: %b\n" name accepts
        (not rejects))
    (cases ~cli_exe);
  if !bad = 0 then 0 else 1
