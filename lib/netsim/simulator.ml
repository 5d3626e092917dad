type 'm outgoing = int * 'm

type ('s, 'm) protocol = {
  initial : int -> 's;
  step : round:int -> int -> 's -> (int * 'm) list -> 's * 'm outgoing list;
  wants_step : 's -> bool;
}

type round_metrics = {
  active : int;
  delivered_in_round : int;
  sent : int;
  payload_words : int;
  wall_ns : float;
}

type 's result = {
  rounds : int;
  states : 's array;
  delivered : int;
  max_inflight : int;
  max_port_load : int;
  payload_total : int;
  trace : round_metrics array;
}

exception Illegal_send of { round : int; src : int; dst : int }
exception Did_not_converge of int

(* ------------------------------------------------------------------ *)
(* Flat, reusable per-node mailboxes: parallel (srcs, msgs) growth
   arrays.  [clear] only resets the length, so the backing store is
   reused round after round — no per-round allocation proportional to
   the network size, only to the traffic.  Cleared slots keep their old
   payload references until overwritten; peak retention is bounded by
   the peak per-node traffic of the run. *)

type 'm mailbox = {
  mutable srcs : int array;
  mutable msgs : 'm array;
  mutable mlen : int;
}

let mb_create () = { srcs = [||]; msgs = [||]; mlen = 0 }

let mb_push mb src msg =
  let cap = Array.length mb.srcs in
  if mb.mlen = cap then begin
    let cap' = if cap = 0 then 4 else 2 * cap in
    let srcs' = Array.make cap' src and msgs' = Array.make cap' msg in
    Array.blit mb.srcs 0 srcs' 0 mb.mlen;
    Array.blit mb.msgs 0 msgs' 0 mb.mlen;
    mb.srcs <- srcs';
    mb.msgs <- msgs'
  end;
  mb.srcs.(mb.mlen) <- src;
  mb.msgs.(mb.mlen) <- msg;
  mb.mlen <- mb.mlen + 1

let mb_clear mb = mb.mlen <- 0

(* Inbox as the protocol sees it: (src, payload) list in push order.
   Pushes happen in ascending-sender order (the worklist is sorted
   before stepping), so the list is sorted by source with same-source
   messages in send order — no comparison of payloads ever happens. *)
let mb_to_list mb =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) ((mb.srcs.(i), mb.msgs.(i)) :: acc)
  in
  build (mb.mlen - 1) []

(* A growable int vector for the round worklists. *)
type vec = { mutable a : int array; mutable vlen : int }

let vec_create () = { a = [||]; vlen = 0 }

let vec_push v x =
  let cap = Array.length v.a in
  if v.vlen = cap then begin
    let cap' = if cap = 0 then 16 else 2 * cap in
    let a' = Array.make cap' x in
    Array.blit v.a 0 a' 0 v.vlen;
    v.a <- a'
  end;
  v.a.(v.vlen) <- x;
  v.vlen <- v.vlen + 1

let int_cmp (x : int) (y : int) = if x < y then -1 else if x > y then 1 else 0

let vec_sort v =
  if v.vlen = Array.length v.a then Array.sort int_cmp v.a
  else begin
    let s = Array.sub v.a 0 v.vlen in
    Array.sort int_cmp s;
    Array.blit s 0 v.a 0 v.vlen
  end

(* ------------------------------------------------------------------ *)

let now_ns () =
  (Unix.gettimeofday () [@lint.allow "R1 per-round wall-clock trace metrics: reported, never branched on"]) *. 1e9

(* Default payload sizing: every message counts as zero words, so
   protocols that predate the accounting keep reporting 0 — the metric
   is strictly opt-in. *)
let zero_payload _ = 0

let run ?max_rounds ?(payload_words = zero_payload) ~topology ~faulty proto =
  let n = Graphlib.Digraph.n_nodes topology in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 64) in
  let live v = not (faulty v) in
  let states = Array.init n proto.initial in
  let cur = ref (Array.init n (fun _ -> mb_create ())) in
  let nxt = ref (Array.init n (fun _ -> mb_create ())) in
  (* Worklist of the round being executed (sorted ascending before the
     step sweep) and the one being accumulated for the next round.
     [scheduled] marks membership in [nextw]; a node appears at most
     once however many messages it receives. *)
  let work = ref (vec_create ()) in
  let nextw = ref (vec_create ()) in
  let scheduled = Array.make n false in
  for v = 0 to n - 1 do
    if live v then vec_push !work v
  done;
  (* The initial worklist is built in node order. *)
  let work_sorted = ref true in
  let delivered = ref 0 in
  let max_inflight = ref 0 in
  let max_port_load = ref 0 in
  let payload_total = ref 0 in
  let trace = ref [] in
  let executed = ref 0 in
  let finished = ref false in
  while not !finished do
    if !work.vlen = 0 then finished := true
    else begin
      (* The guard runs before the round executes, so a run performs at
         most [max_rounds] rounds (indices 0 .. max_rounds − 1). *)
      if !executed >= max_rounds then raise (Did_not_converge max_rounds);
      let t0 = now_ns () in
      let r = !executed in
      if not !work_sorted then vec_sort !work;
      let wa = !work.a and k = !work.vlen in
      let cur_boxes = !cur and nxt_boxes = !nxt in
      let round_delivered = ref 0 and round_sent = ref 0 in
      let round_payload = ref 0 in
      (* Deliver the sends of node [v] (stepped this round) and schedule
         the recipients.  Called in ascending-sender order, which keeps
         every next-round inbox sorted by source. *)
      let apply v (state', sends) =
        let mb = cur_boxes.(v) in
        round_delivered := !round_delivered + mb.mlen;
        mb_clear mb;
        states.(v) <- state';
        let port = ref 0 in
        List.iter
          (fun (dst, payload) ->
            incr port;
            if not (Graphlib.Digraph.mem_edge topology v dst) then
              raise (Illegal_send { round = r; src = v; dst });
            if live dst then begin
              round_payload := !round_payload + payload_words payload;
              mb_push nxt_boxes.(dst) v payload;
              if not scheduled.(dst) then begin
                scheduled.(dst) <- true;
                vec_push !nextw dst
              end
            end)
          sends;
        round_sent := !round_sent + !port;
        max_port_load := max !max_port_load !port;
        if (not scheduled.(v)) && proto.wants_step states.(v) then begin
          scheduled.(v) <- true;
          vec_push !nextw v
        end
      in
      for i = 0 to k - 1 do
        let v = wa.(i) in
        apply v (proto.step ~round:r v states.(v) (mb_to_list cur_boxes.(v)))
      done;
      delivered := !delivered + !round_delivered;
      max_inflight := max !max_inflight !round_delivered;
      payload_total := !payload_total + !round_payload;
      trace :=
        {
          active = k;
          delivered_in_round = !round_delivered;
          sent = !round_sent;
          payload_words = !round_payload;
          wall_ns = now_ns () -. t0;
        }
        :: !trace;
      (* Swap mailbox generations and worklists; every stepped node's
         current mailbox was cleared above, so [nxt] is all-empty after
         the swap.  Quiescence is the next worklist being empty — no
         O(n) rescan. *)
      let t = !cur in
      cur := !nxt;
      nxt := t;
      let tw = !work in
      tw.vlen <- 0;
      work := !nextw;
      nextw := tw;
      (* Clear the membership flags and establish sort order for the
         new worklist.  Dense rounds (≥ n/4 nodes scheduled) rebuild it
         by a linear scan of the flags — O(n), cache-friendly, and
         sorted for free — instead of paying the O(k log k) sort; on
         an all-active workload that is the difference between this
         engine and the seed's full scan. *)
      let w = !work in
      if 4 * w.vlen >= n then begin
        w.vlen <- 0;
        for v = 0 to n - 1 do
          if scheduled.(v) then begin
            scheduled.(v) <- false;
            vec_push w v
          end
        done;
        work_sorted := true
      end
      else begin
        for i = 0 to w.vlen - 1 do
          scheduled.(w.a.(i)) <- false
        done;
        work_sorted := false
      end;
      incr executed
    end
  done;
  {
    rounds = !executed;
    states;
    delivered = !delivered;
    max_inflight = !max_inflight;
    max_port_load = !max_port_load;
    payload_total = !payload_total;
    trace = Array.of_list (List.rev !trace);
  }
