module W = Debruijn.Word
module Nk = Debruijn.Necklace
module Fa = Graphlib.Flatarr

type event = Fault of int | Repair of int

type outcome = Patched | Recomputed | Unchanged

type error = Out_of_range of int | Already_faulty of int | Not_faulty of int

type stats = {
  events : int;
  fault_events : int;
  repair_events : int;
  rejected : int;
  patched : int;
  recomputed : int;
  unchanged : int;
  affected_nodes : int;
  last_affected : int;
  scanned : int;
  last_scanned : int;
}

(* Growable int vector — per-event scratch that amortizes to zero
   allocation once warm. *)
type vec = { mutable buf : int array; mutable len : int }

let vec_create () = { buf = Array.make 64 0; len = 0 }
let vec_clear v = v.len <- 0

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 b 0 v.len;
    v.buf <- b
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

type t = {
  p : W.params;
  root_hint : int option;
  ws : Workspace.t option;
  (* ---- the current fault set ---- *)
  faulty : Fa.Byte.t;  (* per node, 0/1 *)
  nk_faults : (int, int) Hashtbl.t;  (* necklace rep -> faulty nodes on it *)
  mutable fault_count : int;
  mutable live_nodes : int;  (* nodes on fault-free necklaces *)
  (* ---- B* state, all node-level (index-free, so splices never
     renumber anything); membership is [dist >= 0] ---- *)
  dist : int array;  (* BFS distance from root; -1 outside B* *)
  successor : int array;  (* ring successor map; -1 outside B* *)
  mutable root : int;  (* -1 when B* is empty *)
  mutable bsize : int;
  mutable ecc : int;
  (* ---- derived necklace structure, and its per-event stamps ---- *)
  nk : Fa.t;
      (* three slots per representative r, side by side so that one
         necklace touch is one cache miss: 3r, its chosen node (the
         lex-min (dist, node); -1 if r is not a B* rep); 3r+1, the next
         child rep in its label bucket; 3r+2, its mark stamp (stamp when
         marked this event, -stamp when marked and to be rescanned) *)
  wb : Fa.t;
      (* two slots per label w: 2w, the bucket's first child rep (-1);
         2w+1, the stamp when the bucket was made dirty *)
  (* ---- ecc maintenance ---- *)
  mutable hist : int array;  (* hist.(k) = members at distance k *)
  (* ---- per-event scratch (epoch-stamped, never cleared wholesale) ---- *)
  mutable stamp : int;
  aff_stamp : int array;  (* node -> stamp when invalidated this event *)
  set_stamp : int array;  (* node -> stamp when (re)settled this event *)
  cand : int array;  (* node -> tentative distance during repair *)
  queue : vec;
  affected : vec;
  changed : vec;
  marked : vec;
  dirty : vec;
  members : vec;
  mutable bq : vec array;  (* bucket queue indexed by tentative distance *)
  mutable bq_hi : int;
  (* ---- counters ---- *)
  mutable c_events : int;
  mutable c_faults : int;
  mutable c_repairs : int;
  mutable c_rejected : int;
  mutable c_patched : int;
  mutable c_recomputed : int;
  mutable c_unchanged : int;
  mutable c_affected : int;
  mutable c_last_affected : int;
  mutable c_scanned : int;
  mutable c_last_scanned : int;
  mutable ev_scanned : int;  (* rescan visits in the current event *)
}

let[@inline] chosen t r = t.nk.{3 * r}
let[@inline] set_chosen t r y = t.nk.{3 * r} <- y
let[@inline] next t r = t.nk.{(3 * r) + 1}
let[@inline] set_next t r s = t.nk.{(3 * r) + 1} <- s
let[@inline] nk_stamp t r = t.nk.{(3 * r) + 2}
let[@inline] set_nk_stamp t r s = t.nk.{(3 * r) + 2} <- s
let[@inline] head t w = t.wb.{2 * w}
let[@inline] set_head t w r = t.wb.{2 * w} <- r
let[@inline] w_stamp t w = t.wb.{(2 * w) + 1}
let[@inline] set_w_stamp t w s = t.wb.{(2 * w) + 1} <- s

let params t = t.p
let size t = t.bsize
let root t = t.root
let ecc t = t.ecc
let ring_length t = t.bsize
let is_empty t = t.bsize = 0
let in_bstar t v = t.dist.(v) >= 0
let dist t v = t.dist.(v)
let successor t v = t.successor.(v)
let is_faulty t v = t.faulty.{v} <> 0
let fault_count t = t.fault_count

let stats t =
  {
    events = t.c_events;
    fault_events = t.c_faults;
    repair_events = t.c_repairs;
    rejected = t.c_rejected;
    patched = t.c_patched;
    recomputed = t.c_recomputed;
    unchanged = t.c_unchanged;
    affected_nodes = t.c_affected;
    last_affected = t.c_last_affected;
    scanned = t.c_scanned;
    last_scanned = t.c_last_scanned;
  }

let current_faults t =
  let acc = ref [] in
  for v = t.p.W.size - 1 downto 0 do
    if t.faulty.{v} <> 0 then acc := v :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* ecc via a distance histogram: O(1) amortized updates, exact max.    *)

let ensure_hist t k =
  let len = Array.length t.hist in
  if k >= len then begin
    let b = Array.make (max (2 * len) (k + 1)) 0 in
    Array.blit t.hist 0 b 0 len;
    t.hist <- b
  end

let hist_inc t k =
  ensure_hist t k;
  t.hist.(k) <- t.hist.(k) + 1;
  if k > t.ecc then t.ecc <- k

let hist_dec t k =
  t.hist.(k) <- t.hist.(k) - 1;
  if k = t.ecc then
    while t.ecc > 0 && t.hist.(t.ecc) = 0 do
      t.ecc <- t.ecc - 1
    done

(* ------------------------------------------------------------------ *)
(* bucket queue for the incremental BFS phases                          *)

let bq_push t k v =
  let len = Array.length t.bq in
  if k >= len then begin
    let b = Array.make (max (2 * len) (k + 1)) t.bq.(0) in
    Array.blit t.bq 0 b 0 len;
    for i = len to Array.length b - 1 do
      b.(i) <- vec_create ()
    done;
    t.bq <- b
  end;
  vec_push t.bq.(k) v;
  if k > t.bq_hi then t.bq_hi <- k

let bq_reset t =
  for k = 0 to t.bq_hi do
    vec_clear t.bq.(k)
  done;
  t.bq_hi <- -1

(* ------------------------------------------------------------------ *)
(* full recompute: initialization and the safety-net fallback          *)

(* No representative has a chosen node, every bucket is empty. *)
let clear_buckets t =
  for r = 0 to t.p.W.size - 1 do
    set_chosen t r (-1)
  done;
  for w = 0 to t.p.W.stride - 1 do
    set_head t w (-1)
  done

let set_empty t =
  let sz = t.p.W.size in
  Array.fill t.dist 0 sz (-1);
  Array.fill t.successor 0 sz (-1);
  clear_buckets t;
  Array.fill t.hist 0 (Array.length t.hist) 0;
  t.root <- -1;
  t.bsize <- 0;
  t.ecc <- 0

(* Rebuild every Live-owned structure from a finished [Embed.t].  The
   embed's arrays are off-heap ({!Graphlib.Flatarr}) and may alias the
   workspace, so everything is copied out: Live's arrays must survive
   the workspace's next use. *)
let load t (e : Embed.t) =
  let p = t.p in
  let d = p.W.d in
  let b = e.Embed.bstar in
  let tree = e.Embed.modified.Spanning.tree in
  Graphlib.Flatarr.blit_to_array tree.Spanning.dist t.dist;
  Graphlib.Flatarr.blit_to_array e.Embed.successor t.successor;
  t.root <- b.Bstar.root;
  t.bsize <- b.Bstar.size;
  t.ecc <- tree.Spanning.ecc;
  ensure_hist t t.ecc;
  Array.fill t.hist 0 (Array.length t.hist) 0;
  let in_bstar = b.Bstar.in_bstar in
  for v = 0 to p.W.size - 1 do
    if in_bstar.{v} <> 0 then hist_inc t t.dist.(v) else t.dist.(v) <- -1
  done;
  (* The tree's chosen node per necklace is the same lexicographic
     (dist, node) minimum Live maintains; link every non-root necklace
     into the bucket of its label. *)
  clear_buckets t;
  let reps = tree.Spanning.adj.Adjacency.reps in
  let chosen = tree.Spanning.chosen in
  for i = 0 to Array.length reps - 1 do
    let r = reps.(i) and y = chosen.{i} in
    set_chosen t r y;
    if i <> tree.Spanning.root_idx then begin
      let w = y / d in
      set_next t r (head t w);
      set_head t w r
    end
  done

let recompute t =
  t.c_recomputed <- t.c_recomputed + 1;
  let faults = current_faults t in
  match
    Embed.embed ?root_hint:t.root_hint ?ws:t.ws t.p ~faults
  with
  | None -> set_empty t
  | Some e -> load t e

(* ------------------------------------------------------------------ *)
(* the derived-structure patch: recompute chosen / labels / D-edges of
   exactly the necklaces and buckets the BFS repair touched            *)

let dirty_bucket t w =
  if w_stamp t w <> t.stamp then begin
    set_w_stamp t w t.stamp;
    vec_push t.dirty w
  end

let bucket_unlink t w r =
  if head t w = r then set_head t w (next t r)
  else begin
    let c = ref (head t w) in
    while !c >= 0 && next t !c <> r do
      c := next t !c
    done;
    if !c >= 0 then set_next t !c (next t r)
  end

(* Minimal live predecessor one level up — the batch pipeline's
   [Spanning.find_parent], on Live's own arrays. *)
let rec find_parent t stride d pre dv a =
  if a = d then -1
  else
    let u = (a * stride) + pre in
    let du = t.dist.(u) in
    if du >= 0 && du = dv - 1 then u else find_parent t stride d pre dv (a + 1)

(* Is [y] reached before [z]: the lexicographic (dist, node) order the
   batch pipeline's ascending scan picks chosen nodes by. *)
let[@inline] earlier t y z =
  let dy = t.dist.(y) and dz = t.dist.(z) in
  dy < dz || (dy = dz && y < z)

(* The chosen node of the B* necklace through [start]: the earliest of
   its rotations from [y] on, [best] so far.  Counts its visits. *)
let rec lexmin t start y best =
  t.ev_scanned <- t.ev_scanned + 1;
  let best = if earlier t y best then y else best in
  let next = W.rotl t.p y in
  if next = start then best else lexmin t start next best

exception Fallback

(* Patch [chosen] / bucket membership / succ overrides after the BFS
   repair.  [grew] says which way distances moved: a fault only grows
   them (or drops nodes), a repair only shrinks them (or adds a whole
   necklace).  Raises [Fallback] if a height-one invariant check fails
   (never on a well-formed state; the caller then runs the full
   recompute). *)
let patch_derived t ~grew =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.stride in
  let root_rep = Nk.canonical p t.root in
  let stamp = t.stamp in
  vec_clear t.marked;
  vec_clear t.dirty;
  t.ev_scanned <- 0;
  for i = 0 to t.changed.len - 1 do
    let c = t.changed.buf.(i) in
    (* A B* successor s of c has label prefix s = suffix c, and c is a
       candidate T' parent of exactly the chosen nodes with that
       label: rebuilding that one bucket re-finds their parents. *)
    dirty_bucket t (c mod stride);
    let r = Nk.canonical p c in
    if nk_stamp t r <> stamp && nk_stamp t r <> -stamp then begin
      (* first mark: leave the old bucket; a necklace new to B* has no
         chosen node yet and is rescanned *)
      let y = chosen t r in
      if y >= 0 && r <> root_rep then begin
        bucket_unlink t (y / d) r;
        dirty_bucket t (y / d)
      end;
      set_nk_stamp t r (if y < 0 then -stamp else stamp);
      vec_push t.marked r
    end;
    (* Update chosen from c.  Grown distances cannot beat the chosen
       node, so only its own move forces a rescan; shrunk ones can,
       and the chosen node shrinks no more than the winner. *)
    if nk_stamp t r = stamp then
      if grew then begin
        if c = chosen t r then set_nk_stamp t r (-stamp)
      end
      else if earlier t c (chosen t r) then set_chosen t r c
  done;
  for i = 0 to t.marked.len - 1 do
    let r = t.marked.buf.(i) in
    if t.dist.(r) < 0 then set_chosen t r (-1)
    else begin
      if nk_stamp t r = -stamp then set_chosen t r (lexmin t r r r);
      if r <> root_rep then begin
        let w = chosen t r / d in
        set_next t r (head t w);
        set_head t w r;
        dirty_bucket t w
      end
    end
  done;
  (* rebuild every dirty bucket: reset the suffix-w successor entries to
     the necklace rotation, then rewrite the sorted cyclic D-edges *)
  for i = 0 to t.dirty.len - 1 do
    let w = t.dirty.buf.(i) in
    for a = 0 to d - 1 do
      let x = (a * stride) + w in
      if t.dist.(x) >= 0 then t.successor.(x) <- W.rotl p x
    done;
    vec_clear t.members;
    (* Siblings wα, wβ share their predecessors and hence their
       distance, so every member's T' parent is the same node αw. *)
    let parent =
      (ref (-1) [@lint.allow "R7 one parent-consensus ref per dirty bucket"])
    in
    let c =
      (ref (head t w) [@lint.allow "R7 one bucket-walk cursor per dirty bucket"])
    in
    while !c >= 0 do
      let r = !c in
      vec_push t.members r;
      let py = find_parent t stride d w t.dist.(chosen t r) 0 in
      if py < 0 then raise Fallback;
      if !parent < 0 then parent := py else if !parent <> py then raise Fallback;
      c := next t r
    done;
    if t.members.len > 0 then begin
      let py = !parent in
      let pr = Nk.canonical p py in
      vec_push t.members pr;
      (* insertion sort ascending by representative — the same order as
         the batch pipeline's ascending-necklace-index sort *)
      let m = t.members.buf in
      for i = 1 to t.members.len - 1 do
        let x = m.(i) in
        let j = (ref (i - 1) [@lint.allow "R7 insertion-sort cursor, one per member"]) in
        while !j >= 0 && m.(!j) > x do
          m.(!j + 1) <- m.(!j);
          decr j
        done;
        m.(!j + 1) <- x
      done;
      (* A necklace holds at most one node with suffix w (its exit)
         and one with prefix w (its entry).  A child's entry is its
         chosen node Y = wβ and its exit the rotation βw; the parent's
         exit is αw and its entry the rotation wα. *)
      let k = t.members.len in
      for i = 0 to k - 1 do
        let x = m.(i) and z = m.((i + 1) mod k) in
        let exit = if x = pr then py else ((chosen t x - (w * d)) * stride) + w in
        let entry = if z = pr then W.rotl p py else chosen t z in
        t.successor.(exit) <- entry
      done
    end
  done
[@@lint.hot]

(* ------------------------------------------------------------------ *)
(* fault: splice the dead necklace out and repair distances downstream  *)

let rec supported t stride d pre dv a =
  if a = d then false
  else
    let u = (a * stride) + pre in
    let du = t.dist.(u) in
    if du >= 0 && t.aff_stamp.(u) <> t.stamp && du = dv - 1 then true
    else supported t stride d pre dv (a + 1)

let remove_necklace t rep =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.stride in
  t.stamp <- t.stamp + 1;
  vec_clear t.queue;
  vec_clear t.affected;
  vec_clear t.changed;
  (* 1. drop the necklace's nodes *)
  Nk.iter_nodes_from p rep
    ((fun y ->
       hist_dec t t.dist.(y);
       t.dist.(y) <- -1;
       t.successor.(y) <- -1;
       t.bsize <- t.bsize - 1;
       vec_push t.changed y)
    [@lint.allow
      "R7 necklace-drop callback: one closure per removed necklace, \
       amortized over its <= w nodes"]);
  (* 2. identify downstream nodes whose BFS level lost all support.
     Invalidation is conservative (an affected predecessor does not
     support), so phase 3 recomputes an exact superset of the nodes
     whose distance really moves. *)
  for i = 0 to t.changed.len - 1 do
    let y = t.changed.buf.(i) in
    let sw = y mod stride * d in
    for b = 0 to d - 1 do
      let z = sw + b in
      if t.dist.(z) >= 0 then vec_push t.queue z
    done
  done;
  let qi = (ref 0 [@lint.allow "R7 one invalidation-queue cursor per event"]) in
  while !qi < t.queue.len do
    let z = t.queue.buf.(!qi) in
    incr qi;
    if
      t.dist.(z) >= 0 && t.aff_stamp.(z) <> t.stamp && z <> t.root
      && not (supported t stride d (z / d) t.dist.(z) 0)
    then begin
      t.aff_stamp.(z) <- t.stamp;
      vec_push t.affected z;
      let sw = z mod stride * d in
      for b = 0 to d - 1 do
        let s = sw + b in
        if t.dist.(s) >= 0 && t.aff_stamp.(s) <> t.stamp then vec_push t.queue s
      done
    end
  done;
  (* 3. exact multi-source relayering of the affected set from its
     unaffected boundary (deletions only increase distances, so
     unaffected levels are final) *)
  bq_reset t;
  for i = 0 to t.affected.len - 1 do
    let v = t.affected.buf.(i) in
    let pre = v / d in
    let best =
      (ref max_int [@lint.allow "R7 one boundary-seed ref per affected node"])
    in
    for a = 0 to d - 1 do
      let u = (a * stride) + pre in
      if t.dist.(u) >= 0 && t.aff_stamp.(u) <> t.stamp && t.dist.(u) + 1 < !best
      then best := t.dist.(u) + 1
    done;
    t.cand.(v) <- !best;
    if !best < max_int then bq_push t !best v
  done;
  let dv = (ref 0 [@lint.allow "R7 one level cursor per event"]) in
  while !dv <= t.bq_hi do
    let level = t.bq.(!dv) in
    let li = (ref 0 [@lint.allow "R7 one within-level cursor per level"]) in
    while !li < level.len do
      let v = level.buf.(!li) in
      incr li;
      if
        t.aff_stamp.(v) = t.stamp && t.set_stamp.(v) <> t.stamp
        && t.cand.(v) = !dv
      then begin
        t.set_stamp.(v) <- t.stamp;
        if t.dist.(v) <> !dv then begin
          hist_dec t t.dist.(v);
          t.dist.(v) <- !dv;
          hist_inc t !dv;
          vec_push t.changed v
        end;
        let sw = v mod stride * d in
        for b = 0 to d - 1 do
          let s = sw + b in
          if
            t.dist.(s) >= 0 && t.aff_stamp.(s) = t.stamp
            && t.set_stamp.(s) <> t.stamp
            && t.cand.(s) > !dv + 1
          then begin
            t.cand.(s) <- !dv + 1;
            bq_push t (!dv + 1) s
          end
        done
      end
    done;
    incr dv
  done;
  (* 4. affected nodes that never resettled are cut off from the root:
     they leave B* (their live necklaces are now a smaller component) *)
  for i = 0 to t.affected.len - 1 do
    let v = t.affected.buf.(i) in
    if t.set_stamp.(v) <> t.stamp then begin
      hist_dec t t.dist.(v);
      t.dist.(v) <- -1;
      t.successor.(v) <- -1;
      t.bsize <- t.bsize - 1;
      vec_push t.changed v
    end
  done
[@@lint.hot]

(* ------------------------------------------------------------------ *)
(* repair: graft the revived necklace back and relax shortcuts          *)

(* true iff the revived necklace has any De Bruijn edge to or from the
   current B* *)
let adjacent_to_bstar t rep =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.stride in
  let hit = ref false in
  Nk.iter_nodes_from p rep (fun y ->
      if not !hit then begin
        let pre = y / d in
        let sw = y mod stride * d in
        for a = 0 to d - 1 do
          if t.dist.((a * stride) + pre) >= 0 || t.dist.(sw + a) >= 0 then
            hit := true
        done
      end);
  !hit

let insert_necklace t rep =
  let p = t.p in
  let d = p.W.d in
  let stride = p.W.stride in
  t.stamp <- t.stamp + 1;
  vec_clear t.changed;
  bq_reset t;
  (* tentative levels for the revived nodes from their settled B*
     predecessors; everything else improves by relaxation *)
  Nk.iter_nodes_from p rep (fun y ->
      t.aff_stamp.(y) <- t.stamp;
      let pre = y / d in
      let best = ref max_int in
      for a = 0 to d - 1 do
        let u = (a * stride) + pre in
        if t.dist.(u) >= 0 && t.dist.(u) + 1 < !best then best := t.dist.(u) + 1
      done;
      t.cand.(y) <- !best;
      if !best < max_int then bq_push t !best y);
  let dv = ref 0 in
  while !dv <= t.bq_hi do
    let level = t.bq.(!dv) in
    let li = ref 0 in
    while !li < level.len do
      let v = level.buf.(!li) in
      incr li;
      let settle_revived =
        t.aff_stamp.(v) = t.stamp && t.set_stamp.(v) <> t.stamp
        && t.cand.(v) = !dv
      in
      let relax_existing =
        t.aff_stamp.(v) <> t.stamp && t.dist.(v) = !dv
        && t.set_stamp.(v) <> t.stamp
      in
      if settle_revived then begin
        t.set_stamp.(v) <- t.stamp;
        t.dist.(v) <- !dv;
        t.successor.(v) <- W.rotl p v;
        t.bsize <- t.bsize + 1;
        hist_inc t !dv;
        vec_push t.changed v
      end
      else if relax_existing then t.set_stamp.(v) <- t.stamp;
      if settle_revived || relax_existing then begin
        let sw = v mod stride * d in
        for b = 0 to d - 1 do
          let s = sw + b in
          if t.aff_stamp.(s) = t.stamp then begin
            if t.set_stamp.(s) <> t.stamp && t.cand.(s) > !dv + 1 then begin
              t.cand.(s) <- !dv + 1;
              bq_push t (!dv + 1) s
            end
          end
          else if t.dist.(s) > !dv + 1 then begin
            (* a strictly shorter path through the revived necklace:
               improvements arrive in ascending level order, so each
               existing node moves at most once *)
            hist_dec t t.dist.(s);
            t.dist.(s) <- !dv + 1;
            hist_inc t (!dv + 1);
            vec_push t.changed s;
            bq_push t (!dv + 1) s
          end
        done
      end
    done;
    incr dv
  done;
  (* the merged component is strongly connected (the removed set is a
     union of necklaces), so every revived node must have settled *)
  Nk.iter_nodes_from p rep (fun y ->
      if t.set_stamp.(y) <> t.stamp then raise Fallback)

(* ------------------------------------------------------------------ *)
(* event dispatch                                                       *)

let nk_fault_count t rep =
  match Hashtbl.find_opt t.nk_faults rep with Some c -> c | None -> 0

let finish_patch t ~grew =
  match patch_derived t ~grew with
  | () ->
      t.c_patched <- t.c_patched + 1;
      t.c_affected <- t.c_affected + t.changed.len;
      t.c_last_affected <- t.changed.len;
      t.c_scanned <- t.c_scanned + t.ev_scanned;
      t.c_last_scanned <- t.ev_scanned;
      Patched
  | exception Fallback ->
      recompute t;
      Recomputed

let do_fault t v =
  t.faulty.{v} <- 1;
  t.fault_count <- t.fault_count + 1;
  let rep = Nk.canonical t.p v in
  let c = nk_fault_count t rep in
  Hashtbl.replace t.nk_faults rep (c + 1);
  if c > 0 then begin
    (* the necklace was already out of B* *)
    t.c_unchanged <- t.c_unchanged + 1;
    Unchanged
  end
  else begin
    t.live_nodes <- t.live_nodes - Nk.length t.p rep;
    if t.dist.(rep) < 0 then begin
      (* a live-but-excluded necklace died: B* was strictly larger than
         every excluded component and those only shrank, so B*, its
         root and its distances are all unchanged *)
      t.c_unchanged <- t.c_unchanged + 1;
      Unchanged
    end
    else if t.bsize = 0 || Nk.same t.p v t.root then begin
      recompute t;
      Recomputed
    end
    else begin
      remove_necklace t rep;
      (* B* must stay the unique largest component: compare against the
         total excluded live mass (an upper bound on any rival) *)
      if t.bsize <= t.live_nodes - t.bsize then begin
        recompute t;
        Recomputed
      end
      else finish_patch t ~grew:true
    end
  end

let do_repair t v =
  t.faulty.{v} <- 0;
  t.fault_count <- t.fault_count - 1;
  let rep = Nk.canonical t.p v in
  let c = nk_fault_count t rep in
  if c > 1 then begin
    Hashtbl.replace t.nk_faults rep (c - 1);
    t.c_unchanged <- t.c_unchanged + 1;
    Unchanged
  end
  else begin
    Hashtbl.remove t.nk_faults rep;
    let excluded_before = t.live_nodes - t.bsize in
    t.live_nodes <- t.live_nodes + Nk.length t.p rep;
    let root_changes =
      match t.root_hint with
      | Some h ->
          let rh = Nk.canonical t.p h in
          (* the hint's own necklace reviving re-roots at the hint;
             otherwise we are in smallest-member mode whenever the
             current root is not the hint *)
          rep = rh || (t.root <> rh && rep < t.root)
      | None -> t.bsize = 0 || rep < t.root
    in
    if t.bsize = 0 || excluded_before > 0 || root_changes then begin
      recompute t;
      Recomputed
    end
    else if not (adjacent_to_bstar t rep) then
      (* an isolated revived necklace is its own small component; B*
         stays the largest unless the instance is tiny *)
      if t.bsize <= t.live_nodes - t.bsize then begin
        recompute t;
        Recomputed
      end
      else begin
        t.c_unchanged <- t.c_unchanged + 1;
        Unchanged
      end
    else
      match insert_necklace t rep with
      | () -> finish_patch t ~grew:false
      | exception Fallback ->
          recompute t;
          Recomputed
  end

let apply t ev =
  let sz = t.p.W.size in
  let reject e =
    t.c_rejected <- t.c_rejected + 1;
    Error e
  in
  match ev with
  | Fault v when v < 0 || v >= sz -> reject (Out_of_range v)
  | Repair v when v < 0 || v >= sz -> reject (Out_of_range v)
  | Fault v when is_faulty t v -> reject (Already_faulty v)
  | Repair v when not (is_faulty t v) -> reject (Not_faulty v)
  | Fault v ->
      t.c_events <- t.c_events + 1;
      t.c_faults <- t.c_faults + 1;
      Ok (do_fault t v)
  | Repair v ->
      t.c_events <- t.c_events + 1;
      t.c_repairs <- t.c_repairs + 1;
      Ok (do_repair t v)

(* ------------------------------------------------------------------ *)

let create ?root_hint ?ws p ~faults =
  (match ws with Some w -> Workspace.check w p | None -> ());
  let sz = p.W.size in
  let t =
    {
      p;
      root_hint;
      ws;
      faulty = Fa.Byte.make sz 0;
      nk_faults = Hashtbl.create 64;
      fault_count = 0;
      live_nodes = sz;
      dist = Array.make sz (-1);
      successor = Array.make sz (-1);
      root = -1;
      bsize = 0;
      ecc = 0;
      (* every stamp starts at 0; [load]/[set_empty] below clear the
         chosen and bucket-head slots *)
      nk = Fa.make (3 * sz) 0;
      wb = Fa.make (2 * p.W.stride) 0;
      hist = Array.make 64 0;
      stamp = 0;
      aff_stamp = Array.make sz 0;
      set_stamp = Array.make sz 0;
      cand = Array.make sz max_int;
      queue = vec_create ();
      affected = vec_create ();
      changed = vec_create ();
      marked = vec_create ();
      dirty = vec_create ();
      members = vec_create ();
      bq = Array.init 16 (fun _ -> vec_create ());
      bq_hi = -1;
      c_events = 0;
      c_faults = 0;
      c_repairs = 0;
      c_rejected = 0;
      c_patched = 0;
      c_recomputed = 0;
      c_unchanged = 0;
      c_affected = 0;
      c_last_affected = 0;
      c_scanned = 0;
      c_last_scanned = 0;
      ev_scanned = 0;
    }
  in
  List.iter
    (fun v ->
      if v < 0 || v >= sz then invalid_arg "Ffc.Live.create: fault out of range";
      if not (is_faulty t v) then begin
        t.faulty.{v} <- 1;
        t.fault_count <- t.fault_count + 1;
        let rep = Nk.canonical p v in
        let c = nk_fault_count t rep in
        Hashtbl.replace t.nk_faults rep (c + 1);
        if c = 0 then t.live_nodes <- t.live_nodes - Nk.length p rep
      end)
    faults;
  (match
     Embed.embed ?root_hint ?ws p ~faults:(current_faults t)
   with
  | None -> set_empty t
  | Some e -> load t e);
  t

let ring_of_successor ~root ~len succ =
  (* The same first-return walk as [Embed.ring_of_successor]: a walk
     from the root through a functional map that first returns to it
     after exactly [len] steps is a simple cycle of [len] nodes. *)
  let n = Array.length succ in
  let not_closed () =
    Pipeline_error.raise_error ~stage:"Live" "successor map did not close into a cycle"
  in
  if len < 1 || root < 0 || root >= n then not_closed ();
  let c = Array.make len root in
  let x = ref root in
  for i = 1 to len - 1 do
    let y = succ.(!x) in
    if y < 0 || y >= n || y = root then not_closed ();
    c.(i) <- y;
    x := y
  done;
  if succ.(!x) <> root then not_closed ();
  c

let ring t =
  if t.bsize = 0 then None
  else Some (ring_of_successor ~root:t.root ~len:t.bsize t.successor)
