module W = Debruijn.Word
module Fa = Graphlib.Flatarr

type t = {
  bstar : Bstar.t;
  modified : Spanning.modified;
  successor : Fa.t;
  cycle : int array;
}

(* {!W.rotl} without its range check, on the shift and stride that
   [Word.params] precomputes.  It is inlined here because a call per
   step leaves fewer steps of the ring walk below in flight: calling
   [W.rotl] made that walk ~30% slower at B(2,22). *)
let[@inline] rotl ~shift ~top ~stride ~d x =
  if shift >= 0 then ((x land (stride - 1)) lsl shift) lor (x lsr top)
  else
    let a = x / stride in
    ((x - (a * stride)) * d) + a

let successor_map ?ws (m : Spanning.modified) =
  let bstar = m.Spanning.tree.Spanning.adj.Adjacency.bstar in
  let p = bstar.Bstar.p in
  let in_bstar = bstar.Bstar.in_bstar in
  let override = m.Spanning.succ_override in
  let succ =
    match ws with
    | None -> Fa.make p.W.size (-1)
    | Some w ->
        Workspace.check w p;
        Fa.fill w.Workspace.successor (-1);
        w.Workspace.successor
  in
  (* One flat pass: exit nodes of D-edges jump to the recorded entry
     node, everyone else follows its necklace. *)
  let shift = p.W.shift and top = p.W.top and stride = p.W.stride and d = p.W.d in
  for x = 0 to p.W.size - 1 do
    if in_bstar.{x} <> 0 then
      succ.{x} <-
        (if override.{x} >= 0 then override.{x} else rotl ~shift ~top ~stride ~d x)
  done;
  succ

let[@inline never] not_closed () =
  Pipeline_error.raise_error ~stage:"Embed" "successor map did not close into a cycle"

(* x → y is a De Bruijn edge iff prefix y = suffix x, i.e. y = (x mod
   dⁿ⁻¹)·d + a for a digit a.  Either form also bounds y to [0, dⁿ)
   once x is in range. *)
let[@inline] is_edge ~shift ~stride ~d x y =
  if shift >= 0 then y lsr shift = x land (stride - 1)
  else
    let t = y - (x mod stride * d) in
    t >= 0 && t < d

(* Closure of the successor map into the ring, written straight into
   the fresh |B*|-slot result.  No visited set is needed: the map is a
   function, so a walk from the root that first returns to it after
   exactly |B*| steps visits |B*| distinct nodes (a repeat x_i = x_j,
   i < j, would bring the root back at step i + |B*| − j < |B*|).  Any
   earlier return, any −1 or out-of-range entry, or no return at step
   |B*| is the typed error — impossible by Proposition 2.1 on a
   well-formed B*.

   About 90% of FFC steps are necklace rotations, so each step predicts
   [rotl x] and keeps it when the loaded successor agrees: the branch
   is almost always taken, and the CPU issues the next load from the
   predicted node before the current one returns instead of waiting on
   a dependent cache miss per node. *)
let ring_of_successor (b : Bstar.t) (succ : Fa.t) =
  let p = b.Bstar.p in
  let size = p.W.size and d = p.W.d in
  if Fa.length succ <> size then invalid_arg "Embed.ring_of_successor: map size <> d^n";
  let k = b.Bstar.size and root = b.Bstar.root in
  if k < 1 || root < 0 || root >= size then not_closed ();
  let shift = p.W.shift and top = p.W.top and stride = p.W.stride in
  let ring = Array.make k root in
  let x = ref root in
  for i = 1 to k - 1 do
    let cur = !x in
    let guess = rotl ~shift ~top ~stride ~d cur in
    let y = succ.{cur} in
    let next = if y = guess then guess else y in
    if next < 0 || next >= size || next = root then not_closed ();
    ring.(i) <- next;
    x := next
  done;
  if succ.{!x} <> root then not_closed ();
  ring

let of_bstar ?ws bstar =
  let adj = Adjacency.build ?ws bstar in
  let tree = Spanning.build ?ws adj in
  let modified = Spanning.modify ?ws tree in
  let successor = successor_map ?ws modified in
  (* The ring is the trial's one fresh result either way — everything
     feeding it lives in the workspace when [?ws] is given. *)
  let cycle = ring_of_successor bstar successor in
  { bstar; modified; successor; cycle }

let embed ?root_hint ?ws p ~faults =
  Option.map (of_bstar ?ws) (Bstar.compute ?root_hint ?ws p ~faults)

let verify ?ws t =
  let b = t.bstar in
  let p = b.Bstar.p in
  let ring = t.cycle in
  let k = Array.length ring in
  k = b.Bstar.size && k > 0
  &&
  (* Arithmetic Hamiltonicity: the cycle is simple, covers exactly B*,
     avoids faulty necklaces, and every consecutive pair (wrap
     included) is a De Bruijn edge.  No Digraph is forced even at
     B(2,22), and no per-node division when d is a power of two. *)
  let seen =
    match ws with
    | None -> Graphlib.Bitset.create p.W.size
    | Some w ->
        Workspace.check w p;
        Graphlib.Bitset.clear w.Workspace.cycle_seen;
        w.Workspace.cycle_seen
  in
  let in_bstar = b.Bstar.in_bstar in
  let necklace_faulty = b.Bstar.necklace_faulty in
  let size = p.W.size and d = p.W.d in
  let shift = p.W.shift and stride = p.W.stride in
  let ok = ref true and i = ref 0 in
  while !ok && !i < k do
    let x = ring.(!i) in
    if
      x < 0 || x >= size
      || in_bstar.{x} = 0
      || necklace_faulty.{x} <> 0
      || Graphlib.Bitset.mem seen x
    then ok := false
    else begin
      Graphlib.Bitset.add seen x;
      (* The edge to the next node, which [is_edge] also range-checks;
         the wrap edge is checked once, after the loop. *)
      if !i < k - 1 && not (is_edge ~shift ~stride ~d x ring.(!i + 1)) then ok := false
    end;
    incr i
  done;
  !ok && is_edge ~shift ~stride ~d ring.(k - 1) ring.(0)

let length t = Array.length t.cycle

let length_lower_bound p f = p.W.size - (p.W.n * f)

let worst_case_faults p f =
  (* Prop 2.2's adversarial family puts each fault on its own
     full-length necklace; with f > d − 2 the proposition's guarantee
     (and the dⁿ − nf = length argument of §2.5) no longer applies, so
     larger f would silently produce a pack with no worst-case
     meaning. *)
  if f < 0 || f > p.W.d - 2 then invalid_arg "Embed.worst_case_faults";
  (* α^{n−1}(d−1): digits α,…,α followed by d−1. *)
  List.init f (fun a ->
      let digits = Array.make p.W.n a in
      digits.(p.W.n - 1) <- p.W.d - 1;
      W.encode p digits)
