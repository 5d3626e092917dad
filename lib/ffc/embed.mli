(** Step 3 of the FFC algorithm and the end-to-end driver.

    The successor of a node αw of B\u{2217} (α its first digit, w the
    (n−1)-suffix) is
    - the entry node wβ of \[Y\] when D carries a w-edge \[X\]→\[Y\] out of
      αw's necklace \[X\], and
    - its necklace successor wα otherwise.

    Proposition 2.1: following these successors yields a Hamiltonian
    cycle H of B\u{2217}; Proposition 2.2 bounds its length below by
    dⁿ − nf when f ≤ d−2. *)

type t = {
  bstar : Bstar.t;
  modified : Spanning.modified;
  successor : Graphlib.Flatarr.t;
      (** node → its successor in H, −1 outside B\u{2217} (off-heap) *)
  cycle : int array;
      (** H, starting at the root R: the one fresh heap array of an
          embed, |B\u{2217}| words, written by {!ring_of_successor} *)
}

val successor_map : ?ws:Workspace.t -> Spanning.modified -> Graphlib.Flatarr.t
(** One flat pass over the node ids: −1 outside B\u{2217}, the D-edge
    entry at exit nodes, the necklace rotation elsewhere. *)

val ring_of_successor : Bstar.t -> Graphlib.Flatarr.t -> int array
(** Close the successor map into H: |B\u{2217}| nodes from the root, in
    ring order, in one fresh array.  One pass with no visited set — the
    walk must return to the root at step |B\u{2217}| and not before, which
    in a functional graph makes it a simple cycle — and each step
    predicts the necklace rotation so successive loads overlap.  B\u{2217}
    membership and the edges are {!verify}'s job.
    @raise Pipeline_error.Error if the walk meets a −1 or out-of-range
    entry, returns to the root early or not at step |B\u{2217}|.
    @raise Invalid_argument if the map does not have dⁿ entries. *)

val of_bstar : ?ws:Workspace.t -> Bstar.t -> t
(** Run steps 1–3 on an already-computed B\u{2217}.
    @raise Pipeline_error.Error if the successor map does not close
    into a Hamiltonian cycle — impossible (Proposition 2.1) on a B\u{2217}
    produced by {!Bstar.compute}, and a typed, recoverable condition
    rather than a crash if a hand-built B\u{2217} is malformed. *)

val embed :
  ?root_hint:int ->
  ?ws:Workspace.t ->
  Debruijn.Word.params ->
  faults:int list ->
  t option
(** Full pipeline: compute B\u{2217}, build N\u{2217}, T, D, and H.  [None] when
    no live necklace remains.  Entirely implicit/flat — B(2,22) (4M
    nodes) embeds in seconds without materializing any graph.

    With [?ws] every intermediate lives in the workspace arena and the
    trial allocates almost nothing beyond [cycle] (which is always a
    fresh array); all fields except [cycle] alias workspace storage and
    are invalidated by the workspace's next use.  Contents are
    bit-identical to the fresh path. *)

val verify : ?ws:Workspace.t -> t -> bool
(** [cycle] is a Hamiltonian cycle of B\u{2217} avoiding all faulty
    necklaces: its length is |B\u{2217}| > 0, every node is in range, in
    B\u{2217}, off the faulty necklaces and seen once, and every
    consecutive pair, the wrap included, is a De Bruijn edge.  Checked
    arithmetically in one pass (shift and mask when d is a power of
    two); does not force [bstar.graph].  [?ws] borrows the workspace's
    [cycle_seen] bitset for the distinctness check instead of
    allocating one. *)

val length : t -> int

val length_lower_bound : Debruijn.Word.params -> int -> int
(** dⁿ − n·f — the Proposition 2.2 guarantee for f ≤ d−2 (and the
    benchmark tables' reference column for any f). *)

val worst_case_faults : Debruijn.Word.params -> int -> int list
(** The adversarial fault set {α^{n−1}(d−1) | 0 ≤ α ≤ f−1} from §2.5
    for which no cycle longer than dⁿ − nf exists.

    Only defined for 0 ≤ f ≤ d − 2: Proposition 2.2's guarantee (and
    the §2.5 optimality argument that makes this family "worst case")
    holds only in that regime — at f = d − 1 the pack would kill every
    in-neighbor of node 0ⁿ⁻¹(d−1)'s necklace and the length claim
    breaks down.
    @raise Invalid_argument when f < 0 or f > d − 2. *)
