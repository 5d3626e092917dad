(** The network-level (distributed) implementation of the FFC algorithm
    (§2.4), run phase by phase on the synchronous simulator.

    Phases and their round budgets:
    + {b Probe} — every node circulates its identity around its
      necklace; a node that does not get its identity back within n
      steps concludes its necklace is faulty (n rounds).
    + {b Broadcast} — R floods a message through B\u{2217}; first receipt
      fixes the BFS distance, the minimal sender fixes the T′ parent
      (eccentricity(R) + 1 rounds).
    + {b Choose} — each necklace circulates (distance, node, parent)
      triples to elect its earliest-reached node Y (≤ n rounds).
    + {b Exchange} — each non-root necklace's exit node αw announces
      (α, its representative, its parent's representative) to all
      successors wγ; receivers keep announcements that concern a T_w
      they belong to (1 round).
    + {b Membership} — the kept fragments circulate around each
      necklace so that every exit node knows the full T_w membership
      (≤ n rounds).

    After the last phase every node computes its successor in H locally.
    The resulting successor map is {e identical} to the centralized
    {!Embed.successor_map} (same tie-breaking rules), which the tests
    assert. *)

type stats = {
  probe_rounds : int;
  broadcast_rounds : int;
  choose_rounds : int;
  exchange_rounds : int;
  membership_rounds : int;
  total_rounds : int;
  messages : int;  (** total deliveries across all phases *)
  port_load : int;
      (** peak sends by one node in one round across all phases; a
          single-port network would serialize each round into at most
          this many (§2.4's "factor of d" remark) *)
  phase_traces : (string * Netsim.Simulator.round_metrics array) list;
      (** per-phase, per-round metrics (active nodes, deliveries, wall
          time), in phase order — the raw data behind the [*_rounds]
          fields *)
}

(** Each [*_rounds] field counts {e executed} simulator rounds
    (including the phase's round-0 compute step, see
    {!Netsim.Simulator}): the probe phase reports n + 1, a broadcast
    reaching eccentricity K reports at most K + 2, and the Θ(n) /
    O(K + n) shape of the totals is unchanged. *)

type t = {
  bstar : Bstar.t;
  successor : int array;  (** node → H-successor, −1 for non-participants *)
  cycle : int array;  (** H read off from the root *)
  stats : stats;
}

val run : Bstar.t -> t
(** Execute all phases on B(d,n) with the fault set of the given B\u{2217}
    (the B\u{2217} itself is only used for the root choice and for reading
    off the final cycle; every decision inside the phases is made by the
    simulated nodes from received messages).
    @raise Pipeline_error.Error if the assembled successor map does not
    close into a cycle (a protocol-level invariant violation, not a
    property of any fault set). *)

val live_necklace_flags : Bstar.t -> bool array * int
(** Run only the probe phase; returns per-node "my necklace is fault
    free" flags and the round count — for tests. *)
