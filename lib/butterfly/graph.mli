(** The d-ary butterfly digraph F(d,n) (§3.4).

    Nodes are pairs (k, x) ∈ ℤ_n × ℤ_dⁿ — level k, column x — with
    edges (k, x₀…x_{n−1}) → (k+1 mod n, x₀…x_{k−1} a x_{k+1}…x_{n−1})
    for every digit a.  A node is encoded as the integer k·dⁿ + x.  Accessed as [Butterfly.Graph]. *)

type t = {
  p : Debruijn.Word.params;  (** column parameters (d, n) *)
  graph : Graphlib.Digraph.t;  (** n·dⁿ nodes *)
}

val create : d:int -> n:int -> t
(** @raise Invalid_argument unless d ≥ 2, n ≥ 2. *)

val encode : t -> level:int -> column:int -> int
val level : t -> int -> int
val column : t -> int -> int

val n_nodes : t -> int

val successors : t -> int -> int list
(** The d out-neighbors at the next level. *)

val s_node : t -> int -> int -> int
(** [s_node t i x] is S{_x}{^i} = (i, π{^−i}(x)): the level-i butterfly
    node in the class of the De Bruijn node x (the partition of
    [ABR90] under which F(d,n) contracts to B(d,n)). *)

val de_bruijn_class : t -> int -> int
(** Inverse: the De Bruijn node x with [s_node t (level v) x = v],
    namely π{^level}(column). *)

val edge_to_de_bruijn : t -> int * int -> int * int
(** Every butterfly edge S{_U}{^r} → S{_V}{^{r+1}} projects to the
    De Bruijn edge (U, V) (Lemma 3.8's converse direction).
    @raise Invalid_argument if the pair is not a butterfly edge. *)

val to_string : t -> int -> string
(** "(k,x₀x₁…)" rendering. *)

val write : Debruijn.Word.Writer.t -> t -> int -> unit
(** Streams the {!to_string} text of a node into the writer, allocating
    nothing. *)
