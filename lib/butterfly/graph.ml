module W = Debruijn.Word
module DG = Graphlib.Digraph

type t = {
  p : W.params;
  graph : DG.t;
}

let encode_raw p ~level ~column = (level * p.W.size) + column
let level_raw p v = v / p.W.size
let column_raw p v = v mod p.W.size

(* Replace digit k (0-indexed) of the column. *)
let set_digit p x k a =
  let digits = W.decode p x in
  digits.(k) <- a;
  W.encode p digits

let successors_raw p v =
  let k = level_raw p v and x = column_raw p v in
  let k' = (k + 1) mod p.W.n in
  List.init p.W.d (fun a -> encode_raw p ~level:k' ~column:(set_digit p x k a))

let create ~d ~n =
  if n < 2 then invalid_arg "Butterfly.create: n must be >= 2";
  let p = W.params ~d ~n in
  let graph = DG.of_successors (n * p.W.size) (successors_raw p) in
  { p; graph }

let encode t ~level ~column =
  if level < 0 || level >= t.p.W.n then invalid_arg "Butterfly.encode: level";
  if column < 0 || column >= t.p.W.size then invalid_arg "Butterfly.encode: column";
  encode_raw t.p ~level ~column

let level t v = level_raw t.p v
let column t v = column_raw t.p v
let n_nodes t = t.p.W.n * t.p.W.size
let successors t v = successors_raw t.p v

let s_node t i x =
  (* S_x^i = (i, π^{−i}(x)). *)
  encode_raw t.p ~level:i ~column:(W.rotl_by t.p (-i) x)

let de_bruijn_class t v = W.rotl_by t.p (level t v) (column t v)

let edge_to_de_bruijn t (a, b) =
  if not (List.mem b (successors t a)) then
    invalid_arg "Butterfly.edge_to_de_bruijn: not a butterfly edge";
  (de_bruijn_class t a, de_bruijn_class t b)

let to_string t v =
  Fmt.str "(%d,%s)" (level t v) (W.to_string t.p (column t v))

let write w t v =
  W.Writer.string w "(";
  W.Writer.int w (level t v);
  W.Writer.string w ",";
  W.Writer.word w t.p (column t v);
  W.Writer.string w ")"
