type params = { d : int; n : int; size : int; stride : int; shift : int; top : int }

let rec log2 x = if x <= 1 then 0 else 1 + log2 (x lsr 1)

let params ~d ~n =
  if d < 2 then invalid_arg "Word.params: d < 2";
  if n < 1 then invalid_arg "Word.params: n < 1";
  (* Guard against overflow: dⁿ must fit comfortably in an int. *)
  let rec pow acc i =
    if i = 0 then acc
    else if acc > max_int / d then invalid_arg "Word.params: d^n too large"
    else pow (acc * d) (i - 1)
  in
  let size = pow 1 n in
  let stride = size / d in
  (* log₂ d when d is a power of two, −1 otherwise: selects the
     shift/mask form of [rotl]. *)
  let shift = if d land (d - 1) = 0 then log2 d else -1 in
  { d; n; size; stride; shift; top = (if shift >= 0 then log2 stride else -1) }

let check p x =
  if x < 0 || x >= p.size then invalid_arg "Word: code out of range"

let encode p digits =
  if Array.length digits <> p.n then invalid_arg "Word.encode: wrong length";
  Array.fold_left
    (fun acc c ->
      if c < 0 || c >= p.d then invalid_arg "Word.encode: digit out of range";
      (acc * p.d) + c)
    0 digits

let decode p x =
  check p x;
  let digits = Array.make p.n 0 in
  let rec fill x i =
    if i >= 0 then begin
      digits.(i) <- x mod p.d;
      fill (x / p.d) (i - 1)
    end
  in
  fill x (p.n - 1);
  digits

let digit p x i =
  check p x;
  if i < 1 || i > p.n then invalid_arg "Word.digit: index out of range";
  x / Numtheory.pow p.d (p.n - i) mod p.d

let first_digit p x = check p x; x / p.stride
let last_digit p x = check p x; x mod p.d
let prefix p x = check p x; x / p.d
let suffix p x = check p x; x mod p.stride

let cons p a w =
  if a < 0 || a >= p.d then invalid_arg "Word.cons: digit out of range";
  if w < 0 || w >= p.stride then invalid_arg "Word.cons: word out of range";
  (a * p.stride) + w

let snoc p w a =
  if a < 0 || a >= p.d then invalid_arg "Word.snoc: digit out of range";
  if w < 0 || w >= p.stride then invalid_arg "Word.snoc: word out of range";
  (w * p.d) + a

(* αw ↦ wα: two shifts, a mask and an or when d is a power of two,
   one division otherwise. *)
let[@inline] rot p x =
  if p.shift >= 0 then ((x land (p.stride - 1)) lsl p.shift) lor (x lsr p.top)
  else
    let a = x / p.stride in
    ((x - (a * p.stride)) * p.d) + a

let rotl p x =
  check p x;
  rot p x

(* Rotations of an in-range word stay in range: one check, then the
   inlined rotation n − 1 times. *)
let least_rotation p x =
  check p x;
  let rec go best cur i =
    if i = 0 then best
    else
      let cur = rot p cur in
      go (Int.min best cur) cur (i - 1)
  in
  go x x (p.n - 1)

let rotl_by p i x =
  let i = ((i mod p.n) + p.n) mod p.n in
  let rec go x i = if i = 0 then x else go (rotl p x) (i - 1) in
  go x i

let weight p x =
  let rec go x acc = if x = 0 then acc else go (x / p.d) (acc + (x mod p.d)) in
  check p x;
  go x 0

let count_digit p a x =
  check p x;
  if a < 0 || a >= p.d then invalid_arg "Word.count_digit: digit out of range";
  let rec go x i acc =
    if i = 0 then acc else go (x / p.d) (i - 1) (if x mod p.d = a then acc + 1 else acc)
  in
  go x p.n 0

let period p x =
  (* The period divides n, so only rotations by divisors of n matter. *)
  let rec find = function
    | [] -> p.n
    | t :: rest -> if rotl_by p t x = x then t else find rest
  in
  find (Numtheory.divisors p.n)

let is_aperiodic p x = period p x = p.n

let constant p a =
  if a < 0 || a >= p.d then invalid_arg "Word.constant: digit out of range";
  a * (p.size - 1) / (p.d - 1)

let alternating p a b =
  let digits = Array.init p.n (fun i -> if i mod 2 = 0 then a else b) in
  encode p digits

let successors p x =
  let s = suffix p x in
  List.init p.d (fun a -> snoc p s a)

let predecessors p x =
  let w = prefix p x in
  List.init p.d (fun a -> cons p a w)

(* Allocation-free counterparts of [successors]/[predecessors], in the
   same digit order — the {!Graphlib.Itopo.iter}s that let traversals
   run on B(d,n) without materializing it. *)
let iter_succs p x f =
  let base = x mod p.stride * p.d in
  for a = 0 to p.d - 1 do
    f (base + a)
  done

let iter_preds p x f =
  let w = x / p.d in
  let stride = p.stride in
  for a = 0 to p.d - 1 do
    f ((a * stride) + w)
  done

let edge_code p u v =
  check p u;
  check p v;
  if suffix p u <> prefix p v then invalid_arg "Word.edge_code: not a De Bruijn edge";
  (u * p.d) + last_digit p v

let edge_of_code p c =
  if c < 0 || c >= p.size * p.d then invalid_arg "Word.edge_of_code: out of range";
  let u = c / p.d and a = c mod p.d in
  (u, snoc p (suffix p u) a)

(* Rendering.  A word prints as its digits, most significant first,
   each as its decimal text — one char below 10, several from 10 on,
   exactly what [string_of_int] gives.  The writers fill a [Bytes]
   right to left from the word's known width, so no digit array,
   digit string or list is built. *)

let rec decimal_width a = if a < 10 then 1 else 1 + decimal_width (a / 10)

(* Writes the decimal text of [a] >= 0 so that it ends just before
   [stop]; returns where it starts. *)
let rec blit_decimal b a stop =
  let i = stop - 1 in
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (a mod 10)));
  if a < 10 then i else blit_decimal b (a / 10) i

let rec digits_width d x k acc =
  if k = 0 then acc else digits_width d (x / d) (k - 1) (acc + decimal_width (x mod d))

let width p x = if p.d <= 10 then p.n else digits_width p.d x p.n 0

(* The k low-order digits of [x], ending just before [stop], with one
   division per digit; d = 2, 4 and 8 take a shift and a mask instead,
   as the division's latency is most of the cost. *)
let rec blit_bits s x b stop k =
  if k > 0 then begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 + (x land ((1 lsl s) - 1))));
    blit_bits s (x lsr s) b (stop - 1) (k - 1)
  end

let rec blit_decimals d x b stop k =
  if k > 0 then
    let q = x / d in
    blit_decimals d q b (blit_decimal b (x - (q * d)) stop) (k - 1)

let blit_digits d x b stop k =
  match d with
  | 2 -> blit_bits 1 x b stop k
  | 4 -> blit_bits 2 x b stop k
  | 8 -> blit_bits 3 x b stop k
  | _ -> blit_decimals d x b stop k

let to_string p x =
  check p x;
  let b = Bytes.create (width p x) in
  blit_digits p.d x b (Bytes.length b) p.n;
  Bytes.unsafe_to_string b

module Writer = struct
  type t = { oc : out_channel; buf : Bytes.t; mutable pos : int }

  let create oc = { oc; buf = Bytes.create 65536; pos = 0 }

  let flush t =
    output t.oc t.buf 0 t.pos;
    t.pos <- 0

  (* Every item but a long string fits an empty chunk: a word's text
     is at most n + 19 chars, as dⁿ < 2⁶². *)
  let reserve t k = if t.pos + k > Bytes.length t.buf then flush t

  let string t s =
    let k = String.length s in
    reserve t k;
    if k > Bytes.length t.buf then output_string t.oc s
    else begin
      Bytes.blit_string s 0 t.buf t.pos k;
      t.pos <- t.pos + k
    end

  let int t a =
    if a < 0 then invalid_arg "Word.Writer.int: negative";
    let k = decimal_width a in
    reserve t k;
    ignore (blit_decimal t.buf a (t.pos + k));
    t.pos <- t.pos + k

  let word t p x =
    check p x;
    let k = width p x in
    reserve t k;
    blit_digits p.d x t.buf (t.pos + k) p.n;
    t.pos <- t.pos + k
  [@@lint.hot]
end

let of_string p s =
  if String.length s <> p.n then invalid_arg "Word.of_string: wrong length";
  encode p (Array.init p.n (fun i -> Char.code s.[i] - Char.code '0'))

let all p = List.init p.size Fun.id
