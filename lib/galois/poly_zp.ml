type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let x : t = [| 0; 1 |]

let normalize p (f : t) : t =
  let n = Array.length f in
  let reduced = Array.map (fun c -> ((c mod p) + p) mod p) f in
  let rec last i = if i < 0 then -1 else if reduced.(i) <> 0 then i else last (i - 1) in
  let d = last (n - 1) in
  Array.sub reduced 0 (d + 1)

let of_coeffs p cs = normalize p (Array.of_list cs)
let degree (f : t) = Array.length f - 1
let is_zero (f : t) = Array.length f = 0
let equal (a : t) (b : t) = a = b
let leading (f : t) = if is_zero f then 0 else f.(Array.length f - 1)
let coeff (f : t) i = if i >= 0 && i < Array.length f then f.(i) else 0

let add p a b =
  let n = max (Array.length a) (Array.length b) in
  normalize p (Array.init n (fun i -> coeff a i + coeff b i))

let neg p a = normalize p (Array.map (fun c -> p - c) a)
let sub p a b = add p a (neg p b)

let scale p k a =
  let k = ((k mod p) + p) mod p in
  normalize p (Array.map (fun c -> c * k) a)

let mul p a b =
  if is_zero a || is_zero b then zero
  else begin
    let out = Array.make (degree a + degree b + 1) 0 in
    Array.iteri
      (fun i ai -> if ai <> 0 then Array.iteri (fun j bj -> out.(i + j) <- (out.(i + j) + (ai * bj)) mod p) b)
      a;
    normalize p out
  end

(* Inverse of a nonzero scalar mod prime p via Fermat. *)
let inv_scalar p c = Numtheory.pow_mod c (p - 2) p

let divmod p a b =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  let binv = inv_scalar p (leading b) in
  let r = Array.copy a in
  let q = Array.make (max 0 (degree a - db + 1)) 0 in
  (* Standard long division; r shrinks from the top. *)
  let rec top i = if i < 0 then -1 else if r.(i) mod p <> 0 then i else top (i - 1) in
  let rec loop () =
    let dr = top (Array.length r - 1) in
    if dr < db then ()
    else begin
      let c = r.(dr) mod p * binv mod p in
      q.(dr - db) <- c;
      for j = 0 to db do
        r.(dr - db + j) <- (((r.(dr - db + j) - (c * b.(j))) mod p) + (p * p)) mod p
      done;
      loop ()
    end
  in
  Array.iteri (fun i c -> r.(i) <- ((c mod p) + p) mod p) r;
  loop ();
  (normalize p q, normalize p r)

let rem p a b = snd (divmod p a b)
let mul_mod p m a b = rem p (mul p a b) m

let pow_mod p m f e =
  if e < 0 then invalid_arg "Poly_zp.pow_mod: negative exponent";
  let rec go acc f e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul_mod p m acc f) (mul_mod p m f f) (e asr 1)
    else go acc (mul_mod p m f f) (e asr 1)
  in
  go (rem p one m) (rem p f m) e

let monic p f = if is_zero f then f else scale p (inv_scalar p (leading f)) f

let rec gcd p a b = if is_zero b then monic p a else gcd p b (rem p a b)

let eval p f v =
  let v = ((v mod p) + p) mod p in
  Array.fold_right (fun c acc -> ((acc * v) + c) mod p) f 0

let is_irreducible p f =
  let n = degree f in
  if n <= 0 then false
  else if n = 1 then true
  else begin
    let f = monic p f in
    (* x^(p^k) mod f computed by repeated p-th powering. *)
    let frobenius_iterate k =
      let rec go acc i = if i = k then acc else go (pow_mod p f acc p) (i + 1) in
      go (rem p x f) 0
    in
    if not (equal (frobenius_iterate n) (rem p x f)) then false
    else
      List.for_all
        (fun (q, _) ->
          let g = sub p (frobenius_iterate (n / q)) x in
          equal (gcd p g f) one)
        (Numtheory.factorize n)
  end

let is_primitive p f =
  let n = degree f in
  n >= 1 && coeff f 0 <> 0 && is_irreducible p f
  &&
  let order = Numtheory.pow p n - 1 in
  equal (pow_mod p f x order) one
  && List.for_all
       (fun (q, _) -> not (equal (pow_mod p f x (order / q)) one))
       (Numtheory.factorize order)

let all_monic p n =
  if n < 0 then []
  else begin
    let count = Numtheory.pow p n in
    List.init count (fun code ->
        let f = Array.make (n + 1) 0 in
        f.(n) <- 1;
        let rec fill c i = if i < n then (f.(i) <- c mod p; fill (c / p) (i + 1)) in
        fill code 0;
        normalize p f)
  end

let find_primitive p n =
  match List.find_opt (is_primitive p) (all_monic p n) with
  | Some f -> f
  | None -> raise Not_found

let to_string f =
  if is_zero f then "0"
  else
    let terms = ref [] in
    Array.iteri
      (fun i c ->
        if c <> 0 then
          let t =
            match i with
            | 0 -> string_of_int c
            | 1 -> if c = 1 then "x" else Fmt.str "%dx" c
            | _ -> if c = 1 then Fmt.str "x^%d" i else Fmt.str "%dx^%d" c i
          in
          terms := t :: !terms)
      f;
    String.concat " + " !terms
