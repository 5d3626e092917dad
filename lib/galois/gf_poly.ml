type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let x : t = [| 0; 1 |]

let normalize _f (p : t) : t =
  let n = Array.length p in
  let rec last i = if i < 0 then -1 else if p.(i) <> 0 then i else last (i - 1) in
  Array.sub p 0 (last (n - 1) + 1)

let of_coeffs f cs =
  let arr = Array.of_list cs in
  Array.iter (fun c -> if c < 0 || c >= Gf.order f then invalid_arg "Gf_poly.of_coeffs") arr;
  normalize f arr

let degree (p : t) = Array.length p - 1
let is_zero (p : t) = Array.length p = 0
let equal (a : t) (b : t) = a = b
let coeff (p : t) i = if i >= 0 && i < Array.length p then p.(i) else 0
let leading (p : t) = if is_zero p then 0 else p.(Array.length p - 1)

let add f a b =
  let n = max (Array.length a) (Array.length b) in
  normalize f (Array.init n (fun i -> Gf.add f (coeff a i) (coeff b i)))

let neg f a = Array.map (Gf.neg f) a
let sub f a b = add f a (neg f b)

let scale f k a = normalize f (Array.map (Gf.mul f k) a)

let mul f a b =
  if is_zero a || is_zero b then zero
  else begin
    let out = Array.make (degree a + degree b + 1) 0 in
    Array.iteri
      (fun i ai ->
        if ai <> 0 then
          Array.iteri (fun j bj -> out.(i + j) <- Gf.add f out.(i + j) (Gf.mul f ai bj)) b)
      a;
    normalize f out
  end

let divmod f a b =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  let binv = Gf.inv f (leading b) in
  let r = Array.copy a in
  let q = Array.make (max 0 (degree a - db + 1)) 0 in
  let rec top i = if i < 0 then -1 else if r.(i) <> 0 then i else top (i - 1) in
  let rec loop () =
    let dr = top (Array.length r - 1) in
    if dr < db then ()
    else begin
      let c = Gf.mul f r.(dr) binv in
      q.(dr - db) <- c;
      for j = 0 to db do
        r.(dr - db + j) <- Gf.sub f r.(dr - db + j) (Gf.mul f c b.(j))
      done;
      loop ()
    end
  in
  loop ();
  (normalize f q, normalize f r)

let rem f a b = snd (divmod f a b)
let mul_mod f m a b = rem f (mul f a b) m

let pow_mod f m p e =
  if e < 0 then invalid_arg "Gf_poly.pow_mod: negative exponent";
  let rec go acc p e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul_mod f m acc p) (mul_mod f m p p) (e asr 1)
    else go acc (mul_mod f m p p) (e asr 1)
  in
  go (rem f one m) (rem f p m) e

let monic f p = if is_zero p then p else scale f (Gf.inv f (leading p)) p

let rec gcd f a b = if is_zero b then monic f a else gcd f b (rem f a b)

let eval f p v =
  Array.fold_right (fun c acc -> Gf.add f (Gf.mul f acc v) c) p 0

let is_irreducible f p =
  let n = degree p in
  if n <= 0 then false
  else if n = 1 then true
  else begin
    let q = Gf.order f in
    let p = monic f p in
    let frobenius_iterate k =
      let rec go acc i = if i = k then acc else go (pow_mod f p acc q) (i + 1) in
      go (rem f x p) 0
    in
    if not (equal (frobenius_iterate n) (rem f x p)) then false
    else
      List.for_all
        (fun (pr, _) ->
          let g = sub f (frobenius_iterate (n / pr)) x in
          equal (gcd f g p) one)
        (Numtheory.factorize n)
  end

let order_of_x f m =
  if coeff m 0 = 0 then invalid_arg "Gf_poly.order_of_x: x divides modulus";
  let bound = Numtheory.pow (Gf.order f) (degree m) - 1 in
  let divisors = Numtheory.divisors bound in
  match List.find_opt (fun t -> equal (pow_mod f m x t) (rem f one m)) divisors with
  | Some t -> t
  | None -> raise Not_found

let is_primitive f p =
  let n = degree p in
  n >= 1 && coeff p 0 <> 0
  && equal p (monic f p)
  && is_irreducible f p
  &&
  let order = Numtheory.pow (Gf.order f) n - 1 in
  equal (pow_mod f p x order) one
  && List.for_all
       (fun (q, _) -> not (equal (pow_mod f p x (order / q)) one))
       (Numtheory.factorize order)

let monic_of_code f n code =
  let q = Gf.order f in
  let p = Array.make (n + 1) 0 in
  p.(n) <- 1;
  let rec fill c i = if i < n then (p.(i) <- c mod q; fill (c / q) (i + 1)) in
  fill code 0;
  normalize f p

let all_monic f n =
  if n < 0 then []
  else List.init (Numtheory.pow (Gf.order f) n) (monic_of_code f n)

(* Scan codes lazily (same order as [all_monic], so the polynomial found
   is unchanged): materializing all qⁿ candidates first costs gigabytes
   at q = 2, n = 22 when the answer is among the first few dozen. *)
let find_primitive f n =
  let count = Numtheory.pow (Gf.order f) n in
  let rec go code =
    if code >= count then raise Not_found
    else
      let p = monic_of_code f n code in
      if is_primitive f p then p else go (code + 1)
  in
  go 0

let to_string _f p =
  if is_zero p then "0"
  else
    let terms = ref [] in
    Array.iteri
      (fun i c ->
        if c <> 0 then
          let t =
            match i with
            | 0 -> string_of_int c
            | 1 -> if c = 1 then "x" else Fmt.str "%d·x" c
            | _ -> if c = 1 then Fmt.str "x^%d" i else Fmt.str "%d·x^%d" c i
          in
          terms := t :: !terms)
      p;
    String.concat " + " !terms
