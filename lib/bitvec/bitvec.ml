(* Unsigned bit vectors stored LSB-first in an int array, 62 value bits per
   word so that word-level arithmetic never overflows a native int. *)

let bits_per_word = 62
let word_mask = (1 lsl bits_per_word) - 1

type t = { width : int; words : int array }

let num_words width = (width + bits_per_word - 1) / bits_per_word

(* Clear any bits above [width] in the top word so that equality and
   comparison can work word-wise. *)
let normalize v =
  let r = v.width mod bits_per_word in
  if r <> 0 && Array.length v.words > 0 then begin
    let top = Array.length v.words - 1 in
    v.words.(top) <- v.words.(top) land ((1 lsl r) - 1)
  end;
  v

let width v = v.width

(* Limb [j] of [v]; limbs outside the backing array read as 0. *)
let limb v j = if j >= 0 && j < Array.length v.words then v.words.(j) else 0

let zero w =
  if w < 0 then invalid_arg "Bitvec.zero: negative width";
  { width = w; words = Array.make (num_words w) 0 }

let get v i =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.get: index out of range";
  v.words.(i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set v i b =
  if i < 0 || i >= v.width then invalid_arg "Bitvec.set: index out of range";
  let words = Array.copy v.words in
  let w = i / bits_per_word and r = i mod bits_per_word in
  if b then words.(w) <- words.(w) lor (1 lsl r)
  else words.(w) <- words.(w) land lnot (1 lsl r);
  { v with words }

let one w =
  if w < 1 then invalid_arg "Bitvec.one: width must be >= 1";
  set (zero w) 0 true

let of_int ~width:w v =
  if v < 0 then invalid_arg "Bitvec.of_int: negative value";
  let out = zero w in
  let rec fill i v =
    if v <> 0 && i < Array.length out.words then begin
      out.words.(i) <- v land word_mask;
      fill (i + 1) (v lsr bits_per_word)
    end
  in
  fill 0 v;
  normalize out

let to_int v =
  (* Limb 0 holds 62 bits, exactly the range of a non-negative int. *)
  for i = 1 to Array.length v.words - 1 do
    if v.words.(i) <> 0 then failwith "Bitvec.to_int: value too large"
  done;
  if Array.length v.words = 0 then 0 else v.words.(0)

let of_bits a =
  let v = zero (Array.length a) in
  Array.iteri
    (fun i b ->
      if b then
        v.words.(i / bits_per_word) <-
          v.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word)))
    a;
  v

let to_bits v = Array.init v.width (get v)

let compare a b =
  let rec go i =
    if i < 0 then 0
    else
      let wa = limb a i and wb = limb b i in
      if wa <> wb then Stdlib.compare wa wb else go (i - 1)
  in
  go (max (Array.length a.words) (Array.length b.words) - 1)

(* Value equality irrespective of width. *)
let equal a b = compare a b = 0

let is_zero v = Array.for_all (fun w -> w = 0) v.words

let zero_extend v w =
  if w < v.width then invalid_arg "Bitvec.zero_extend: narrower target";
  let out = zero w in
  Array.blit v.words 0 out.words 0 (Array.length v.words);
  out

(* OR the words of [src], shifted left by [shift] bits, into [dst] in
   place: whole-word writes with one cross-word carry per source word.
   Bits shifted past [dst]'s backing array are dropped.  Relies on the
   normalization invariant (no set bits above [src.width]). *)
let or_shifted dst src shift =
  let wk = shift / bits_per_word and r = shift mod bits_per_word in
  let n = Array.length dst.words in
  for i = 0 to Array.length src.words - 1 do
    let w = src.words.(i) in
    if w <> 0 then begin
      let j = i + wk in
      if j < n then dst.words.(j) <- dst.words.(j) lor ((w lsl r) land word_mask);
      if r <> 0 && j + 1 < n then
        dst.words.(j + 1) <- dst.words.(j + 1) lor (w lsr (bits_per_word - r))
    end
  done;
  ignore (normalize dst)

(* Word [i] of [src] shifted right by [wk] words and [r] bits, into [dst]:
   the mirror of {!or_shifted} for extraction. *)
let blit_right dst src ~wk ~r =
  let n = Array.length src.words in
  for i = 0 to Array.length dst.words - 1 do
    let k = i + wk in
    if k < n then begin
      let w = src.words.(k) lsr r in
      let w =
        if r <> 0 && k + 1 < n then
          w lor ((src.words.(k + 1) lsl (bits_per_word - r)) land word_mask)
        else w
      in
      dst.words.(i) <- w
    end
  done;
  normalize dst

let concat ~hi ~lo =
  let out = zero (hi.width + lo.width) in
  or_shifted out lo 0;
  or_shifted out hi lo.width;
  out

let extract v ~lo ~len =
  if lo < 0 || len < 0 || lo + len > v.width then
    invalid_arg "Bitvec.extract: range out of bounds";
  blit_right (zero len) v ~wk:(lo / bits_per_word) ~r:(lo mod bits_per_word)

(* [a + b] modulo [2^w]. *)
let add_full a b w =
  let out = zero w in
  let carry = ref 0 in
  for i = 0 to Array.length out.words - 1 do
    let s = limb a i + limb b i + !carry in
    out.words.(i) <- s land word_mask;
    carry := s lsr bits_per_word
  done;
  normalize out

let add a b = add_full a b (max a.width b.width)

let add_carry a b =
  if a.width <> b.width then invalid_arg "Bitvec.add_carry: width mismatch";
  let wide = add_full a b (a.width + 1) in
  (extract wide ~lo:0 ~len:a.width, get wide a.width)

(* Limb-level helpers for the in-place arithmetic below.  A limb source is
   a function from limb index to limb value, so operands that are shifts
   or truncations of a vector are read on the fly instead of built. *)

(* [xs >= y], comparing limbs [hi] down to [lo].  Exact when [y] has no
   bits below limb [lo] or above limb [hi]. *)
let limbs_geq xs y ~lo ~hi =
  let rec go j =
    if j < lo then true
    else
      let yj = y j in
      if xs.(j) <> yj then xs.(j) > yj else go (j - 1)
  in
  go hi

(* [xs := xs - y] in place from limb [lo] up, for a [y] with no bits
   below limb [lo]; the final borrow is dropped (modular difference). *)
let limbs_sub xs y ~lo =
  let borrow = ref 0 in
  for j = lo to Array.length xs - 1 do
    let d = xs.(j) - y j - !borrow in
    if d < 0 then begin
      xs.(j) <- d + (1 lsl bits_per_word);
      borrow := 1
    end
    else begin
      xs.(j) <- d;
      borrow := 0
    end
  done

let set_bit_in_place v i =
  let w = i / bits_per_word in
  v.words.(w) <- v.words.(w) lor (1 lsl (i mod bits_per_word))

let sub a b =
  let out = zero_extend a (max a.width b.width) in
  limbs_sub out.words (limb b) ~lo:0;
  normalize out

let shift_left v k =
  if k < 0 then invalid_arg "Bitvec.shift_left: negative shift";
  let out = zero v.width in
  or_shifted out v k;
  out

let shift_right v k =
  if k < 0 then invalid_arg "Bitvec.shift_right: negative shift";
  blit_right (zero v.width) v ~wk:(k / bits_per_word) ~r:(k mod bits_per_word)

(* Column-wise (Comba) product over 31-bit half-limbs: each column sum is
   kept as [lo + hi * 2^31] so no partial product overflows a native int,
   and every finished half-limb is written straight into the result. *)
let half = bits_per_word / 2
let half_mask = (1 lsl half) - 1
let half_limb v k = (v.words.(k / 2) lsr (half * (k land 1))) land half_mask

let mul a b =
  let out = zero (max 1 (a.width + b.width)) in
  let na = 2 * Array.length a.words and nb = 2 * Array.length b.words in
  let lo = ref 0 and hi = ref 0 in
  for k = 0 to (2 * Array.length out.words) - 1 do
    for i = max 0 (k - nb + 1) to min k (na - 1) do
      let p = half_limb a i * half_limb b (k - i) in
      lo := !lo + (p land half_mask);
      hi := !hi + (p lsr half)
    done;
    out.words.(k / 2) <-
      out.words.(k / 2) lor ((!lo land half_mask) lsl (half * (k land 1)));
    lo := (!lo lsr half) + !hi;
    hi := 0
  done;
  out

(* Restoring division on the limbs of [q] and [r]: shift one bit of [a]
   into [r], subtract the divisor when it fits.  The divisor is [b] taken
   modulo [2^width a]; [r] stays below it, so it never outgrows [width a]. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  let w = a.width in
  let q = zero w and r = zero w in
  let n = Array.length r.words in
  let top_mask =
    match w mod bits_per_word with 0 -> word_mask | top -> (1 lsl top) - 1
  in
  let d j = if j = n - 1 then limb b j land top_mask else limb b j in
  for i = w - 1 downto 0 do
    let carry = ref (if get a i then 1 else 0) in
    for j = 0 to n - 1 do
      let x = r.words.(j) in
      r.words.(j) <- ((x lsl 1) land word_mask) lor !carry;
      carry := x lsr (bits_per_word - 1)
    done;
    if limbs_geq r.words d ~lo:0 ~hi:(n - 1) then begin
      limbs_sub r.words d ~lo:0;
      set_bit_in_place q i
    end
  done;
  (q, r)

(* Digit-by-digit square root.  Before step [i] the root so far is
   [R = root >> (i + 1)] and [x] holds [v - R^2 * 4^(i+1)]; bringing down
   bit pair [i] and comparing the remainder with [4R + 1] is the same as
   comparing [x] with [T = (4R + 1) * 4^i = (root << (i + 1)) + 4^i],
   whose limbs are read on the fly. *)
let isqrt v =
  let out_w = (v.width + 1) / 2 in
  let root = zero (max 1 out_w) in
  let x = Array.copy v.words in
  for i = out_w - 1 downto 0 do
    let s = i + 1 in
    let ws = s / bits_per_word and rs = s mod bits_per_word in
    let lo = 2 * i / bits_per_word in
    let t j =
      let shifted = (limb root (j - ws) lsl rs) land word_mask in
      let shifted =
        if rs = 0 then shifted
        else shifted lor (limb root (j - ws - 1) lsr (bits_per_word - rs))
      in
      if j = lo then shifted lor (1 lsl (2 * i mod bits_per_word)) else shifted
    in
    (* [T] fits the limbs of [x]: it can reach [2^width] only when
       [width] is odd, and an odd width never fills its top limb. *)
    if limbs_geq x t ~lo ~hi:(Array.length x - 1) then begin
      limbs_sub x t ~lo;
      set_bit_in_place root i
    end
  done;
  root

let popcount v =
  Array.fold_left
    (fun acc w ->
      let rec pc w acc = if w = 0 then acc else pc (w lsr 1) (acc + (w land 1)) in
      pc w acc)
    0 v.words

let lognot v =
  normalize { v with words = Array.map (fun w -> lnot w land word_mask) v.words }

let binop name f a b =
  if a.width <> b.width then invalid_arg ("Bitvec." ^ name ^ ": width mismatch");
  { a with words = Array.init (Array.length a.words) (fun i -> f a.words.(i) b.words.(i)) }

let logand a b = binop "logand" ( land ) a b
let logor a b = binop "logor" ( lor ) a b
let logxor a b = binop "logxor" ( lxor ) a b

let random st w =
  let v = zero w in
  for i = 0 to Array.length v.words - 1 do
    v.words.(i) <- Random.State.bits st
                   lor (Random.State.bits st lsl 30)
                   lor (Random.State.int st 4 lsl 60)
  done;
  normalize v

let to_string v =
  String.init v.width (fun i -> if get v (v.width - 1 - i) then '1' else '0')

let of_string s =
  let n = String.length s in
  let v = zero n in
  String.iteri
    (fun i c ->
      let j = n - 1 - i in
      match c with
      | '1' ->
          v.words.(j / bits_per_word) <-
            v.words.(j / bits_per_word) lor (1 lsl (j mod bits_per_word))
      | '0' -> ()
      | _ -> invalid_arg "Bitvec.of_string: non-binary character")
    s;
  v

let pp fmt v = Format.pp_print_string fmt (to_string v)
