(* Unit and property tests for the Bitvec substrate.  Properties compare the
   bit-vector arithmetic against OCaml native-int arithmetic on widths small
   enough to be exact. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bv ~w v = Bitvec.of_int ~width:w v

let test_of_to_int () =
  for v = 0 to 255 do
    check_int "roundtrip" v (Bitvec.to_int (bv ~w:8 v))
  done;
  check_int "truncation" 0b101 (Bitvec.to_int (bv ~w:3 0b11101))

let test_string_roundtrip () =
  check_string "to_string" "0110" (Bitvec.to_string (bv ~w:4 6));
  check_int "of_string" 6 (Bitvec.to_int (Bitvec.of_string "0110"));
  check_string "roundtrip wide"
    (String.make 100 '1')
    (Bitvec.to_string (Bitvec.of_string (String.make 100 '1')))

let test_get_set () =
  let v = Bitvec.zero 70 in
  let v = Bitvec.set v 65 true in
  check_bool "bit set" true (Bitvec.get v 65);
  check_bool "other clear" false (Bitvec.get v 64);
  let v = Bitvec.set v 65 false in
  check_bool "cleared" true (Bitvec.is_zero v)

let test_wide_arithmetic () =
  (* (2^100 - 1) + 1 = 2^100, truncated to 100 bits = 0. *)
  let ones = Bitvec.of_string (String.make 100 '1') in
  let sum, carry = Bitvec.add_carry ones (Bitvec.one 100) in
  check_bool "wraps to zero" true (Bitvec.is_zero sum);
  check_bool "carry out" true carry;
  (* (2^64) * (2^64) = 2^128 at width 130. *)
  let a = Bitvec.set (Bitvec.zero 65) 64 true in
  let p = Bitvec.mul a a in
  check_int "product width" 130 (Bitvec.width p);
  check_bool "2^128 bit" true (Bitvec.get p 128);
  check_int "popcount" 1 (Bitvec.popcount p)

let test_divmod_wide () =
  (* (2^90 + 7) / 2^45. *)
  let a = Bitvec.set (Bitvec.set (Bitvec.zero 91) 90 true) 0 true in
  let a = Bitvec.set (Bitvec.set a 1 true) 2 true in
  let b = Bitvec.set (Bitvec.zero 91) 45 true in
  let q, r = Bitvec.divmod a b in
  check_bool "quotient = 2^45" true (Bitvec.get q 45);
  check_int "quotient popcount" 1 (Bitvec.popcount q);
  check_int "remainder" 7 (Bitvec.to_int r)

let test_concat_extract () =
  let hi = bv ~w:4 0b1010 and lo = bv ~w:3 0b011 in
  let c = Bitvec.concat ~hi ~lo in
  check_int "concat width" 7 (Bitvec.width c);
  check_int "concat value" 0b1010011 (Bitvec.to_int c);
  check_int "extract hi" 0b1010 (Bitvec.to_int (Bitvec.extract c ~lo:3 ~len:4));
  check_int "extract lo" 0b011 (Bitvec.to_int (Bitvec.extract c ~lo:0 ~len:3))

let test_isqrt_exact () =
  List.iter
    (fun (v, r) ->
      check_int (Printf.sprintf "isqrt %d" v) r
        (Bitvec.to_int (Bitvec.isqrt (bv ~w:16 v))))
    [ (0, 0); (1, 1); (2, 1); (3, 1); (4, 2); (15, 3); (16, 4); (17, 4);
      (65535, 255); (10000, 100) ]

let test_errors () =
  Alcotest.check_raises "divide by zero" Division_by_zero (fun () ->
      ignore (Bitvec.divmod (bv ~w:8 5) (Bitvec.zero 8)));
  Alcotest.check_raises "bad string"
    (Invalid_argument "Bitvec.of_string: non-binary character") (fun () ->
      ignore (Bitvec.of_string "01x"))

(* Property tests: agreement with native ints at width 16. *)

let gen16 = QCheck.Gen.int_bound 65535
let arb16 = QCheck.make ~print:string_of_int gen16
let pair16 = QCheck.pair arb16 arb16

let prop name = QCheck.Test.make ~count:500 ~name

let properties =
  [ prop "add matches int" pair16 (fun (a, b) ->
        Bitvec.to_int (Bitvec.add (bv ~w:16 a) (bv ~w:16 b)) = (a + b) land 0xFFFF);
    prop "sub matches int" pair16 (fun (a, b) ->
        Bitvec.to_int (Bitvec.sub (bv ~w:16 a) (bv ~w:16 b)) = (a - b) land 0xFFFF);
    prop "mul matches int" pair16 (fun (a, b) ->
        Bitvec.to_int (Bitvec.mul (bv ~w:16 a) (bv ~w:16 b)) = a * b);
    prop "divmod matches int" pair16 (fun (a, b) ->
        let b = max b 1 in
        let q, r = Bitvec.divmod (bv ~w:16 a) (bv ~w:16 b) in
        Bitvec.to_int q = a / b && Bitvec.to_int r = a mod b);
    prop "isqrt is floor sqrt" arb16 (fun a ->
        let r = Bitvec.to_int (Bitvec.isqrt (bv ~w:16 a)) in
        r * r <= a && (r + 1) * (r + 1) > a);
    prop "xor/and/or match int" pair16 (fun (a, b) ->
        Bitvec.to_int (Bitvec.logxor (bv ~w:16 a) (bv ~w:16 b)) = a lxor b
        && Bitvec.to_int (Bitvec.logand (bv ~w:16 a) (bv ~w:16 b)) = a land b
        && Bitvec.to_int (Bitvec.logor (bv ~w:16 a) (bv ~w:16 b)) = a lor b);
    prop "lognot is complement" arb16 (fun a ->
        Bitvec.to_int (Bitvec.lognot (bv ~w:16 a)) = lnot a land 0xFFFF);
    prop "shift matches int" (QCheck.pair arb16 (QCheck.int_range 0 15))
      (fun (a, k) ->
        Bitvec.to_int (Bitvec.shift_left (bv ~w:16 a) k) = (a lsl k) land 0xFFFF
        && Bitvec.to_int (Bitvec.shift_right (bv ~w:16 a) k) = a lsr k);
    prop "popcount matches bits" arb16 (fun a ->
        let rec pc v = if v = 0 then 0 else (v land 1) + pc (v lsr 1) in
        Bitvec.popcount (bv ~w:16 a) = pc a);
    prop "compare is value order" pair16 (fun (a, b) ->
        Stdlib.compare a b = Bitvec.compare (bv ~w:16 a) (bv ~w:20 b));
    prop "bits roundtrip" arb16 (fun a ->
        Bitvec.equal (bv ~w:16 a) (Bitvec.of_bits (Bitvec.to_bits (bv ~w:16 a))));
  ]

(* Extra structural properties registered separately to keep the main list
   readable. *)
let structural_properties =
  [ prop "concat/extract roundtrip" pair16 (fun (a, b) ->
        let va = bv ~w:16 a and vb = bv ~w:16 b in
        let c = Bitvec.concat ~hi:va ~lo:vb in
        Bitvec.equal (Bitvec.extract c ~lo:16 ~len:16) va
        && Bitvec.equal (Bitvec.extract c ~lo:0 ~len:16) vb);
    prop "add_carry matches widened add" pair16 (fun (a, b) ->
        let va = bv ~w:16 a and vb = bv ~w:16 b in
        let _, carry = Bitvec.add_carry va vb in
        carry = (a + b >= 65536));
    prop "sub then add is identity" pair16 (fun (a, b) ->
        let va = bv ~w:16 a and vb = bv ~w:16 b in
        Bitvec.equal va (Bitvec.add (Bitvec.sub va vb) vb));
    prop "zero_extend preserves value" arb16 (fun a ->
        let v = bv ~w:16 a in
        Bitvec.equal v (Bitvec.zero_extend v 80)
        && Bitvec.to_int (Bitvec.zero_extend v 80) = a);
  ]

(* Per-bit oracles for the word-level shift/extract/concat paths: the
   original bit-at-a-time implementations, kept here as references and run
   on widths spanning several backing words (cross-word carries). *)
let oracle_shift_left v k =
  let w = Bitvec.width v in
  List.fold_left
    (fun out i ->
      if i >= k && Bitvec.get v (i - k) then Bitvec.set out i true else out)
    (Bitvec.zero w)
    (List.init w Fun.id)

let oracle_shift_right v k =
  let w = Bitvec.width v in
  List.fold_left
    (fun out i ->
      if i + k < w && Bitvec.get v (i + k) then Bitvec.set out i true else out)
    (Bitvec.zero w)
    (List.init w Fun.id)

let oracle_extract v ~lo ~len =
  List.fold_left
    (fun out i ->
      if Bitvec.get v (lo + i) then Bitvec.set out i true else out)
    (Bitvec.zero len)
    (List.init len Fun.id)

let oracle_concat ~hi ~lo =
  let wl = Bitvec.width lo in
  let out = Bitvec.zero (Bitvec.width hi + wl) in
  let out =
    List.fold_left
      (fun out i -> if Bitvec.get lo i then Bitvec.set out i true else out)
      out
      (List.init wl Fun.id)
  in
  List.fold_left
    (fun out i ->
      if Bitvec.get hi i then Bitvec.set out (wl + i) true else out)
    out
    (List.init (Bitvec.width hi) Fun.id)

let wide_arb =
  (* (seed, width in 1..130): random vectors spanning 1-3 backing words. *)
  QCheck.make
    ~print:(fun (s, w) -> Printf.sprintf "seed=%d width=%d" s w)
    QCheck.Gen.(pair (int_bound 10_000) (int_range 1 130))

let wide_of (seed, w) = Bitvec.random (Random.State.make [| 0xb17; seed |]) w

let word_level_properties =
  [ prop "shift_left matches per-bit oracle"
      (QCheck.pair wide_arb (QCheck.int_range 0 140))
      (fun (sw, k) ->
        let v = wide_of sw in
        Bitvec.equal (Bitvec.shift_left v k) (oracle_shift_left v k));
    prop "shift_right matches per-bit oracle"
      (QCheck.pair wide_arb (QCheck.int_range 0 140))
      (fun (sw, k) ->
        let v = wide_of sw in
        Bitvec.equal (Bitvec.shift_right v k) (oracle_shift_right v k));
    prop "extract matches per-bit oracle"
      (QCheck.pair wide_arb (QCheck.pair (QCheck.int_range 0 129) (QCheck.int_range 0 130)))
      (fun (sw, (lo, len)) ->
        let v = wide_of sw in
        let lo = min lo (Bitvec.width v - 1) in
        let len = min len (Bitvec.width v - lo) in
        Bitvec.equal (Bitvec.extract v ~lo ~len) (oracle_extract v ~lo ~len));
    prop "concat matches per-bit oracle" (QCheck.pair wide_arb wide_arb)
      (fun (sa, sb) ->
        let hi = wide_of sa and lo = wide_of sb in
        Bitvec.equal (Bitvec.concat ~hi ~lo) (oracle_concat ~hi ~lo));
  ]

(* The bit-serial mul/divmod/isqrt that the limb-level ones replaced,
   kept as references: the new versions must match them in value and in
   width, across limb boundaries (62 bits) and at width 0. *)
let ref_mul a b =
  let w = max 1 (Bitvec.width a + Bitvec.width b) in
  let wide_a = Bitvec.zero_extend a w in
  let acc = ref (Bitvec.zero w) in
  for i = 0 to Bitvec.width b - 1 do
    if Bitvec.get b i then acc := Bitvec.add !acc (Bitvec.shift_left wide_a i)
  done;
  !acc

let ref_divmod a b =
  if Bitvec.is_zero b then raise Division_by_zero;
  let wa = Bitvec.width a in
  let q = ref (Bitvec.zero wa) and r = ref (Bitvec.zero wa) in
  let bw = Bitvec.zero_extend b (max wa (Bitvec.width b)) in
  let bw = Bitvec.extract bw ~lo:0 ~len:wa in
  for i = wa - 1 downto 0 do
    r := Bitvec.shift_left !r 1;
    if Bitvec.get a i then r := Bitvec.set !r 0 true;
    if Bitvec.compare !r bw >= 0 then begin
      r := Bitvec.sub !r bw;
      q := Bitvec.set !q i true
    end
  done;
  (!q, !r)

let ref_isqrt v =
  let w = Bitvec.width v in
  let out_w = (w + 1) / 2 in
  let root = ref (Bitvec.zero (max 1 out_w)) in
  for i = out_w - 1 downto 0 do
    let candidate = Bitvec.set !root i true in
    let c = Bitvec.zero_extend candidate w in
    let sq = ref_mul c c in
    let sq = Bitvec.extract sq ~lo:0 ~len:(min (Bitvec.width sq) (2 * w)) in
    if Bitvec.compare sq (Bitvec.zero_extend v (Bitvec.width sq)) <= 0 then
      root := candidate
  done;
  !root

let same a b = Bitvec.width a = Bitvec.width b && Bitvec.equal a b

(* Operands of width 0-300: all zeros, all ones, the value 1, uniform
   random, or a random value narrower than its width (leading zeros). *)
let operand_arb =
  QCheck.make
    ~print:(fun (w, kind, seed) ->
      Printf.sprintf "width=%d kind=%d seed=%d" w kind seed)
    QCheck.Gen.(triple (int_range 0 300) (int_bound 4) (int_bound 1_000_000))

let operand (w, kind, seed) =
  let st = Random.State.make [| 0x5e7; seed |] in
  match kind with
  | 0 -> Bitvec.zero w
  | 1 -> Bitvec.lognot (Bitvec.zero w)
  | 2 -> if w = 0 then Bitvec.zero 0 else Bitvec.one w
  | 3 -> Bitvec.random st w
  | _ ->
      let lo = Random.State.int st (w + 1) in
      Bitvec.zero_extend (Bitvec.random st lo) w

let plus_one v =
  let w = Bitvec.width v + 1 in
  Bitvec.add (Bitvec.zero_extend v w) (Bitvec.one w)

let limb_properties =
  [ prop "mul matches reference" (QCheck.pair operand_arb operand_arb)
      (fun (x, y) ->
        let a = operand x and b = operand y in
        same (Bitvec.mul a b) (ref_mul a b));
    prop "divmod matches reference" (QCheck.pair operand_arb operand_arb)
      (fun (x, y) ->
        let a = operand x and b = operand y in
        QCheck.assume (not (Bitvec.is_zero b));
        let q, r = Bitvec.divmod a b and q', r' = ref_divmod a b in
        same q q' && same r r');
    QCheck.Test.make ~count:100 ~name:"isqrt matches reference" operand_arb
      (fun x ->
        let v = operand x in
        same (Bitvec.isqrt v) (ref_isqrt v));
    prop "isqrt brackets its argument" operand_arb (fun x ->
        let v = operand x in
        let r = Bitvec.isqrt v in
        Bitvec.compare (Bitvec.mul r r) v <= 0
        && Bitvec.compare (Bitvec.mul (plus_one r) (plus_one r)) v > 0);
    prop "divmod satisfies q*b + r = a and r < b"
      (QCheck.pair operand_arb operand_arb) (fun (x, y) ->
        let a = operand x and b = operand y in
        (* A divisor no wider than the dividend is used as is. *)
        let b =
          Bitvec.extract b ~lo:0 ~len:(min (Bitvec.width a) (Bitvec.width b))
        in
        QCheck.assume (not (Bitvec.is_zero b));
        let q, r = Bitvec.divmod a b in
        Bitvec.equal (Bitvec.add (Bitvec.mul q b) r) a
        && Bitvec.compare r b < 0);
  ]

let test_limb_edges () =
  check_int "isqrt width 0" 1 (Bitvec.width (Bitvec.isqrt (Bitvec.zero 0)));
  check_int "mul width 0" 1 (Bitvec.width (Bitvec.mul (Bitvec.zero 0) (Bitvec.zero 0)));
  let q, r = Bitvec.divmod (Bitvec.zero 0) (Bitvec.one 5) in
  check_int "divmod width 0" 0 (Bitvec.width q + Bitvec.width r);
  let ones = Bitvec.lognot (Bitvec.zero 256) in
  let q, r = Bitvec.divmod ones (Bitvec.one 256) in
  check_bool "divide by 1" true (same q ones && Bitvec.is_zero r);
  check_bool "isqrt (2^256 - 1)" true
    (same (Bitvec.isqrt ones) (Bitvec.lognot (Bitvec.zero 128)))

let test_to_int_range () =
  check_int "2^61" (1 lsl 61) (Bitvec.to_int (Bitvec.of_int ~width:62 (1 lsl 61)));
  check_int "max_int" max_int (Bitvec.to_int (Bitvec.of_int ~width:62 max_int));
  check_int "max_int, wide" max_int
    (Bitvec.to_int (Bitvec.of_int ~width:200 max_int));
  check_int "width 0" 0 (Bitvec.to_int (Bitvec.zero 0));
  Alcotest.check_raises "2^62" (Failure "Bitvec.to_int: value too large")
    (fun () -> ignore (Bitvec.to_int (Bitvec.set (Bitvec.zero 63) 62 true)))

let suites =
  [ ( "bitvec",
      [ Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
        Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
        Alcotest.test_case "get/set" `Quick test_get_set;
        Alcotest.test_case "wide arithmetic" `Quick test_wide_arithmetic;
        Alcotest.test_case "wide divmod" `Quick test_divmod_wide;
        Alcotest.test_case "concat/extract" `Quick test_concat_extract;
        Alcotest.test_case "isqrt exact" `Quick test_isqrt_exact;
        Alcotest.test_case "errors" `Quick test_errors;
        Alcotest.test_case "limb arithmetic edges" `Quick test_limb_edges;
        Alcotest.test_case "to_int range" `Quick test_to_int_range ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false)
          (properties @ structural_properties @ word_level_properties
         @ limb_properties) ) ]

