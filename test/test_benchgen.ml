module S = Benchgen.Suite
module D = Data.Dataset

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_suite_shape () =
  check_int "100 benchmarks" 100 (Array.length S.benchmarks);
  Array.iteri
    (fun i b ->
      check_int "ids in order" i b.S.id;
      check_bool "inputs positive" true (b.S.num_inputs > 0))
    S.benchmarks;
  check_string "name format" "ex07" (S.benchmark 7).S.name;
  Alcotest.check_raises "id range"
    (Invalid_argument "Suite.benchmark: id out of range") (fun () ->
      ignore (S.benchmark 100))

let test_category_layout () =
  let cat id = (S.benchmark id).S.category in
  check_bool "adders" true (cat 0 = S.Adder && cat 9 = S.Adder);
  check_bool "dividers" true (cat 10 = S.Divider && cat 19 = S.Divider);
  check_bool "multipliers" true (cat 20 = S.Multiplier);
  check_bool "comparators" true (cat 35 = S.Comparator);
  check_bool "sqrt" true (cat 45 = S.Square_root);
  check_bool "cones" true (cat 50 = S.Logic_cone && cat 73 = S.Logic_cone);
  check_bool "symmetric" true (cat 74 = S.Symmetric && cat 79 = S.Symmetric);
  check_bool "mnist" true (cat 80 = S.Mnist_like);
  check_bool "cifar" true (cat 99 = S.Cifar_like);
  check_int "adder inputs" 32 (S.benchmark 0).S.num_inputs;
  check_int "comparator 100-bit" 200 (S.benchmark 39).S.num_inputs;
  check_int "sqrt inputs" 16 (S.benchmark 40).S.num_inputs

let small = { S.train = 200; valid = 100; test = 100 }

let test_instantiate_deterministic () =
  let a = S.instantiate ~sizes:small ~seed:3 (S.benchmark 30) in
  let b = S.instantiate ~sizes:small ~seed:3 (S.benchmark 30) in
  check_int "train size" 200 (D.num_samples a.S.train);
  check_int "valid size" 100 (D.num_samples a.S.valid);
  check_int "test size" 100 (D.num_samples a.S.test);
  for j = 0 to 99 do
    Alcotest.(check (array bool)) "deterministic rows" (D.row a.S.test j) (D.row b.S.test j)
  done;
  let c = S.instantiate ~sizes:small ~seed:4 (S.benchmark 30) in
  check_bool "seed changes data" true
    (List.exists
       (fun j -> D.row a.S.train j <> D.row c.S.train j)
       (List.init 100 Fun.id))

let test_oracle_consistency () =
  (* Deterministic benchmarks: equal inputs across sets never disagree on
     the label; verify labels against the oracle semantics directly. *)
  let inst = S.instantiate ~sizes:small ~seed:5 (S.benchmark 31) in
  (* 20-bit comparator *)
  let k = 20 in
  for j = 0 to D.num_samples inst.S.train - 1 do
    let row = D.row inst.S.train j in
    let a = Bitvec.of_bits (Array.sub row 0 k)
    and b = Bitvec.of_bits (Array.sub row k k) in
    check_bool "comparator label" (Bitvec.compare a b < 0) (D.output_bit inst.S.train j)
  done

let test_parity_benchmark () =
  let inst = S.instantiate ~sizes:small ~seed:5 (S.benchmark 74) in
  for j = 0 to 50 do
    let row = D.row inst.S.test j in
    check_bool "parity label" (Array.fold_left ( <> ) false row)
      (D.output_bit inst.S.test j)
  done

let test_balanced_cones () =
  List.iter
    (fun id ->
      let inst = S.instantiate ~sizes:small ~seed:1 (S.benchmark id) in
      let ones = D.count_output_ones inst.S.train in
      let ratio = float_of_int ones /. 200.0 in
      check_bool
        (Printf.sprintf "cone %d balanced (%.2f)" id ratio)
        true
        (ratio > 0.12 && ratio < 0.88))
    [ 50; 55; 60; 65; 73 ]

let test_image_benchmarks_learnable_signal () =
  (* MNIST-like data must carry more signal than CIFAR-like data: compare
     best single-feature accuracy. *)
  let best_feature inst =
    let d = inst.S.train in
    let n = D.num_samples d in
    let best = ref 0 in
    Array.iter
      (fun col ->
        let agree = n - Words.popcount (Words.logxor col (D.outputs d)) in
        best := max !best (max agree (n - agree)))
      (D.columns d);
    float_of_int !best /. float_of_int n
  in
  let mnist = S.instantiate ~sizes:small ~seed:2 (S.benchmark 83) in
  let cifar = S.instantiate ~sizes:small ~seed:2 (S.benchmark 93) in
  check_bool "mnist has stronger single-pixel signal" true
    (best_feature mnist > best_feature cifar)

let test_disjoint_sets () =
  let inst = S.instantiate ~sizes:small ~seed:7 (S.benchmark 75) in
  let key d j =
    String.concat ""
      (List.map (fun b -> if b then "1" else "0") (Array.to_list (D.row d j)))
  in
  let seen = Hashtbl.create 512 in
  List.iter
    (fun d ->
      for j = 0 to D.num_samples d - 1 do
        let k = key d j in
        check_bool "no duplicates across sets" false (Hashtbl.mem seen k);
        Hashtbl.add seen k ()
      done)
    [ inst.S.train; inst.S.valid; inst.S.test ]

let test_table2_group_pairs () =
  (* Paper Table II, verbatim. *)
  let pairs = Benchgen.Image_bench.group_pairs in
  check_int "ten comparisons" 10 (Array.length pairs);
  Alcotest.(check (pair (list int) (list int)))
    "row 0" ([ 0; 1; 2; 3; 4 ], [ 5; 6; 7; 8; 9 ]) pairs.(0);
  Alcotest.(check (pair (list int) (list int)))
    "row 1 (odd vs even)" ([ 1; 3; 5; 7; 9 ], [ 0; 2; 4; 6; 8 ]) pairs.(1);
  Alcotest.(check (pair (list int) (list int)))
    "row 6 (17 vs 38)" ([ 1; 7 ], [ 3; 8 ]) pairs.(6);
  Alcotest.(check (pair (list int) (list int)))
    "row 9 (03 vs 89)" ([ 0; 3 ], [ 8; 9 ]) pairs.(9)

let test_contest_sizes () =
  check_int "train" 6400 S.contest_sizes.S.train;
  check_int "valid" 6400 S.contest_sizes.S.valid;
  check_int "test" 6400 S.contest_sizes.S.test

let test_symmetric_signatures_length () =
  (* ex75-79 signatures must be 17 characters (16 inputs + 1). *)
  for id = 75 to 79 do
    let b = S.benchmark id in
    check_int "16 inputs" 16 b.S.num_inputs
  done

let test_divider_conventions () =
  (* b = 0: quotient all ones, remainder a. *)
  let k = 4 in
  let bits = Array.append (Array.make k true) (Array.make k false) in
  check_bool "div by zero msb" true (Benchgen.Arith_bench.divider_msb ~k bits);
  check_bool "rem by zero = a" true (Benchgen.Arith_bench.remainder_msb ~k bits)

let test_parse_ids () =
  let ok spec expected =
    match S.parse_ids spec with
    | Ok ids -> Alcotest.(check (list int)) spec expected ids
    | Error msg -> Alcotest.fail (spec ^ ": unexpected error " ^ msg)
  in
  let err spec =
    match S.parse_ids spec with
    | Ok _ -> Alcotest.fail (spec ^ ": expected a parse error")
    | Error _ -> ()
  in
  ok "7" [ 7 ];
  ok "0-3" [ 0; 1; 2; 3 ];
  ok "0-2,30,74" [ 0; 1; 2; 30; 74 ];
  ok "98-105" [ 98; 99 ];
  (* out-of-range ids are dropped *)
  err "5-";
  err "-5";
  err "a,b";
  err "3-1";
  err "";
  err "1,,2"

(* The suite's data, pinned: MD5 over every id's train/valid/test at
   200/100/100 samples, seed 3.  Each set contributes "inputs/samples;"
   then every input column and the output column as its packed words in
   hex, comma-separated, each column closed by ';'.  Any change to a
   label, to the row order or to the RNG stream changes the digest; a
   deliberate one must update it and say why. *)
let suite_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let add d =
    Buffer.add_string buf
      (Printf.sprintf "%d/%d;" (D.num_inputs d) (D.num_samples d));
    let col c =
      for i = 0 to Words.num_words (Words.length c) - 1 do
        Buffer.add_string buf (Printf.sprintf "%x," (Words.word c i))
      done;
      Buffer.add_char buf ';'
    in
    Array.iter col (D.columns d);
    col (D.outputs d)
  in
  Array.iter
    (fun b ->
      let inst = S.instantiate ~sizes:small ~seed:3 b in
      add inst.S.train;
      add inst.S.valid;
      add inst.S.test)
    S.benchmarks;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_suite_digest_pinned () =
  check_string "all 100 ids, 200/100/100, seed 3"
    "6070d11349b1e3aadcf235d619d4c5c6" (suite_digest ())

let suites =
  [ ( "benchgen",
      [ Alcotest.test_case "suite shape" `Quick test_suite_shape;
        Alcotest.test_case "category layout" `Quick test_category_layout;
        Alcotest.test_case "deterministic instantiation" `Quick
          test_instantiate_deterministic;
        Alcotest.test_case "oracle consistency" `Quick test_oracle_consistency;
        Alcotest.test_case "parity benchmark" `Quick test_parity_benchmark;
        Alcotest.test_case "balanced cones" `Quick test_balanced_cones;
        Alcotest.test_case "image signal ordering" `Quick
          test_image_benchmarks_learnable_signal;
        Alcotest.test_case "disjoint sets" `Quick test_disjoint_sets;
        Alcotest.test_case "table II group pairs" `Quick test_table2_group_pairs;
        Alcotest.test_case "contest sizes" `Quick test_contest_sizes;
        Alcotest.test_case "symmetric widths" `Quick test_symmetric_signatures_length;
        Alcotest.test_case "divider conventions" `Quick test_divider_conventions;
        Alcotest.test_case "parse ids" `Quick test_parse_ids;
        Alcotest.test_case "suite data pinned" `Quick test_suite_digest_pinned ]
    ) ]
