type category =
  | Adder
  | Divider
  | Multiplier
  | Comparator
  | Square_root
  | Logic_cone
  | Symmetric
  | Mnist_like
  | Cifar_like

let category_name = function
  | Adder -> "adder"
  | Divider -> "divider"
  | Multiplier -> "multiplier"
  | Comparator -> "comparator"
  | Square_root -> "sqrt"
  | Logic_cone -> "logic-cone"
  | Symmetric -> "symmetric"
  | Mnist_like -> "mnist"
  | Cifar_like -> "cifar"

type benchmark = {
  id : int;
  name : string;
  category : category;
  num_inputs : int;
  description : string;
}

(* 17-bit signatures for the five 16-input symmetric functions (the
   paper's strings normalized to n + 1 = 17 characters). *)
let symmetric_signatures =
  [| "00000000111111111";
     "11111110000011111";
     "00011110001111000";
     "00001110101110000";
     "00000011111000000" |]

let adder_widths = [| 16; 32; 64; 128; 256 |]
let multiplier_widths = [| 8; 16; 32; 64; 128 |]

(* Input counts for the 25 logic cones, spread over 16..200 as in the
   contest's "16-200 inputs". *)
let cone_inputs id =
  match id with
  | _ when id >= 50 && id <= 69 -> 16 + (184 * (id - 50) / 19)
  | 70 -> 23 (* cordic substitute *)
  | 71 -> 23
  | 72 -> 38 (* too_large substitute *)
  | 73 -> 16 (* t481 substitute *)
  | _ -> invalid_arg "cone_inputs"

let make id =
  let name = Printf.sprintf "ex%02d" id in
  let mk category num_inputs description =
    { id; name; category; num_inputs; description }
  in
  match id / 10 with
  | 0 ->
      let k = adder_widths.(id / 2) in
      let bit = if id mod 2 = 0 then k else k - 1 in
      mk Adder (2 * k) (Printf.sprintf "bit %d of %d-bit adder" bit k)
  | 1 ->
      let k = adder_widths.((id - 10) / 2) in
      if id mod 2 = 0 then mk Divider (2 * k) (Printf.sprintf "MSB of %d-bit divider" k)
      else mk Divider (2 * k) (Printf.sprintf "MSB of %d-bit remainder" k)
  | 2 ->
      let k = multiplier_widths.((id - 20) / 2) in
      let bit = if id mod 2 = 0 then (2 * k) - 1 else k - 1 in
      mk Multiplier (2 * k) (Printf.sprintf "bit %d of %d-bit multiplier" bit k)
  | 3 ->
      let k = 10 * (id - 30 + 1) in
      mk Comparator (2 * k) (Printf.sprintf "%d-bit comparator (a < b)" k)
  | 4 ->
      let k = adder_widths.((id - 40) / 2) in
      let bit = if id mod 2 = 0 then 0 else (k + 1) / 4 in
      mk Square_root k (Printf.sprintf "bit %d of %d-bit square root" bit k)
  | 5 | 6 ->
      mk Logic_cone (cone_inputs id)
        (if id < 60 then "PicoJava-style random cone" else "MCNC i10-style random cone")
  | 7 ->
      if id <= 73 then mk Logic_cone (cone_inputs id) "MCNC-style random cone"
      else if id = 74 then mk Symmetric 16 "16-input parity"
      else
        mk Symmetric 16
          (Printf.sprintf "16-input symmetric %s" symmetric_signatures.(id - 75))
  | 8 -> mk Mnist_like 196 "synthetic MNIST group comparison"
  | 9 -> mk Cifar_like 192 "synthetic CIFAR-10 group comparison"
  | _ -> invalid_arg "Suite.make: id out of range"

let benchmarks = Array.init 100 make

let benchmark id =
  if id < 0 || id > 99 then invalid_arg "Suite.benchmark: id out of range";
  benchmarks.(id)

let parse_ids spec =
  let ( let* ) = Result.bind in
  let int_of part s =
    match int_of_string_opt (String.trim s) with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "malformed benchmark id %S" part)
  in
  let ids_of_part part =
    match String.index_opt part '-' with
    | Some i ->
        let* lo = int_of part (String.sub part 0 i) in
        let* hi =
          int_of part (String.sub part (i + 1) (String.length part - i - 1))
        in
        if lo > hi then Error (Printf.sprintf "empty benchmark range %S" part)
        else Ok (List.init (hi - lo + 1) (fun k -> lo + k))
    | None ->
        let* id = int_of part part in
        Ok [ id ]
  in
  let* ids =
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        let* ids = ids_of_part part in
        Ok (acc @ ids))
      (Ok [])
      (String.split_on_char ',' spec)
  in
  Ok (List.filter (fun id -> id >= 0 && id <= 99) ids)

type sizes = { train : int; valid : int; test : int }

let contest_sizes = { train = 6400; valid = 6400; test = 6400 }
let reduced_sizes = { train = 1500; valid = 1500; test = 1500 }

type instance = {
  spec : benchmark;
  train : Data.Dataset.t;
  valid : Data.Dataset.t;
  test : Data.Dataset.t;
}

(* Deterministic oracle for a benchmark, when it has one.  Logic cones are
   materialized lazily (and cached) because building them costs a few
   milliseconds; the lock lets instances be built on several domains. *)
let cone_cache : (int, Aig.Graph.t) Hashtbl.t = Hashtbl.create 32
let cone_lock = Mutex.create ()

let cone_for id =
  Mutex.protect cone_lock (fun () ->
      match Hashtbl.find_opt cone_cache id with
      | Some g -> g
      | None ->
          let g =
            Logic_bench.cone ~seed:(1000 + id) ~num_inputs:(cone_inputs id) ()
          in
          Hashtbl.add cone_cache id g;
          g)

(* Where a benchmark's samples come from: a per-row oracle, a logic cone
   simulated word-parallel over a whole set's columns, or the synthetic
   image source with its Table II comparison. *)
type source =
  | Oracle of (bool array -> bool)
  | Cone of Aig.Graph.t
  | Images of Image_bench.t * int

let source spec =
  let id = spec.id in
  match spec.category with
  | Adder ->
      let k = adder_widths.(id / 2) in
      let bit = if id mod 2 = 0 then k else k - 1 in
      Oracle (Arith_bench.adder_bit ~k ~bit)
  | Divider ->
      let k = adder_widths.((id - 10) / 2) in
      if id mod 2 = 0 then Oracle (Arith_bench.divider_msb ~k)
      else Oracle (Arith_bench.remainder_msb ~k)
  | Multiplier ->
      let k = multiplier_widths.((id - 20) / 2) in
      let bit = if id mod 2 = 0 then (2 * k) - 1 else k - 1 in
      Oracle (Arith_bench.multiplier_bit ~k ~bit)
  | Comparator ->
      let k = 10 * (id - 30 + 1) in
      Oracle (Arith_bench.comparator ~k)
  | Square_root ->
      let k = adder_widths.((id - 40) / 2) in
      let bit = if id mod 2 = 0 then 0 else (k + 1) / 4 in
      Oracle (Arith_bench.sqrt_bit ~k ~bit)
  | Logic_cone -> Cone (cone_for id)
  | Symmetric ->
      if id = 74 then Oracle Arith_bench.parity
      else Oracle (Arith_bench.symmetric ~signature:symmetric_signatures.(id - 75))
  | Mnist_like -> Images (Image_bench.create Image_bench.Mnist ~seed:77, id - 80)
  | Cifar_like -> Images (Image_bench.create Image_bench.Cifar ~seed:78, id - 90)

(* Rows are input vectors packed 8 bits per byte, bit [i] in byte [i / 8];
   [f] is called on [0 .. n-1] in order. *)
let pack n f =
  Bytes.init ((n + 7) / 8) (fun byte ->
      let acc = ref 0 in
      for k = 0 to min 8 (n - (8 * byte)) - 1 do
        if f ((8 * byte) + k) then acc := !acc lor (1 lsl k)
      done;
      Char.unsafe_chr !acc)

let row_bit row i = (Char.code (Bytes.get row (i lsr 3)) lsr (i land 7)) land 1

(* Duplicate-free sampling: input vectors are unique across all three
   sets, so a deterministic oracle never labels the same vector twice.
   One [Random.State.bool] per input bit, at most [20 * total] draws; the
   rows come back in reverse draw order, the order the sets are cut in. *)
let sample_disjoint st ~num_inputs ~total =
  let seen = Hashtbl.create (2 * total) in
  let rec draw acc remaining guard =
    if remaining = 0 || guard = 0 then acc
    else begin
      let row = pack num_inputs (fun _ -> Random.State.bool st) in
      if Hashtbl.mem seen row then draw acc remaining (guard - 1)
      else begin
        Hashtbl.add seen row ();
        draw (row :: acc) (remaining - 1) (guard - 1)
      end
    end
  in
  Array.of_list (draw [] total (20 * total))

(* Input column [i] of rows [lo, lo + len), assembled a word at a time. *)
let column rows ~lo ~len i =
  let c = Words.create len in
  for w = 0 to Words.num_words len - 1 do
    let base = lo + (w * Words.bits_per_word) in
    let acc = ref 0 in
    for k = min Words.bits_per_word (len - (w * Words.bits_per_word)) - 1 downto 0 do
      acc := (!acc lsl 1) lor row_bit rows.(base + k) i
    done;
    Words.set_word c w !acc
  done;
  c

(* Cut the rows into train, valid and test, in that order.  [outputs]
   gives the label column of rows [lo, lo + len) from their input
   columns. *)
let split_sets ~(sizes : sizes) spec rows outputs =
  let m = Array.length rows in
  let n_train = min sizes.train m in
  let n_valid = min sizes.valid (m - n_train) in
  let set lo len =
    let cols = Array.init spec.num_inputs (column rows ~lo ~len) in
    Data.Dataset.of_columns cols (outputs ~lo ~len cols)
  in
  {
    spec;
    train = set 0 n_train;
    valid = set n_train n_valid;
    test = set (n_train + n_valid) (m - n_train - n_valid);
  }

let given labels ~lo ~len _ = Words.init len (fun j -> labels.(lo + j))

(* Every distinct row is drawn before any is labelled: the dedupe never
   reads a label, so the draws are those of labelling row by row.
   [outputs rows] labels the sets cut from [rows]. *)
let sample ~(sizes : sizes) ~key ~spec outputs =
  let st = Random.State.make key in
  let total = sizes.train + sizes.valid + sizes.test in
  let rows = sample_disjoint st ~num_inputs:spec.num_inputs ~total in
  split_sets ~sizes spec rows (outputs rows)

let instantiate_oracle ?(sizes = contest_sizes) ~key ~spec f =
  let n = spec.num_inputs in
  sample ~sizes ~key ~spec (fun rows ->
      given (Array.map (fun row -> f (Array.init n (fun i -> row_bit row i = 1))) rows))

let instantiate ?(sizes = contest_sizes) ~seed spec =
  let key = [| 0xbe7c; seed; spec.id |] in
  match source spec with
  | Oracle f -> instantiate_oracle ~sizes ~key ~spec f
  | Cone g -> sample ~sizes ~key ~spec (fun _ ~lo:_ ~len:_ cols -> Aig.Sim.simulate g cols)
  | Images (images, comparison) ->
      let st = Random.State.make key in
      let total = sizes.train + sizes.valid + sizes.test in
      let samples =
        Array.init total (fun _ -> Image_bench.sample images ~comparison st)
      in
      split_sets ~sizes spec
        (Array.map (fun (pixels, _) -> pack spec.num_inputs (Array.get pixels)) samples)
        (given (Array.map snd samples))
