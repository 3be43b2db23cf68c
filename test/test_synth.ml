(* Tests for Pdf_synth: embedded netlists, structured generators (checked
   against arithmetic reference models), random DAGs, profiles. *)

module Circuit = Pdf_circuit.Circuit
module Gate = Pdf_circuit.Gate
module Logic_sim = Pdf_sim.Logic_sim
module Generators = Pdf_synth.Generators
module Profiles = Pdf_synth.Profiles
module Iscas = Pdf_synth.Iscas

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Embedded netlists                                                    *)
(* ------------------------------------------------------------------ *)

let test_s27_structure () =
  let c = Iscas.s27 () in
  check Alcotest.int "pis" 7 c.Circuit.num_pis;
  check Alcotest.int "pos" 4 (Circuit.num_pos c);
  check Alcotest.int "gates" 10 (Circuit.num_gates c);
  check Alcotest.(result unit string) "valid" (Ok ()) (Circuit.validate c)

let test_c17_structure () =
  let c = Iscas.c17 () in
  check Alcotest.int "pis" 5 c.Circuit.num_pis;
  check Alcotest.int "pos" 2 (Circuit.num_pos c);
  check Alcotest.int "gates" 6 (Circuit.num_gates c);
  (* All NAND. *)
  Array.iter
    (fun (g : Circuit.gate) ->
      check Alcotest.bool "nand" true (g.Circuit.kind = Pdf_circuit.Gate.Nand))
    c.Circuit.gates

let test_s27_g17_function () =
  (* G17 = NOT(G11) with G11 = NOR(G5, G9): check one corner. *)
  let c = Iscas.s27 () in
  let g5 = Option.get (Circuit.find_net c "G5") in
  let g17 = Option.get (Circuit.find_net c "G17") in
  let pis = Array.make 7 false in
  pis.(g5) <- true;
  (* G5=1 forces G11=0 hence G17=1. *)
  let values = Logic_sim.simulate_bool c pis in
  check Alcotest.bool "G17" true values.(g17)

(* ------------------------------------------------------------------ *)
(* Structured generators vs reference models                            *)
(* ------------------------------------------------------------------ *)

let test_ripple_adder_structure () =
  let c = Generators.ripple_adder ~bits:4 in
  check Alcotest.int "pis" 9 c.Circuit.num_pis;
  check Alcotest.int "pos" 5 (Circuit.num_pos c);
  check Alcotest.(result unit string) "valid" (Ok ()) (Circuit.validate c)

let prop_ripple_adder_adds =
  QCheck.Test.make ~name:"ripple adder computes a + b + cin" ~count:200
    QCheck.(triple (int_bound 255) (int_bound 255) bool)
    (fun (a, b, cin) ->
      let bits = 8 in
      let c = Generators.ripple_adder ~bits in
      let pis = Array.make c.Circuit.num_pis false in
      for i = 0 to bits - 1 do
        let ai = Option.get (Circuit.find_net c (Printf.sprintf "a%d" i)) in
        let bi = Option.get (Circuit.find_net c (Printf.sprintf "b%d" i)) in
        pis.(ai) <- (a lsr i) land 1 = 1;
        pis.(bi) <- (b lsr i) land 1 = 1
      done;
      let ci = Option.get (Circuit.find_net c "cin") in
      pis.(ci) <- cin;
      let values = Logic_sim.simulate_bool c pis in
      let sum = ref 0 in
      for i = 0 to bits - 1 do
        let si = Option.get (Circuit.find_net c (Printf.sprintf "s%d" i)) in
        if values.(si) then sum := !sum lor (1 lsl i)
      done;
      let cout =
        values.(Option.get (Circuit.find_net c (Printf.sprintf "c%d" (bits - 1))))
      in
      let total = !sum lor (if cout then 1 lsl bits else 0) in
      total = a + b + if cin then 1 else 0)

let prop_mux_selects =
  QCheck.Test.make ~name:"mux cascade selects the addressed input" ~count:100
    QCheck.(pair (int_bound 15) (int_bound 65535))
    (fun (sel, data) ->
      let c = Generators.mux_cascade ~selects:4 in
      let pis = Array.make c.Circuit.num_pis false in
      for i = 0 to 15 do
        let d = Option.get (Circuit.find_net c (Printf.sprintf "d%d" i)) in
        pis.(d) <- (data lsr i) land 1 = 1
      done;
      for i = 0 to 3 do
        let s = Option.get (Circuit.find_net c (Printf.sprintf "sel%d" i)) in
        pis.(s) <- (sel lsr i) land 1 = 1
      done;
      let values = Logic_sim.simulate_bool c pis in
      let out = values.(c.Circuit.pos.(0)) in
      out = ((data lsr sel) land 1 = 1))

let prop_parity_tree =
  QCheck.Test.make ~name:"parity tree computes xor of inputs" ~count:100
    QCheck.(int_bound 65535)
    (fun data ->
      let c = Generators.parity_tree ~width:16 in
      let pis =
        Array.init c.Circuit.num_pis (fun i -> (data lsr i) land 1 = 1)
      in
      let values = Logic_sim.simulate_bool c pis in
      let expected =
        let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
        popcount data mod 2 = 1
      in
      values.(c.Circuit.pos.(0)) = expected)

let prop_comparator =
  QCheck.Test.make ~name:"comparator computes eq and gt" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let bits = 8 in
      let c = Generators.comparator ~bits in
      let pis = Array.make c.Circuit.num_pis false in
      for i = 0 to bits - 1 do
        let ai = Option.get (Circuit.find_net c (Printf.sprintf "a%d" i)) in
        let bi = Option.get (Circuit.find_net c (Printf.sprintf "b%d" i)) in
        pis.(ai) <- (a lsr i) land 1 = 1;
        pis.(bi) <- (b lsr i) land 1 = 1
      done;
      let values = Logic_sim.simulate_bool c pis in
      let eq = values.(c.Circuit.pos.(0)) and gt = values.(c.Circuit.pos.(1)) in
      eq = (a = b) && gt = (a > b))


let prop_decoder =
  QCheck.Test.make ~name:"decoder is one-hot at the addressed output"
    ~count:100
    QCheck.(int_bound 15)
    (fun v ->
      let c = Generators.decoder ~bits:4 in
      let pis =
        Array.init c.Circuit.num_pis (fun i -> (v lsr i) land 1 = 1)
      in
      let values = Logic_sim.simulate_bool c pis in
      Array.to_list c.Circuit.pos
      |> List.for_all (fun po ->
             let name = Circuit.net_name c po in
             let idx = int_of_string (String.sub name 1 (String.length name - 1)) in
             values.(po) = (idx = v)))

let prop_priority_encoder =
  QCheck.Test.make ~name:"priority encoder grants the highest set bit"
    ~count:200
    QCheck.(int_bound 255)
    (fun v ->
      let width = 8 in
      let c = Generators.priority_encoder ~width in
      let pis = Array.make c.Circuit.num_pis false in
      for i = 0 to width - 1 do
        let x = Option.get (Circuit.find_net c (Printf.sprintf "x%d" i)) in
        pis.(x) <- (v lsr i) land 1 = 1
      done;
      let values = Logic_sim.simulate_bool c pis in
      let highest =
        let rec go i = if i < 0 then None else if (v lsr i) land 1 = 1 then Some i else go (i - 1) in
        go (width - 1)
      in
      let grants_ok =
        List.init width (fun i ->
            let g = Option.get (Circuit.find_net c (Printf.sprintf "g%d" i)) in
            values.(g) = (highest = Some i))
        |> List.for_all Fun.id
      in
      let valid = Option.get (Circuit.find_net c "valid") in
      grants_ok && values.(valid) = (v <> 0))

let prop_barrel_shifter =
  QCheck.Test.make ~name:"barrel shifter shifts left by the select amount"
    ~count:200
    QCheck.(pair (int_bound 255) (int_bound 7))
    (fun (data, shift) ->
      let selects = 3 in
      let width = 8 in
      let c = Generators.barrel_shifter ~selects in
      let pis = Array.make c.Circuit.num_pis false in
      for i = 0 to width - 1 do
        let d = Option.get (Circuit.find_net c (Printf.sprintf "d%d" i)) in
        pis.(d) <- (data lsr i) land 1 = 1
      done;
      for s = 0 to selects - 1 do
        let sh = Option.get (Circuit.find_net c (Printf.sprintf "sh%d" s)) in
        pis.(sh) <- (shift lsr s) land 1 = 1
      done;
      (* fill input held at 0 *)
      let values = Logic_sim.simulate_bool c pis in
      let got = ref 0 in
      Array.iteri
        (fun idx po -> if values.(po) then got := !got lor (1 lsl idx))
        c.Circuit.pos;
      !got = (data lsl shift) land 0xff)

let prop_array_multiplier =
  QCheck.Test.make ~name:"array multiplier computes a * b" ~count:200
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      let bits = 6 in
      let c = Generators.array_multiplier ~bits in
      let pis = Array.make c.Circuit.num_pis false in
      for i = 0 to bits - 1 do
        let ai = Option.get (Circuit.find_net c (Printf.sprintf "a%d" i)) in
        let bi = Option.get (Circuit.find_net c (Printf.sprintf "b%d" i)) in
        pis.(ai) <- (a lsr i) land 1 = 1;
        pis.(bi) <- (b lsr i) land 1 = 1
      done;
      let values = Logic_sim.simulate_bool c pis in
      let product = ref 0 in
      Array.iter
        (fun po ->
          let name = Circuit.net_name c po in
          let k = int_of_string (String.sub name 1 (String.length name - 1)) in
          if values.(po) then product := !product lor (1 lsl k))
        c.Circuit.pos;
      !product = a * b)

let test_new_generators_validate () =
  List.iter
    (fun c ->
      match Circuit.validate c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" c.Circuit.name e)
    [ Generators.decoder ~bits:3; Generators.priority_encoder ~width:6;
      Generators.barrel_shifter ~selects:3; Generators.array_multiplier ~bits:4 ]

let test_generator_bad_args () =
  Alcotest.check_raises "adder bits"
    (Invalid_argument "Generators.ripple_adder: bits < 1") (fun () ->
      ignore (Generators.ripple_adder ~bits:0));
  Alcotest.check_raises "parity width"
    (Invalid_argument "Generators.parity_tree: width < 2") (fun () ->
      ignore (Generators.parity_tree ~width:1));
  Alcotest.check_raises "mux selects"
    (Invalid_argument "Generators.mux_cascade: selects out of range") (fun () ->
      ignore (Generators.mux_cascade ~selects:0))

(* ------------------------------------------------------------------ *)
(* Random DAGs                                                          *)
(* ------------------------------------------------------------------ *)

let dag_params =
  { Generators.num_pis = 10; num_gates = 60; window = 30; max_fanout = 3;
    reuse_pct = 10; restart_pct = 5; fanin3_pct = 10; inverter_pct = 25;
    po_taps = 3 }

let test_random_dag_reproducible () =
  let a = Generators.random_dag ~name:"r" ~seed:7 dag_params in
  let b = Generators.random_dag ~name:"r" ~seed:7 dag_params in
  check Alcotest.string "same netlist"
    (Pdf_circuit.Bench_io.to_string a)
    (Pdf_circuit.Bench_io.to_string b)

let test_random_dag_seed_matters () =
  let a = Generators.random_dag ~name:"r" ~seed:7 dag_params in
  let b = Generators.random_dag ~name:"r" ~seed:8 dag_params in
  check Alcotest.bool "different netlists" false
    (Pdf_circuit.Bench_io.to_string a = Pdf_circuit.Bench_io.to_string b)

let test_random_dag_no_dangling () =
  let c = Generators.random_dag ~name:"r" ~seed:11 dag_params in
  (* Every gate output either feeds another gate or is a primary output. *)
  for g = 0 to Circuit.num_gates c - 1 do
    let out = Circuit.net_of_gate c g in
    check Alcotest.bool "no dangling net" true
      (Circuit.fanout_count c out > 0 || c.Circuit.is_po.(out))
  done

let test_random_dag_validates () =
  for seed = 0 to 20 do
    let c = Generators.random_dag ~name:"r" ~seed dag_params in
    match Circuit.validate c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done

let test_random_dag_bad_params () =
  (* Each degenerate field is rejected up front with a message naming
     the field, instead of looping or failing deep inside the builder. *)
  List.iter
    (fun (label, params, message) ->
      Alcotest.check_raises label
        (Invalid_argument ("Generators.random_dag: " ^ message))
        (fun () -> ignore (Generators.random_dag ~name:"r" ~seed:0 params)))
    [
      ( "one pi", { dag_params with Generators.num_pis = 1 },
        "num_pis must be >= 2 (got 1)" );
      ( "zero pis", { dag_params with Generators.num_pis = 0 },
        "num_pis must be >= 2 (got 0)" );
      ( "zero gates", { dag_params with Generators.num_gates = 0 },
        "num_gates must be >= 1 (got 0)" );
      ( "window zero", { dag_params with Generators.window = 0 },
        "window must be >= 2 (got 0)" );
      ( "window one", { dag_params with Generators.window = 1 },
        "window must be >= 2 (got 1)" );
      ( "fanout zero", { dag_params with Generators.max_fanout = 0 },
        "max_fanout must be >= 1 (got 0)" );
      ( "reuse pct", { dag_params with Generators.reuse_pct = 101 },
        "reuse_pct must be in 0..100 (got 101)" );
      ( "restart pct", { dag_params with Generators.restart_pct = -1 },
        "restart_pct must be in 0..100 (got -1)" );
      ( "fanin3 pct", { dag_params with Generators.fanin3_pct = 200 },
        "fanin3_pct must be in 0..100 (got 200)" );
      ( "inverter pct", { dag_params with Generators.inverter_pct = -5 },
        "inverter_pct must be in 0..100 (got -5)" );
      ( "negative taps", { dag_params with Generators.po_taps = -1 },
        "po_taps must be >= 0 (got -1)" );
    ]

(* A zero XOR share draws nothing: every seed builds the netlist it
   builds without the argument.  A positive share puts both XOR and
   XNOR gates in, and the circuits validate. *)
let test_random_dag_xor_share () =
  let kinds c =
    Array.to_list (Array.map (fun g -> g.Circuit.kind) c.Circuit.gates)
  in
  for seed = 0 to 20 do
    check Alcotest.string
      (Printf.sprintf "seed %d, share 0" seed)
      (Pdf_circuit.Bench_io.to_string
         (Generators.random_dag ~name:"r" ~seed dag_params))
      (Pdf_circuit.Bench_io.to_string
         (Generators.random_dag ~xor_pct:0 ~name:"r" ~seed dag_params))
  done;
  let c = Generators.random_dag ~xor_pct:33 ~name:"r" ~seed:7 dag_params in
  check Alcotest.(result unit string) "valid" (Ok ()) (Circuit.validate c);
  check Alcotest.bool "XOR drawn" true (List.mem Gate.Xor (kinds c));
  check Alcotest.bool "XNOR drawn" true (List.mem Gate.Xnor (kinds c));
  Alcotest.check_raises "share above 100"
    (Invalid_argument "Generators.random_dag: xor_pct must be in 0..100 (got 101)")
    (fun () ->
      ignore (Generators.random_dag ~xor_pct:101 ~name:"r" ~seed:0 dag_params))

let test_random_dag_boundary_params_ok () =
  (* The smallest legal parameter set builds and validates. *)
  let p =
    { Generators.num_pis = 2; num_gates = 1; window = 2; max_fanout = 1;
      reuse_pct = 0; restart_pct = 100; fanin3_pct = 0; inverter_pct = 0;
      po_taps = 0 }
  in
  let c = Generators.random_dag ~name:"tiny" ~seed:3 p in
  check Alcotest.(result unit string) "valid" (Ok ()) (Circuit.validate c);
  check Alcotest.int "one gate" 1 (Circuit.num_gates c)

(* ------------------------------------------------------------------ *)
(* Profiles                                                             *)
(* ------------------------------------------------------------------ *)

let test_profiles_find () =
  List.iter
    (fun name ->
      check Alcotest.bool name true (Profiles.find name <> None))
    [ "s641"; "s953"; "s1196"; "s1423"; "s1488"; "b03"; "b04"; "b09";
      "s1423*"; "s5378*"; "s9234*"; "s27"; "c17"; "rca16"; "mux64"; "cmp16";
      "parity32" ];
  check Alcotest.bool "unknown" true (Profiles.find "nonesuch" = None)

let test_profiles_rows () =
  check Alcotest.int "eight table rows" 8 (List.length Profiles.table_rows);
  check Alcotest.int "three star rows" 3 (List.length Profiles.star_rows);
  check Alcotest.int "eleven enrichment rows" 11
    (List.length Profiles.enrichment_rows)

let test_profiles_have_enough_paths () =
  (* Each table-row profile must offer at least 900 complete paths, the
     paper's pre-condition (">= 1000 paths" at full scale). *)
  List.iter
    (fun p ->
      let c = Profiles.circuit p in
      let model = Pdf_paths.Delay_model.lines c in
      let r = Pdf_paths.Enumerate.enumerate c model ~max_paths:1000 in
      let n = List.length r.Pdf_paths.Enumerate.paths in
      if n < 900 then
        Alcotest.failf "%s has only %d paths" p.Profiles.name n)
    Profiles.enrichment_rows

let test_profiles_lazy_cached () =
  let p = Option.get (Profiles.find "s641") in
  let a = Profiles.circuit p and b = Profiles.circuit p in
  check Alcotest.bool "same instance" true (a == b)

let () =
  Alcotest.run "pdf_synth"
    [
      ( "iscas",
        [
          Alcotest.test_case "s27 structure" `Quick test_s27_structure;
          Alcotest.test_case "c17 structure" `Quick test_c17_structure;
          Alcotest.test_case "s27 G17 function" `Quick test_s27_g17_function;
        ] );
      ( "structured",
        [
          Alcotest.test_case "adder structure" `Quick test_ripple_adder_structure;
          qcheck prop_ripple_adder_adds;
          qcheck prop_mux_selects;
          qcheck prop_parity_tree;
          qcheck prop_comparator;
          qcheck prop_decoder;
          qcheck prop_priority_encoder;
          qcheck prop_barrel_shifter;
          qcheck prop_array_multiplier;
          Alcotest.test_case "new generators validate" `Quick
            test_new_generators_validate;
          Alcotest.test_case "bad args" `Quick test_generator_bad_args;
        ] );
      ( "random_dag",
        [
          Alcotest.test_case "reproducible" `Quick test_random_dag_reproducible;
          Alcotest.test_case "seed matters" `Quick test_random_dag_seed_matters;
          Alcotest.test_case "no dangling nets" `Quick test_random_dag_no_dangling;
          Alcotest.test_case "validates" `Quick test_random_dag_validates;
          Alcotest.test_case "bad params" `Quick test_random_dag_bad_params;
          Alcotest.test_case "boundary params" `Quick
            test_random_dag_boundary_params_ok;
          Alcotest.test_case "XOR share" `Quick test_random_dag_xor_share;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "find" `Quick test_profiles_find;
          Alcotest.test_case "rows" `Quick test_profiles_rows;
          Alcotest.test_case "enough paths" `Slow test_profiles_have_enough_paths;
          Alcotest.test_case "lazy cached" `Quick test_profiles_lazy_cached;
        ] );
    ]
