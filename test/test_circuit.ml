(* Tests for Pdf_circuit: gate semantics, builder, .bench IO, stats. *)

module Bit = Pdf_values.Bit
module Gate = Pdf_circuit.Gate
module Circuit = Pdf_circuit.Circuit
module Builder = Pdf_circuit.Builder
module Bench_io = Pdf_circuit.Bench_io
module Stats = Pdf_circuit.Stats

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let bit = Alcotest.testable Bit.pp Bit.equal

let all_bits = [ Bit.Zero; Bit.One; Bit.X ]

(* ------------------------------------------------------------------ *)
(* Gate                                                                 *)
(* ------------------------------------------------------------------ *)

let test_gate_names () =
  List.iter
    (fun k ->
      check
        Alcotest.(option (Alcotest.testable Gate.pp ( = )))
        "name roundtrip" (Some k)
        (Gate.kind_of_name (Gate.kind_name k)))
    Gate.all_kinds;
  check Alcotest.bool "lowercase accepted" true
    (Gate.kind_of_name "nand" = Some Gate.Nand);
  check Alcotest.bool "BUF alias" true (Gate.kind_of_name "BUF" = Some Gate.Buff);
  check Alcotest.bool "INV alias" true (Gate.kind_of_name "INV" = Some Gate.Not);
  check Alcotest.bool "junk rejected" true (Gate.kind_of_name "FOO" = None)

let test_gate_controlling () =
  check Alcotest.(option bool) "and" (Some false) (Gate.controlling Gate.And);
  check Alcotest.(option bool) "nand" (Some false) (Gate.controlling Gate.Nand);
  check Alcotest.(option bool) "or" (Some true) (Gate.controlling Gate.Or);
  check Alcotest.(option bool) "nor" (Some true) (Gate.controlling Gate.Nor);
  check Alcotest.(option bool) "xor" None (Gate.controlling Gate.Xor);
  check Alcotest.(option bool) "not" None (Gate.controlling Gate.Not)

let test_gate_inverting () =
  check Alcotest.bool "nand" true (Gate.inverting Gate.Nand);
  check Alcotest.bool "nor" true (Gate.inverting Gate.Nor);
  check Alcotest.bool "not" true (Gate.inverting Gate.Not);
  check Alcotest.bool "xnor" true (Gate.inverting Gate.Xnor);
  check Alcotest.bool "and" false (Gate.inverting Gate.And);
  check Alcotest.bool "buff" false (Gate.inverting Gate.Buff)

let bool_eval kind bools =
  let to_bit = Array.map Bit.of_bool in
  Bit.to_bool (Gate.eval kind (to_bit bools))

let test_gate_eval_two_valued () =
  (* Exhaustive 2-input truth tables for every binary kind. *)
  let expect kind a b =
    match kind with
    | Gate.And -> a && b
    | Gate.Nand -> not (a && b)
    | Gate.Or -> a || b
    | Gate.Nor -> not (a || b)
    | Gate.Xor -> a <> b
    | Gate.Xnor -> a = b
    | Gate.Not | Gate.Buff -> assert false
  in
  List.iter
    (fun kind ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check
                Alcotest.(option bool)
                (Gate.kind_name kind) (Some (expect kind a b))
                (bool_eval kind [| a; b |]))
            [ false; true ])
        [ false; true ])
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]

let test_gate_eval_unary () =
  check Alcotest.(option bool) "not" (Some false) (bool_eval Gate.Not [| true |]);
  check Alcotest.(option bool) "buff" (Some true) (bool_eval Gate.Buff [| true |])

let test_gate_eval_three_input () =
  check bit "and3 with 0" Bit.Zero
    (Gate.eval Gate.And [| Bit.One; Bit.Zero; Bit.One |]);
  check bit "or3 all 0" Bit.Zero
    (Gate.eval Gate.Or [| Bit.Zero; Bit.Zero; Bit.Zero |]);
  check bit "xor3 parity" Bit.One
    (Gate.eval Gate.Xor [| Bit.One; Bit.One; Bit.One |]);
  check bit "nand3 x dominated" Bit.One
    (Gate.eval Gate.Nand [| Bit.X; Bit.Zero; Bit.One |])

let test_gate_eval_arity_errors () =
  Alcotest.check_raises "not with 2 inputs"
    (Invalid_argument "Gate.eval: too many inputs for NOT") (fun () ->
      ignore (Gate.eval Gate.Not [| Bit.One; Bit.Zero |]));
  Alcotest.check_raises "and with 1 input"
    (Invalid_argument "Gate.eval: too few inputs for AND") (fun () ->
      ignore (Gate.eval Gate.And [| Bit.One |]))

(* eval2 agrees with eval on binary kinds. *)
let prop_eval2_agrees =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair
          (oneofl [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ])
          (pair (oneofl all_bits) (oneofl all_bits)))
  in
  QCheck.Test.make ~name:"eval2 agrees with eval" ~count:200 arb
    (fun (kind, (a, b)) ->
      Bit.equal (Gate.eval2 kind a b) (Gate.eval kind [| a; b |]))

(* The controlling value forces the output regardless of other inputs. *)
let prop_controlling_forces =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair
          (oneofl [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor ])
          (pair (oneofl all_bits) (oneofl all_bits)))
  in
  QCheck.Test.make ~name:"controlling value forces output" ~count:200 arb
    (fun (kind, (a, b)) ->
      let cv = Bit.of_bool (Option.get (Gate.controlling kind)) in
      let out = Gate.eval kind [| cv; a; b |] in
      let forced =
        if Gate.inverting kind then Bit.not_ cv else cv
      in
      Bit.equal out forced)

(* ------------------------------------------------------------------ *)
(* Builder                                                              *)
(* ------------------------------------------------------------------ *)

let build_simple () =
  let b = Builder.create "t" in
  Builder.add_pi b "a";
  Builder.add_pi b "b";
  Builder.add_po b "y";
  Builder.add_gate b ~out:"y" Gate.And [ "a"; "b" ];
  Builder.finish_exn b

let test_builder_simple () =
  let c = build_simple () in
  check Alcotest.int "pis" 2 c.Circuit.num_pis;
  check Alcotest.int "gates" 1 (Circuit.num_gates c);
  check Alcotest.int "pos" 1 (Circuit.num_pos c);
  check Alcotest.(result unit string) "validates" (Ok ()) (Circuit.validate c)

let test_builder_out_of_order () =
  (* Definitions arrive bottom-up; builder must topologically sort. *)
  let b = Builder.create "t" in
  Builder.add_po b "z";
  Builder.add_gate b ~out:"z" Gate.Or [ "y"; "a" ];
  Builder.add_gate b ~out:"y" Gate.Not [ "a" ];
  Builder.add_pi b "a";
  let c = Builder.finish_exn b in
  check Alcotest.(result unit string) "validates" (Ok ()) (Circuit.validate c);
  (* y (gate) must come before z in the gate array. *)
  let y = Option.get (Circuit.find_net c "y") in
  let z = Option.get (Circuit.find_net c "z") in
  check Alcotest.bool "topological" true (y < z)

let expect_error name setup expected =
  let b = Builder.create name in
  setup b;
  match Builder.finish b with
  | Ok _ -> Alcotest.failf "%s: expected error" name
  | Error e -> check Alcotest.string name expected (Builder.error_to_string e)

let test_builder_undriven () =
  expect_error "undriven"
    (fun b ->
      Builder.add_pi b "a";
      Builder.add_po b "y";
      Builder.add_gate b ~out:"y" Gate.And [ "a"; "ghost" ])
    "net used but never driven: ghost"

let test_builder_duplicate_driver () =
  expect_error "duplicate"
    (fun b ->
      Builder.add_pi b "a";
      Builder.add_po b "y";
      Builder.add_gate b ~out:"y" Gate.Not [ "a" ];
      Builder.add_gate b ~out:"y" Gate.Buff [ "a" ])
    "net driven more than once: y"

(* An input declared twice is an error, not two inputs of one name —
   through the builder and through both parsers. *)
let test_duplicate_input () =
  expect_error "duplicate input"
    (fun b ->
      Builder.add_pi b "a";
      Builder.add_pi b "a";
      Builder.add_po b "y";
      Builder.add_gate b ~out:"y" Gate.Not [ "a" ])
    "input declared more than once: a";
  let expect what = function
    | Ok _ -> Alcotest.failf "%s: accepted a repeated input" what
    | Error message ->
      check Alcotest.string what "line 0: input declared more than once: a"
        message
  in
  expect ".bench INPUT(a) twice"
    (Result.map_error Bench_io.error_to_string
       (Bench_io.parse_string ~name:"t"
          "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"));
  let module V = Pdf_circuit.Verilog_io in
  List.iter
    (fun decl ->
      expect ("verilog " ^ decl)
        (Result.map_error V.error_to_string
           (V.parse_string ~name:"t"
              (Printf.sprintf
                 "module t (a, y); %s output y; not g (y, a); endmodule"
                 decl))))
    [ "input a; input a;"; "input a, a;" ]

let test_builder_cycle () =
  let b = Builder.create "t" in
  Builder.add_pi b "a";
  Builder.add_po b "y";
  Builder.add_gate b ~out:"y" Gate.And [ "a"; "z" ];
  Builder.add_gate b ~out:"z" Gate.Not [ "y" ];
  match Builder.finish b with
  | Ok _ -> Alcotest.fail "expected cycle error"
  | Error (Builder.Combinational_cycle _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Builder.error_to_string e)

let test_builder_no_outputs () =
  expect_error "no outputs"
    (fun b -> Builder.add_pi b "a")
    "circuit has no primary outputs"

let test_builder_unknown_output () =
  expect_error "unknown output"
    (fun b ->
      Builder.add_pi b "a";
      Builder.add_po b "nowhere")
    "declared output is not a net: nowhere"

let test_builder_bad_arity () =
  expect_error "bad arity"
    (fun b ->
      Builder.add_pi b "a";
      Builder.add_po b "y";
      Builder.add_gate b ~out:"y" Gate.Not [ "a"; "a" ])
    "gate y: NOT cannot take 2 input(s)"

let test_builder_pi_as_po () =
  let b = Builder.create "t" in
  Builder.add_pi b "a";
  Builder.add_po b "a";
  let c = Builder.finish_exn b in
  check Alcotest.bool "PI can be PO" true c.Circuit.is_po.(0)

let test_builder_fanout_tables () =
  let c = build_simple () in
  check Alcotest.int "a feeds one gate" 1 (Circuit.fanout_count c 0);
  check Alcotest.int "y feeds nothing" 0
    (Circuit.fanout_count c (Circuit.net_of_gate c 0))

(* ------------------------------------------------------------------ *)
(* Bench IO                                                             *)
(* ------------------------------------------------------------------ *)

let test_bench_roundtrip () =
  let c = Pdf_synth.Iscas.c17 () in
  let text = Bench_io.to_string c in
  match Bench_io.parse_string ~name:"c17" text with
  | Error e -> Alcotest.failf "reparse failed: %s" (Bench_io.error_to_string e)
  | Ok c2 ->
    check Alcotest.int "pis" c.Circuit.num_pis c2.Circuit.num_pis;
    check Alcotest.int "gates" (Circuit.num_gates c) (Circuit.num_gates c2);
    check Alcotest.int "pos" (Circuit.num_pos c) (Circuit.num_pos c2);
    (* Same logic: exhaustively compare all 32 input combinations. *)
    for v = 0 to 31 do
      let pis = Array.init 5 (fun i -> (v lsr i) land 1 = 1) in
      let o1 = Pdf_sim.Logic_sim.simulate_bool c pis in
      let o2 = Pdf_sim.Logic_sim.simulate_bool c2 pis in
      Array.iteri
        (fun j po ->
          check Alcotest.bool "same output" o1.(po) o2.(c2.Circuit.pos.(j)))
        c.Circuit.pos
    done

let test_bench_s27_extraction () =
  let c = Pdf_synth.Iscas.s27 () in
  (* 4 PIs + 3 DFF outputs; 1 PO + 3 DFF inputs. *)
  check Alcotest.int "pis" 7 c.Circuit.num_pis;
  check Alcotest.int "pos" 4 (Circuit.num_pos c);
  check Alcotest.int "gates" 10 (Circuit.num_gates c);
  check Alcotest.bool "G5 is pseudo PI" true
    (match Circuit.find_net c "G5" with
    | Some n -> Circuit.is_pi c n
    | None -> false);
  check Alcotest.bool "G10 is pseudo PO" true
    (match Circuit.find_net c "G10" with
    | Some n -> c.Circuit.is_po.(n)
    | None -> false)

let test_bench_comments_and_blanks () =
  let text = "# hello\n\nINPUT(a)\n  # indented comment\nOUTPUT(y)\ny = NOT(a) # trailing\n" in
  match Bench_io.parse_string ~name:"t" text with
  | Ok c -> check Alcotest.int "one gate" 1 (Circuit.num_gates c)
  | Error e -> Alcotest.failf "parse failed: %s" (Bench_io.error_to_string e)

let test_bench_parse_errors () =
  let bad text =
    match Bench_io.parse_string ~name:"t" text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error _ -> ()
  in
  bad "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
  bad "INPUT(a\n";
  bad "INPUT(a)\nOUTPUT(y)\ny = DFF(a, b)\n";
  bad "WIBBLE(a)\n";
  bad "INPUT(a, b)\n"

let test_bench_dff_chain () =
  (* A DFF feeding a DFF: both extracted. *)
  let text =
    "INPUT(a)\nOUTPUT(y)\nq1 = DFF(a)\nq2 = DFF(q1)\ny = AND(q1, q2)\n"
  in
  match Bench_io.parse_string ~name:"t" text with
  | Ok c ->
    check Alcotest.int "pis" 3 c.Circuit.num_pis;
    (* y plus the two DFF data inputs (a and q1). *)
    check Alcotest.int "pos" 3 (Circuit.num_pos c)
  | Error e -> Alcotest.failf "parse failed: %s" (Bench_io.error_to_string e)


let prop_bench_roundtrip_random =
  QCheck.Test.make ~name:"bench roundtrip preserves structure and logic"
    ~count:25
    (QCheck.make (QCheck.Gen.int_range 0 100_000))
    (fun seed ->
      let params =
        { Pdf_synth.Generators.num_pis = 6; num_gates = 30; window = 15;
          max_fanout = 3; reuse_pct = 10; restart_pct = 5; fanin3_pct = 15;
          inverter_pct = 25; po_taps = 2 }
      in
      let c = Pdf_synth.Generators.random_dag ~name:"rt" ~seed params in
      match Bench_io.parse_string ~name:"rt" (Bench_io.to_string c) with
      | Error _ -> false
      | Ok c2 ->
        c.Circuit.num_pis = c2.Circuit.num_pis
        && Circuit.num_gates c = Circuit.num_gates c2
        && Circuit.num_pos c = Circuit.num_pos c2
        &&
        (* Compare responses on a few random input vectors. *)
        let rng = Pdf_util.Rng.create seed in
        let ok = ref true in
        for _ = 1 to 10 do
          let pis =
            Array.init c.Circuit.num_pis (fun _ -> Pdf_util.Rng.bool rng)
          in
          let v1 = Pdf_sim.Logic_sim.simulate_bool c pis in
          let v2 = Pdf_sim.Logic_sim.simulate_bool c2 pis in
          Array.iteri
            (fun j po ->
              if v1.(po) <> v2.(c2.Circuit.pos.(j)) then ok := false)
            c.Circuit.pos
        done;
        !ok)


(* ------------------------------------------------------------------ *)
(* Verilog IO                                                           *)
(* ------------------------------------------------------------------ *)

module Verilog_io = Pdf_circuit.Verilog_io

let same_logic c c2 rng_seed rounds =
  let rng = Pdf_util.Rng.create rng_seed in
  let ok = ref true in
  for _ = 1 to rounds do
    let pis = Array.init c.Circuit.num_pis (fun _ -> Pdf_util.Rng.bool rng) in
    let v1 = Pdf_sim.Logic_sim.simulate_bool c pis in
    let v2 = Pdf_sim.Logic_sim.simulate_bool c2 pis in
    Array.iteri
      (fun j po -> if v1.(po) <> v2.(c2.Circuit.pos.(j)) then ok := false)
      c.Circuit.pos
  done;
  !ok

let test_verilog_roundtrip () =
  List.iter
    (fun c ->
      let text = Verilog_io.to_string c in
      match Verilog_io.parse_string ~name:c.Circuit.name text with
      | Error e ->
        Alcotest.failf "%s: %s" c.Circuit.name (Verilog_io.error_to_string e)
      | Ok c2 ->
        check Alcotest.int "pis" c.Circuit.num_pis c2.Circuit.num_pis;
        check Alcotest.int "pos" (Circuit.num_pos c) (Circuit.num_pos c2);
        check Alcotest.bool "same logic" true (same_logic c c2 55 20))
    [ Pdf_synth.Iscas.s27 (); Pdf_synth.Iscas.c17 ();
      Pdf_synth.Generators.ripple_adder ~bits:4 ]

let test_verilog_parse_basic () =
  let text =
    "// a tiny netlist\n\
     module top (a, b, y);\n\
     \  input a, b;  /* two inputs */\n\
     \  output y;\n\
     \  wire n1;\n\
     \  nand g1 (n1, a, b);\n\
     \  not (y, n1);\n\
     endmodule\n"
  in
  match Verilog_io.parse_string ~name:"x" text with
  | Error e -> Alcotest.failf "parse: %s" (Verilog_io.error_to_string e)
  | Ok c ->
    check Alcotest.int "pis" 2 c.Circuit.num_pis;
    check Alcotest.int "gates" 2 (Circuit.num_gates c);
    check Alcotest.string "module name wins" "top" c.Circuit.name;
    (* y = not (nand a b) = and *)
    let out = Pdf_sim.Logic_sim.simulate_bool c [| true; true |] in
    check Alcotest.bool "logic" true out.(c.Circuit.pos.(0))

let test_verilog_parse_errors () =
  let bad text =
    match Verilog_io.parse_string ~name:"t" text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error _ -> ()
  in
  bad "module m (a); input a; assign y = a; endmodule";
  bad "input a;";
  bad "module m (a); input a; output y; frob g (y, a); endmodule";
  bad "module m (a); input a; output y; not (y, a) endmodule";
  bad "module m (a); input a; output y; not (); endmodule";
  bad "module m (a); /* unterminated"

let test_verilog_bench_agree () =
  (* The two writers describe the same circuit. *)
  let c = Pdf_synth.Iscas.s27 () in
  let via_bench =
    match Bench_io.parse_string ~name:"s27" (Bench_io.to_string c) with
    | Ok x -> x
    | Error _ -> Alcotest.fail "bench reparse"
  in
  let via_verilog =
    match Verilog_io.parse_string ~name:"s27" (Verilog_io.to_string c) with
    | Ok x -> x
    | Error _ -> Alcotest.fail "verilog reparse"
  in
  check Alcotest.bool "same logic" true (same_logic via_bench via_verilog 99 30)

(* ------------------------------------------------------------------ *)
(* Stats and validate over all profiles                                 *)
(* ------------------------------------------------------------------ *)

let test_profiles_validate () =
  List.iter
    (fun p ->
      let c = Pdf_synth.Profiles.circuit p in
      match Circuit.validate c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" p.Pdf_synth.Profiles.name e)
    Pdf_synth.Profiles.all

let test_stats_s27 () =
  let s = Stats.compute (Pdf_synth.Iscas.s27 ()) in
  check Alcotest.int "pis" 7 s.Stats.num_pis;
  check Alcotest.int "gates" 10 s.Stats.num_gates;
  check Alcotest.int "depth" 6 s.Stats.depth;
  check Alcotest.int "fanout stems" 4 s.Stats.num_fanout_stems;
  let total_hist = List.fold_left (fun a (_, n) -> a + n) 0 s.Stats.gate_histogram in
  check Alcotest.int "histogram covers all gates" s.Stats.num_gates total_hist

let () =
  Alcotest.run "pdf_circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "names" `Quick test_gate_names;
          Alcotest.test_case "controlling" `Quick test_gate_controlling;
          Alcotest.test_case "inverting" `Quick test_gate_inverting;
          Alcotest.test_case "two-valued eval" `Quick test_gate_eval_two_valued;
          Alcotest.test_case "unary eval" `Quick test_gate_eval_unary;
          Alcotest.test_case "three-input eval" `Quick test_gate_eval_three_input;
          Alcotest.test_case "arity errors" `Quick test_gate_eval_arity_errors;
          qcheck prop_eval2_agrees;
          qcheck prop_controlling_forces;
        ] );
      ( "builder",
        [
          Alcotest.test_case "simple" `Quick test_builder_simple;
          Alcotest.test_case "out of order" `Quick test_builder_out_of_order;
          Alcotest.test_case "undriven" `Quick test_builder_undriven;
          Alcotest.test_case "duplicate driver" `Quick test_builder_duplicate_driver;
          Alcotest.test_case "cycle" `Quick test_builder_cycle;
          Alcotest.test_case "no outputs" `Quick test_builder_no_outputs;
          Alcotest.test_case "unknown output" `Quick test_builder_unknown_output;
          Alcotest.test_case "bad arity" `Quick test_builder_bad_arity;
          Alcotest.test_case "PI as PO" `Quick test_builder_pi_as_po;
          Alcotest.test_case "fanout tables" `Quick test_builder_fanout_tables;
          Alcotest.test_case "duplicate input" `Quick test_duplicate_input;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "roundtrip c17" `Quick test_bench_roundtrip;
          Alcotest.test_case "s27 extraction" `Quick test_bench_s27_extraction;
          Alcotest.test_case "comments and blanks" `Quick test_bench_comments_and_blanks;
          Alcotest.test_case "parse errors" `Quick test_bench_parse_errors;
          Alcotest.test_case "dff chain" `Quick test_bench_dff_chain;
          qcheck prop_bench_roundtrip_random;
        ] );
      ( "verilog_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "parse basic" `Quick test_verilog_parse_basic;
          Alcotest.test_case "parse errors" `Quick test_verilog_parse_errors;
          Alcotest.test_case "bench and verilog agree" `Quick
            test_verilog_bench_agree;
        ] );
      ( "stats",
        [
          Alcotest.test_case "profiles validate" `Slow test_profiles_validate;
          Alcotest.test_case "s27 stats" `Quick test_stats_s27;
        ] );
    ]
