type t = {
  name : string;
  description : string;
  circuit : Pdf_circuit.Circuit.t Lazy.t;
}

let dag name seed params description =
  {
    name;
    description;
    circuit = lazy (Generators.random_dag ~name ~seed params);
  }

let mk ~pis ~gates ~window ?(reuse_pct = 0) ?(restart_pct = 0)
    ?(fanin3_pct = 10) ?(inverter_pct = 20) ?(po_taps = 4) () =
  {
    Generators.num_pis = pis;
    num_gates = gates;
    window;
    max_fanout = 4;
    reuse_pct;
    restart_pct;
    fanin3_pct;
    inverter_pct;
    po_taps;
  }

(* Parameters are calibrated so each look-alike has the rough input/gate
   scale of its namesake and comfortably more than 1000 paths. *)
let table_rows =
  [
    dag "s641" 641
      (mk ~pis:54 ~gates:380 ~window:120 ~inverter_pct:35 ())
      "deep ISCAS-89-scale look-alike (380 gates, 54 inputs)";
    dag "s953" 953
      (mk ~pis:45 ~gates:440 ~window:200 ~inverter_pct:40 ())
      "highly testable ISCAS-89-scale look-alike (400 gates, 45 inputs)";
    dag "s1196" 1196
      (mk ~pis:32 ~gates:530 ~window:150 ~inverter_pct:28 ~reuse_pct:3 ~restart_pct:4 ())
      "ISCAS-89-scale look-alike with moderate testability (530 gates)";
    dag "s1423" 1423
      (mk ~pis:91 ~gates:660 ~window:120 ~inverter_pct:40 ())
      "deep ISCAS-89-scale look-alike (660 gates, 91 inputs)";
    dag "s1488" 1488
      (mk ~pis:18 ~gates:550 ~window:350 ~inverter_pct:45 ~restart_pct:10 ())
      "narrow-input ISCAS-89-scale look-alike (550 gates, 18 inputs)";
    dag "b03" 303
      (mk ~pis:34 ~gates:280 ~window:70 ~inverter_pct:30 ~reuse_pct:4 ())
      "ITC-99-scale look-alike (160 gates, 34 inputs)";
    dag "b04" 304
      (mk ~pis:77 ~gates:650 ~window:150 ~inverter_pct:22 ~reuse_pct:10 ())
      "ITC-99-scale look-alike with low robust testability (650 gates)";
    dag "b09" 309
      (mk ~pis:29 ~gates:240 ~window:55 ~inverter_pct:25 ~reuse_pct:7 ())
      "ITC-99-scale look-alike (170 gates, 29 inputs)";
  ]

(* The resynthesized circuits of the paper's reference [13]: more
   balanced, more testable versions.  Wider windows, more inverters and no
   deep side inputs give the flatter, more uniformly sensitizable
   structure that synthesis-for-testability produces.  s5378*/s9234* are
   scaled to keep laptop run times (documented in DESIGN.md). *)
let star_rows =
  [
    dag "s1423*" 11423
      (mk ~pis:91 ~gates:660 ~window:250 ~inverter_pct:40 ())
      "resynthesized-for-testability stand-in for s1423";
    dag "s5378*" 15378
      (mk ~pis:120 ~gates:1200 ~window:400 ~inverter_pct:40 ())
      "resynthesized stand-in for s5378 (scaled to 1200 gates)";
    dag "s9234*" 19234
      (mk ~pis:140 ~gates:1700 ~window:500 ~inverter_pct:40 ())
      "resynthesized stand-in for s9234 (scaled to 1700 gates)";
  ]

let enrichment_rows = table_rows @ star_rows

let extras =
  [
    {
      name = "s27";
      description = "genuine ISCAS-89 s27 combinational logic (paper Fig. 1)";
      circuit = lazy (Iscas.s27 ());
    };
    {
      name = "c17";
      description = "genuine ISCAS-85 c17";
      circuit = lazy (Iscas.c17 ());
    };
    {
      name = "rca16";
      description = "16-bit ripple-carry adder";
      circuit = lazy (Generators.ripple_adder ~bits:16);
    };
    {
      name = "mux64";
      description = "64-to-1 multiplexer cascade";
      circuit = lazy (Generators.mux_cascade ~selects:6);
    };
    {
      name = "cmp16";
      description = "16-bit magnitude comparator";
      circuit = lazy (Generators.comparator ~bits:16);
    };
    {
      name = "parity32";
      description = "32-bit parity tree (XOR)";
      circuit = lazy (Generators.parity_tree ~width:32);
    };
    {
      name = "dec6";
      description = "6-to-64 one-hot decoder";
      circuit = lazy (Generators.decoder ~bits:6);
    };
    {
      name = "prio16";
      description = "16-bit priority encoder";
      circuit = lazy (Generators.priority_encoder ~width:16);
    };
    {
      name = "bshift32";
      description = "32-bit logarithmic barrel shifter";
      circuit = lazy (Generators.barrel_shifter ~selects:5);
    };
    {
      name = "mult8";
      description = "8x8 array multiplier";
      circuit = lazy (Generators.array_multiplier ~bits:8);
    };
  ]

let all = enrichment_rows @ extras

let find name = List.find_opt (fun p -> p.name = name) all

let circuit p = Lazy.force p.circuit
