module Builder = Pdf_circuit.Builder
module Gate = Pdf_circuit.Gate
module Rng = Pdf_util.Rng

type dag_params = {
  num_pis : int;
  num_gates : int;
  window : int;
  max_fanout : int;
  reuse_pct : int;
  restart_pct : int;
  fanin3_pct : int;
  inverter_pct : int;
  po_taps : int;
}

let net_name i = Printf.sprintf "n%d" i

(* Pick a gate kind with an ISCAS-like mix: mostly NAND/NOR with some
   AND/OR, plus the configured shares of inverters/buffers and of
   XOR/XNOR.  A zero XOR share draws nothing from [rng], so a seed
   builds the same circuit with the argument at 0 as without it. *)
let pick_kind rng ~inverter_pct ~xor_pct =
  if Rng.int rng 100 < inverter_pct then
    if Rng.int rng 100 < 70 then Gate.Not else Gate.Buff
  else if xor_pct > 0 && Rng.int rng 100 < xor_pct then
    if Rng.bool rng then Gate.Xor else Gate.Xnor
  else
    match Rng.int rng 10 with
    | 0 | 1 | 2 -> Gate.Nand
    | 3 | 4 | 5 -> Gate.Nor
    | 6 | 7 -> Gate.And
    | 8 | 9 -> Gate.Or
    | _ -> Gate.Nand

(* Reject degenerate parameters up front with a field-specific message:
   0 PIs / 0 gates / a window below 2 would otherwise surface as an
   obscure [Rng.int] or [Builder] failure from deep inside the build
   loop (or, for a non-positive fanout cap, silently ignore the cap). *)
let validate_params ~xor_pct (p : dag_params) =
  let fail fmt = Printf.ksprintf invalid_arg ("Generators.random_dag: " ^^ fmt) in
  if p.num_pis < 2 then fail "num_pis must be >= 2 (got %d)" p.num_pis;
  if p.num_gates < 1 then fail "num_gates must be >= 1 (got %d)" p.num_gates;
  if p.window < 2 then fail "window must be >= 2 (got %d)" p.window;
  if p.max_fanout < 1 then fail "max_fanout must be >= 1 (got %d)" p.max_fanout;
  let pct name v =
    if v < 0 || v > 100 then fail "%s must be in 0..100 (got %d)" name v
  in
  pct "reuse_pct" p.reuse_pct;
  pct "restart_pct" p.restart_pct;
  pct "fanin3_pct" p.fanin3_pct;
  pct "inverter_pct" p.inverter_pct;
  pct "xor_pct" xor_pct;
  if p.po_taps < 0 then fail "po_taps must be >= 0 (got %d)" p.po_taps

let random_dag ?(xor_pct = 0) ~name ~seed (p : dag_params) =
  validate_params ~xor_pct p;
  let rng = Rng.create seed in
  let b = Builder.create name in
  for i = 0 to p.num_pis - 1 do
    Builder.add_pi b (net_name i)
  done;
  let total = p.num_pis + p.num_gates in
  let fanout = Array.make total 0 in
  for g = 0 to p.num_gates - 1 do
    let out = p.num_pis + g in
    let kind = pick_kind rng ~inverter_pct:p.inverter_pct ~xor_pct in
    let arity =
      match kind with
      | Gate.Not | Gate.Buff -> 1
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
        if Rng.int rng 100 < p.fanin3_pct then 3 else 2
    in
    let lo = max 0 (out - p.window) in
    let span = out - lo in
    (* Fan-in policy modelled on synthesized logic: the first input (the
       "spine") continues a recent chain, giving depth; the remaining side
       inputs are mostly drawn with a bias towards shallow nets (primary
       inputs and early logic), the way long real paths are gated by
       near-input control signals.  Deep, correlated side inputs — which
       make long paths robustly untestable — only appear with probability
       [reuse_pct]. *)
    let pick_with ~accept ~draw =
      let rec attempt tries best =
        let cand = draw () in
        if accept cand then cand
        else if tries >= 12 then best
        else
          let best = if fanout.(cand) < fanout.(best) then cand else best in
          attempt (tries + 1) best
      in
      let cand = attempt 0 (draw ()) in
      fanout.(cand) <- fanout.(cand) + 1;
      cand
    in
    let draw_spine () = lo + Rng.int rng span in
    let draw_shallow () =
      let a = Rng.int rng out and b = Rng.int rng out in
      min a b
    in
    let spine =
      if Rng.int rng 100 < p.restart_pct then
        (* Restart a chain from shallow logic (controls overall depth). *)
        pick_with
          ~accept:(fun cand -> fanout.(cand) < p.max_fanout)
          ~draw:draw_shallow
      else
        pick_with ~accept:(fun cand -> fanout.(cand) = 0) ~draw:draw_spine
    in
    let rec pick_sides chosen k =
      if k = 0 then chosen
      else begin
        let deep = Rng.int rng 100 < p.reuse_pct in
        let draw = if deep then draw_spine else draw_shallow in
        let accept cand =
          (not (List.mem cand chosen))
          && cand <> spine
          && fanout.(cand) < p.max_fanout
        in
        let cand = pick_with ~accept ~draw in
        pick_sides (cand :: chosen) (k - 1)
      end
    in
    let fanins = spine :: pick_sides [] (arity - 1) in
    Builder.add_gate b ~out:(net_name out) kind (List.map net_name fanins)
  done;
  (* Sink nets become primary outputs so every partial path can complete. *)
  for i = p.num_pis to total - 1 do
    if fanout.(i) = 0 then Builder.add_po b (net_name i)
  done;
  (* Expose a few driven internal nets as extra outputs (pseudo-POs). *)
  let taps = ref 0 and attempts = ref 0 in
  while !taps < p.po_taps && !attempts < 20 * p.po_taps do
    incr attempts;
    let cand = p.num_pis + Rng.int rng p.num_gates in
    if fanout.(cand) > 0 then begin
      Builder.add_po b (net_name cand);
      incr taps
    end
  done;
  Builder.finish_exn b

let full_adder b ~a ~bb ~cin ~sum ~cout =
  let axb = sum ^ "_axb" in
  Builder.add_gate b ~out:axb Gate.Xor [ a; bb ];
  Builder.add_gate b ~out:sum Gate.Xor [ axb; cin ];
  let ab = sum ^ "_ab" and cx = sum ^ "_cx" in
  Builder.add_gate b ~out:ab Gate.And [ a; bb ];
  Builder.add_gate b ~out:cx Gate.And [ axb; cin ];
  Builder.add_gate b ~out:cout Gate.Or [ ab; cx ]

let ripple_adder ~bits =
  if bits < 1 then invalid_arg "Generators.ripple_adder: bits < 1";
  let b = Builder.create (Printf.sprintf "rca%d" bits) in
  for i = 0 to bits - 1 do
    Builder.add_pi b (Printf.sprintf "a%d" i);
    Builder.add_pi b (Printf.sprintf "b%d" i)
  done;
  Builder.add_pi b "cin";
  let carry = ref "cin" in
  for i = 0 to bits - 1 do
    let sum = Printf.sprintf "s%d" i in
    let cout = Printf.sprintf "c%d" i in
    full_adder b ~a:(Printf.sprintf "a%d" i) ~bb:(Printf.sprintf "b%d" i)
      ~cin:!carry ~sum ~cout;
    Builder.add_po b sum;
    carry := cout
  done;
  Builder.add_po b !carry;
  Builder.finish_exn b

let mux2 b ~out ~sel ~a ~bb =
  let nsel = out ^ "_ns" and ta = out ^ "_ta" and tb = out ^ "_tb" in
  Builder.add_gate b ~out:nsel Gate.Not [ sel ];
  Builder.add_gate b ~out:ta Gate.And [ a; nsel ];
  Builder.add_gate b ~out:tb Gate.And [ bb; sel ];
  Builder.add_gate b ~out Gate.Or [ ta; tb ]

let mux_cascade ~selects =
  if selects < 1 || selects > 10 then
    invalid_arg "Generators.mux_cascade: selects out of range";
  let inputs = 1 lsl selects in
  let b = Builder.create (Printf.sprintf "mux%d" inputs) in
  for i = 0 to inputs - 1 do
    Builder.add_pi b (Printf.sprintf "d%d" i)
  done;
  for i = 0 to selects - 1 do
    Builder.add_pi b (Printf.sprintf "sel%d" i)
  done;
  let layer = ref (List.init inputs (fun i -> Printf.sprintf "d%d" i)) in
  for level = 0 to selects - 1 do
    let sel = Printf.sprintf "sel%d" level in
    let rec pair acc idx = function
      | [] -> List.rev acc
      | [ last ] -> List.rev (last :: acc)
      | a :: bb :: rest ->
        let out = Printf.sprintf "m%d_%d" level idx in
        mux2 b ~out ~sel ~a ~bb;
        pair (out :: acc) (idx + 1) rest
    in
    layer := pair [] 0 !layer
  done;
  (match !layer with
  | [ out ] -> Builder.add_po b out
  | outs -> List.iter (Builder.add_po b) outs);
  Builder.finish_exn b

let parity_tree ~width =
  if width < 2 then invalid_arg "Generators.parity_tree: width < 2";
  let b = Builder.create (Printf.sprintf "parity%d" width) in
  for i = 0 to width - 1 do
    Builder.add_pi b (Printf.sprintf "x%d" i)
  done;
  let counter = ref 0 in
  let rec reduce = function
    | [] -> assert false
    | [ last ] -> last
    | layer ->
      let rec pair acc = function
        | [] -> List.rev acc
        | [ last ] -> List.rev (last :: acc)
        | a :: bb :: rest ->
          let out = Printf.sprintf "p%d" !counter in
          incr counter;
          Builder.add_gate b ~out Gate.Xor [ a; bb ];
          pair (out :: acc) rest
      in
      reduce (pair [] layer)
  in
  let out = reduce (List.init width (fun i -> Printf.sprintf "x%d" i)) in
  Builder.add_po b out;
  Builder.finish_exn b

let comparator ~bits =
  if bits < 1 then invalid_arg "Generators.comparator: bits < 1";
  let b = Builder.create (Printf.sprintf "cmp%d" bits) in
  for i = 0 to bits - 1 do
    Builder.add_pi b (Printf.sprintf "a%d" i);
    Builder.add_pi b (Printf.sprintf "b%d" i)
  done;
  (* eq_i without XOR: eq = (a AND b) OR (NOT a AND NOT b). *)
  for i = 0 to bits - 1 do
    let a = Printf.sprintf "a%d" i and bb = Printf.sprintf "b%d" i in
    Builder.add_gate b ~out:(Printf.sprintf "na%d" i) Gate.Not [ a ];
    Builder.add_gate b ~out:(Printf.sprintf "nb%d" i) Gate.Not [ bb ];
    Builder.add_gate b ~out:(Printf.sprintf "both%d" i) Gate.And [ a; bb ];
    Builder.add_gate b
      ~out:(Printf.sprintf "neither%d" i)
      Gate.And
      [ Printf.sprintf "na%d" i; Printf.sprintf "nb%d" i ];
    Builder.add_gate b ~out:(Printf.sprintf "eq%d" i) Gate.Or
      [ Printf.sprintf "both%d" i; Printf.sprintf "neither%d" i ];
    Builder.add_gate b ~out:(Printf.sprintf "gt%d" i) Gate.And
      [ a; Printf.sprintf "nb%d" i ]
  done;
  (* eq chain (MSB down) and gt = OR of gt_i AND (eq of all higher bits). *)
  let eq_prefix = ref (Printf.sprintf "eq%d" (bits - 1)) in
  let gt_terms = ref [ Printf.sprintf "gt%d" (bits - 1) ] in
  for i = bits - 2 downto 0 do
    let masked = Printf.sprintf "gtm%d" i in
    Builder.add_gate b ~out:masked Gate.And
      [ Printf.sprintf "gt%d" i; !eq_prefix ];
    gt_terms := masked :: !gt_terms;
    let next = Printf.sprintf "eqp%d" i in
    Builder.add_gate b ~out:next Gate.And
      [ Printf.sprintf "eq%d" i; !eq_prefix ];
    eq_prefix := next
  done;
  Builder.add_po b !eq_prefix;
  let rec or_tree idx = function
    | [] -> assert false
    | [ last ] -> last
    | a :: bb :: rest ->
      let out = Printf.sprintf "or%d" idx in
      Builder.add_gate b ~out Gate.Or [ a; bb ];
      or_tree (idx + 1) (rest @ [ out ])
    in
  let gt = or_tree 0 !gt_terms in
  Builder.add_po b gt;
  Builder.finish_exn b

let decoder ~bits =
  if bits < 1 || bits > 8 then
    invalid_arg "Generators.decoder: bits out of range";
  let b = Builder.create (Printf.sprintf "dec%d" bits) in
  for i = 0 to bits - 1 do
    Builder.add_pi b (Printf.sprintf "a%d" i);
    Builder.add_gate b ~out:(Printf.sprintf "na%d" i) Gate.Not
      [ Printf.sprintf "a%d" i ]
  done;
  for v = 0 to (1 lsl bits) - 1 do
    let literals =
      List.init bits (fun i ->
          if (v lsr i) land 1 = 1 then Printf.sprintf "a%d" i
          else Printf.sprintf "na%d" i)
    in
    let out = Printf.sprintf "y%d" v in
    (if bits = 1 then
       Builder.add_gate b ~out Gate.Buff literals
     else Builder.add_gate b ~out Gate.And literals);
    Builder.add_po b out
  done;
  Builder.finish_exn b

let priority_encoder ~width =
  if width < 2 then invalid_arg "Generators.priority_encoder: width < 2";
  let b = Builder.create (Printf.sprintf "prio%d" width) in
  for i = 0 to width - 1 do
    Builder.add_pi b (Printf.sprintf "x%d" i)
  done;
  (* none_above(i) = no input above bit i is set; computed as a chain of
     NORs folded with ANDs from the top down. *)
  for i = 0 to width - 1 do
    Builder.add_gate b ~out:(Printf.sprintf "nx%d" i) Gate.Not
      [ Printf.sprintf "x%d" i ]
  done;
  let grant_top = Printf.sprintf "g%d" (width - 1) in
  Builder.add_gate b ~out:grant_top Gate.Buff
    [ Printf.sprintf "x%d" (width - 1) ];
  Builder.add_po b grant_top;
  let above = ref (Printf.sprintf "nx%d" (width - 1)) in
  for i = width - 2 downto 0 do
    let out = Printf.sprintf "g%d" i in
    Builder.add_gate b ~out Gate.And [ Printf.sprintf "x%d" i; !above ];
    Builder.add_po b out;
    if i > 0 then begin
      let next = Printf.sprintf "none_above%d" i in
      Builder.add_gate b ~out:next Gate.And
        [ !above; Printf.sprintf "nx%d" i ];
      above := next
    end
  done;
  (* valid = OR of all inputs *)
  let rec or_tree idx = function
    | [] -> assert false
    | [ last ] -> last
    | a :: bb :: rest ->
      let out = Printf.sprintf "v%d" idx in
      Builder.add_gate b ~out Gate.Or [ a; bb ];
      or_tree (idx + 1) (rest @ [ out ])
  in
  let valid = or_tree 0 (List.init width (fun i -> Printf.sprintf "x%d" i)) in
  (* [valid] may coincide with an input when width folds oddly; tap it
     through a buffer so the PO has a dedicated name. *)
  Builder.add_gate b ~out:"valid" Gate.Buff [ valid ];
  Builder.add_po b "valid";
  Builder.finish_exn b

let barrel_shifter ~selects =
  if selects < 1 || selects > 6 then
    invalid_arg "Generators.barrel_shifter: selects out of range";
  let width = 1 lsl selects in
  let b = Builder.create (Printf.sprintf "bshift%d" width) in
  for i = 0 to width - 1 do
    Builder.add_pi b (Printf.sprintf "d%d" i)
  done;
  for s = 0 to selects - 1 do
    Builder.add_pi b (Printf.sprintf "sh%d" s)
  done;
  Builder.add_pi b "zero";
  (* Stage s shifts left by 2^s when sh_s is set; vacated positions take
     the [zero] input (a real shifter would tie them low; the extra input
     keeps the netlist constant-free). *)
  let layer = ref (Array.init width (fun i -> Printf.sprintf "d%d" i)) in
  for s = 0 to selects - 1 do
    let sel = Printf.sprintf "sh%d" s in
    let shift = 1 lsl s in
    let next =
      Array.init width (fun i ->
          let out = Printf.sprintf "l%d_%d" s i in
          let from = if i >= shift then !layer.(i - shift) else "zero" in
          mux2 b ~out ~sel ~a:!layer.(i) ~bb:from;
          out)
    in
    layer := next
  done;
  Array.iter (Builder.add_po b) !layer;
  Builder.finish_exn b

let array_multiplier ~bits =
  if bits < 2 || bits > 8 then
    invalid_arg "Generators.array_multiplier: bits out of range";
  let b = Builder.create (Printf.sprintf "mult%d" bits) in
  for i = 0 to bits - 1 do
    Builder.add_pi b (Printf.sprintf "a%d" i);
    Builder.add_pi b (Printf.sprintf "b%d" i)
  done;
  (* Partial products. *)
  for i = 0 to bits - 1 do
    for j = 0 to bits - 1 do
      Builder.add_gate b ~out:(Printf.sprintf "pp%d_%d" i j) Gate.And
        [ Printf.sprintf "a%d" i; Printf.sprintf "b%d" j ]
    done
  done;
  (* Row-by-row ripple reduction: acc holds the running sum shifted so
     acc.(k) is weight k.  Row j adds pp_*,j at weight i+j. *)
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d" prefix !n
  in
  let half_adder ~a ~bb ~sum ~carry =
    Builder.add_gate b ~out:sum Gate.Xor [ a; bb ];
    Builder.add_gate b ~out:carry Gate.And [ a; bb ]
  in
  let acc = Array.make (2 * bits) None in
  for j = 0 to bits - 1 do
    let carry = ref None in
    for i = 0 to bits - 1 do
      let k = i + j in
      let pp = Printf.sprintf "pp%d_%d" i j in
      (* Add pp, acc.(k) and carry at weight k. *)
      let operands =
        List.filter_map Fun.id [ Some pp; acc.(k); !carry ]
      in
      match operands with
      | [ one ] ->
        acc.(k) <- Some one;
        carry := None
      | [ x; y ] ->
        let sum = fresh "s" and cout = fresh "c" in
        half_adder ~a:x ~bb:y ~sum ~carry:cout;
        acc.(k) <- Some sum;
        carry := Some cout
      | [ x; y; z ] ->
        let sum = fresh "s" and cout = fresh "c" in
        full_adder b ~a:x ~bb:y ~cin:z ~sum ~cout;
        acc.(k) <- Some sum;
        carry := Some cout
      | _ -> assert false
    done;
    (* Propagate the final carry of the row upward. *)
    let k = ref (bits + j) in
    while !carry <> None do
      let cin = match !carry with Some c -> c | None -> assert false in
      (match acc.(!k) with
      | None ->
        acc.(!k) <- Some cin;
        carry := None
      | Some existing ->
        let sum = fresh "s" and cout = fresh "c" in
        half_adder ~a:existing ~bb:cin ~sum ~carry:cout;
        acc.(!k) <- Some sum;
        carry := Some cout);
      incr k
    done
  done;
  Array.iteri
    (fun k slot ->
      match slot with
      | Some net ->
        let out = Printf.sprintf "p%d" k in
        Builder.add_gate b ~out Gate.Buff [ net ];
        Builder.add_po b out
      | None -> ())
    acc;
  Builder.finish_exn b
