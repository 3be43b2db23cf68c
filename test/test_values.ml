(* Tests for Pdf_values: three-valued bits, triples, requirement lattice. *)

module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Req = Pdf_values.Req

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let bit = Alcotest.testable Bit.pp Bit.equal
let triple_t = Alcotest.testable Triple.pp Triple.equal
let req = Alcotest.testable Req.pp Req.equal

let all_bits = [ Bit.Zero; Bit.One; Bit.X ]

let bit_gen = QCheck.Gen.oneofl all_bits
let arb_bit = QCheck.make ~print:(fun b -> String.make 1 (Bit.char b)) bit_gen

(* ------------------------------------------------------------------ *)
(* Bit                                                                  *)
(* ------------------------------------------------------------------ *)

let test_bit_of_bool () =
  check bit "true" Bit.One (Bit.of_bool true);
  check bit "false" Bit.Zero (Bit.of_bool false)

let test_bit_to_bool () =
  check Alcotest.(option bool) "one" (Some true) (Bit.to_bool Bit.One);
  check Alcotest.(option bool) "zero" (Some false) (Bit.to_bool Bit.Zero);
  check Alcotest.(option bool) "x" None (Bit.to_bool Bit.X)

let test_bit_not () =
  check bit "not 0" Bit.One (Bit.not_ Bit.Zero);
  check bit "not 1" Bit.Zero (Bit.not_ Bit.One);
  check bit "not x" Bit.X (Bit.not_ Bit.X)

let test_bit_and_truth_table () =
  let t a b e = check bit "and" e (Bit.and_ a b) in
  t Bit.Zero Bit.Zero Bit.Zero;
  t Bit.Zero Bit.One Bit.Zero;
  t Bit.Zero Bit.X Bit.Zero;
  t Bit.One Bit.Zero Bit.Zero;
  t Bit.One Bit.One Bit.One;
  t Bit.One Bit.X Bit.X;
  t Bit.X Bit.Zero Bit.Zero;
  t Bit.X Bit.One Bit.X;
  t Bit.X Bit.X Bit.X

let test_bit_or_truth_table () =
  let t a b e = check bit "or" e (Bit.or_ a b) in
  t Bit.Zero Bit.Zero Bit.Zero;
  t Bit.Zero Bit.One Bit.One;
  t Bit.Zero Bit.X Bit.X;
  t Bit.One Bit.X Bit.One;
  t Bit.X Bit.X Bit.X

let test_bit_xor_truth_table () =
  let t a b e = check bit "xor" e (Bit.xor a b) in
  t Bit.Zero Bit.Zero Bit.Zero;
  t Bit.Zero Bit.One Bit.One;
  t Bit.One Bit.One Bit.Zero;
  t Bit.X Bit.Zero Bit.X;
  t Bit.One Bit.X Bit.X

let test_bit_char_roundtrip () =
  List.iter
    (fun b ->
      check Alcotest.(option (Alcotest.testable Bit.pp Bit.equal)) "roundtrip"
        (Some b)
        (Bit.of_char (Bit.char b)))
    all_bits;
  check Alcotest.(option bit) "X uppercase" (Some Bit.X) (Bit.of_char 'X');
  check Alcotest.(option bit) "garbage" None (Bit.of_char '?')

(* Kleene logic laws, checked over the whole (tiny) domain. *)
let prop_bit_de_morgan =
  QCheck.Test.make ~name:"De Morgan: not (a and b) = not a or not b"
    ~count:100
    QCheck.(pair arb_bit arb_bit)
    (fun (a, b) ->
      Bit.equal (Bit.not_ (Bit.and_ a b)) (Bit.or_ (Bit.not_ a) (Bit.not_ b)))

let prop_bit_commutative =
  QCheck.Test.make ~name:"and/or commutative" ~count:100
    QCheck.(pair arb_bit arb_bit)
    (fun (a, b) ->
      Bit.equal (Bit.and_ a b) (Bit.and_ b a)
      && Bit.equal (Bit.or_ a b) (Bit.or_ b a))

let prop_bit_associative =
  QCheck.Test.make ~name:"and/or associative" ~count:100
    QCheck.(triple arb_bit arb_bit arb_bit)
    (fun (a, b, c) ->
      Bit.equal (Bit.and_ a (Bit.and_ b c)) (Bit.and_ (Bit.and_ a b) c)
      && Bit.equal (Bit.or_ a (Bit.or_ b c)) (Bit.or_ (Bit.or_ a b) c))

(* Monotonicity w.r.t. the information order (X below 0 and 1): refining
   an X input never flips a definite output. *)
let refines a b =
  match a, b with
  | Bit.X, _ -> true
  | _, _ -> Bit.equal a b

let prop_bit_monotone =
  QCheck.Test.make ~name:"and/or/xor monotone in information order"
    ~count:200
    QCheck.(pair (pair arb_bit arb_bit) (pair arb_bit arb_bit))
    (fun ((a, b), (a', b')) ->
      QCheck.assume (refines a a' && refines b b');
      refines (Bit.and_ a b) (Bit.and_ a' b')
      && refines (Bit.or_ a b) (Bit.or_ a' b')
      && refines (Bit.xor a b) (Bit.xor a' b'))

(* ------------------------------------------------------------------ *)
(* Triple                                                               *)
(* ------------------------------------------------------------------ *)

let test_triple_constants () =
  check triple_t "stable0" (Triple.make Bit.Zero Bit.Zero Bit.Zero)
    (Triple.stable false);
  check triple_t "stable1" (Triple.make Bit.One Bit.One Bit.One)
    (Triple.stable true);
  check triple_t "rising" (Triple.make Bit.Zero Bit.X Bit.One) Triple.rising;
  check triple_t "falling" (Triple.make Bit.One Bit.X Bit.Zero) Triple.falling

let test_triple_predicates () =
  check Alcotest.bool "stable is stable" true (Triple.is_stable (Triple.stable true));
  check Alcotest.bool "rising not stable" false (Triple.is_stable Triple.rising);
  check Alcotest.bool "rising transitions" true (Triple.has_transition Triple.rising);
  check Alcotest.bool "stable no transition" false
    (Triple.has_transition (Triple.stable false));
  check Alcotest.bool "unknown no transition" false
    (Triple.has_transition Triple.unknown)

let test_triple_string_roundtrip () =
  List.iter
    (fun s ->
      match Triple.of_string s with
      | Some t -> check Alcotest.string "roundtrip" s (Triple.to_string t)
      | None -> Alcotest.failf "failed to parse %s" s)
    [ "000"; "111"; "0x1"; "1x0"; "xxx"; "01x"; "x10" ];
  check Alcotest.(option triple_t) "bad length" None (Triple.of_string "01");
  check Alcotest.(option triple_t) "bad char" None (Triple.of_string "0?1")

(* ------------------------------------------------------------------ *)
(* Req                                                                  *)
(* ------------------------------------------------------------------ *)

let test_req_constants () =
  check req "stable0" (Option.get (Req.of_string "000")) (Req.stable false);
  check req "final1" (Option.get (Req.of_string "xx1")) (Req.final true);
  check req "initial0" (Option.get (Req.of_string "0xx")) (Req.initial false);
  check req "rising" (Option.get (Req.of_string "0x1")) Req.rising;
  check req "falling" (Option.get (Req.of_string "1x0")) Req.falling;
  check Alcotest.bool "any" true (Req.is_any Req.any)

let test_req_merge () =
  let m a b = Req.merge (Option.get (Req.of_string a)) (Option.get (Req.of_string b)) in
  (match m "0x1" "xx1" with
  | Some r -> check Alcotest.string "merge compatible" "0x1" (Req.to_string r)
  | None -> Alcotest.fail "merge should succeed");
  check Alcotest.bool "conflict" true (m "000" "xx1" = None);
  check Alcotest.bool "conflict first" true (m "1xx" "0xx" = None);
  (match m "0xx" "x1x" with
  | Some r -> check Alcotest.string "componentwise" "01x" (Req.to_string r)
  | None -> Alcotest.fail "merge should succeed")

let test_req_satisfied_by () =
  let sat t r =
    Req.satisfied_by (Option.get (Triple.of_string t)) (Option.get (Req.of_string r))
  in
  check Alcotest.bool "exact stable" true (sat "000" "000");
  check Alcotest.bool "x in sim violates pinned middle" false (sat "0x0" "000");
  check Alcotest.bool "final only" true (sat "1x0" "xx0");
  check Alcotest.bool "wrong final" false (sat "0x1" "xx0");
  check Alcotest.bool "anything satisfies any" true (sat "xxx" "xxx");
  check Alcotest.bool "rising satisfies rising" true (sat "0x1" "0x1");
  check Alcotest.bool "rising with settled middle" true (sat "011" "0x1")

let test_req_compatible_bit () =
  check Alcotest.bool "x compatible with Must" true
    (Req.compatible_bit Bit.X (Req.Must true));
  check Alcotest.bool "definite matches" true
    (Req.compatible_bit Bit.One (Req.Must true));
  check Alcotest.bool "definite contradicts" false
    (Req.compatible_bit Bit.Zero (Req.Must true));
  check Alcotest.bool "any always" true (Req.compatible_bit Bit.Zero Req.Any)

let test_req_count_pinned () =
  let count s = Req.count_pinned (Option.get (Req.of_string s)) in
  check Alcotest.int "000" 3 (count "000");
  check Alcotest.int "xx1" 1 (count "xx1");
  check Alcotest.int "0x1" 2 (count "0x1");
  check Alcotest.int "xxx" 0 (count "xxx")

let arb_req =
  let component =
    QCheck.Gen.oneofl [ Req.Any; Req.Must false; Req.Must true ]
  in
  QCheck.make ~print:Req.to_string
    QCheck.Gen.(
      map3 (fun r1 r2 r3 -> { Req.r1; r2; r3 }) component component component)

let prop_req_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:300
    QCheck.(pair arb_req arb_req)
    (fun (a, b) ->
      match Req.merge a b, Req.merge b a with
      | Some x, Some y -> Req.equal x y
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_req_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent" ~count:100 arb_req (fun a ->
      match Req.merge a a with Some x -> Req.equal x a | None -> false)

let prop_req_merge_any_identity =
  QCheck.Test.make ~name:"any is the merge identity" ~count:100 arb_req
    (fun a ->
      match Req.merge a Req.any with Some x -> Req.equal x a | None -> false)

let prop_req_merge_strengthens =
  QCheck.Test.make ~name:"a triple satisfying a merge satisfies both parts"
    ~count:500
    QCheck.(
      triple arb_req arb_req
        (make
           Gen.(
             map3 Triple.make (oneofl all_bits) (oneofl all_bits)
               (oneofl all_bits))))
    (fun (a, b, t) ->
      match Req.merge a b with
      | None -> true
      | Some m ->
        (* satisfied(m) <=> satisfied(a) && satisfied(b) *)
        Req.satisfied_by t m = (Req.satisfied_by t a && Req.satisfied_by t b))

let prop_req_bits_merge =
  QCheck.Test.make ~name:"bits merge as merge does" ~count:500
    QCheck.(pair arb_req arb_req)
    (fun (a, b) ->
      let m = Req.bits a lor Req.bits b in
      match Req.merge a b with
      | None -> Req.bits_conflict m
      | Some r ->
        (not (Req.bits_conflict m)) && m = Req.bits r)

(* [merge] on all 27 x 27 pairs: the component-wise intersection,
   interned, and a loop over every pair allocates nothing. *)
let test_req_merge_all_pairs () =
  let all =
    Array.of_list
      (List.filter_map
         (fun m -> if Req.bits_conflict m then None else Some (Req.of_bits m))
         (List.init 64 Fun.id))
  in
  check Alcotest.int "27 requirements" 27 (Array.length all);
  let component a b =
    match a, b with
    | Req.Any, c | c, Req.Any -> Some c
    | Req.Must x, Req.Must y -> if x = y then Some a else None
  in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          let what = Req.to_string a ^ " & " ^ Req.to_string b in
          let reference =
            match
              ( component a.Req.r1 b.Req.r1,
                component a.Req.r2 b.Req.r2,
                component a.Req.r3 b.Req.r3 )
            with
            | Some r1, Some r2, Some r3 -> Some { Req.r1; r2; r3 }
            | _, _, _ -> None
          in
          match reference, Req.merge a b with
          | None, None -> ()
          | Some r, Some m ->
            check Alcotest.string what (Req.to_string r) (Req.to_string m);
            check Alcotest.bool (what ^ " interned") true (Req.intern m == m)
          | Some _, None | None, Some _ ->
            Alcotest.failf "%s: merge disagrees on the conflict" what)
        all)
    all;
  let merged = ref 0 in
  let minor0 = Gc.minor_words () in
  for i = 0 to Array.length all - 1 do
    for j = 0 to Array.length all - 1 do
      match Req.merge all.(i) all.(j) with
      | Some _ -> incr merged
      | None -> ()
    done
  done;
  let minor = Gc.minor_words () -. minor0 in
  ignore (Sys.opaque_identity !merged);
  (* per component, 7 of the 9 pairs merge *)
  check Alcotest.int "compatible pairs" (7 * 7 * 7) !merged;
  check (Alcotest.float 0.) "minor words of 729 merges" 0. minor

(* [of_bits] inverts [bits] on all 27 requirements, returning the
   interned value, and rejects every other int of six bits (a
   conflicting component) and any higher bit. *)
let test_req_of_bits () =
  for m = 0 to 63 do
    if Req.bits_conflict m then
      Alcotest.check_raises (Printf.sprintf "conflict %d" m)
        (Invalid_argument "Req.of_bits") (fun () -> ignore (Req.of_bits m))
    else begin
      let r = Req.of_bits m in
      check Alcotest.int (Printf.sprintf "bits of %d" m) m (Req.bits r);
      check Alcotest.bool (Printf.sprintf "%d interned" m) true
        (Req.intern r == r)
    end
  done;
  Alcotest.check_raises "bit 6" (Invalid_argument "Req.of_bits") (fun () ->
      ignore (Req.of_bits 64))

(* ------------------------------------------------------------------ *)
(* Word                                                                 *)
(* ------------------------------------------------------------------ *)

module Word = Pdf_values.Word

let word_t = Alcotest.testable Word.pp Word.equal

let test_word_lane_mask () =
  check Alcotest.int "0" 0 (Word.lane_mask 0);
  check Alcotest.int "1" 1 (Word.lane_mask 1);
  check Alcotest.int "5" 31 (Word.lane_mask 5);
  check Alcotest.int "63" (-1) (Word.lane_mask 63);
  Alcotest.check_raises "64" (Invalid_argument "Word.lane_mask: lane count")
    (fun () -> ignore (Word.lane_mask 64))

let test_word_get_set_roundtrip () =
  List.iter
    (fun v ->
      for lane = 0 to Word.lanes - 1 do
        let w = Word.set Word.all_x lane v in
        check bit "set/get" v (Word.get w lane);
        check Alcotest.bool "valid" true (Word.valid w)
      done)
    all_bits

let test_word_splat () =
  List.iter
    (fun v ->
      let w = Word.splat v in
      check Alcotest.bool "valid" true (Word.valid w);
      for lane = 0 to Word.lanes - 1 do
        check bit "splat lane" v (Word.get w lane)
      done)
    all_bits

let test_word_of_to_bits () =
  let a = [| Bit.Zero; Bit.One; Bit.X; Bit.One; Bit.Zero |] in
  let w = Word.of_bits a in
  check Alcotest.(array (testable Bit.pp Bit.equal)) "roundtrip" a
    (Word.to_bits 5 w);
  check word_t "repack" w (Word.of_bits (Word.to_bits 5 w));
  check bit "beyond packed count is X" Bit.X (Word.get w 5)

let test_word_popcount () =
  check Alcotest.int "empty" 0 (Word.popcount 0);
  check Alcotest.int "one" 1 (Word.popcount 16);
  check Alcotest.int "full" 63 (Word.popcount (Word.lane_mask 63))

(* Every word gate operation equals the Bit truth table on each lane. *)
let arb_word_pair =
  let gen =
    QCheck.Gen.(
      pair
        (array_size (return Word.lanes) bit_gen)
        (array_size (return Word.lanes) bit_gen))
  in
  QCheck.make gen

let lanewise_op name wop bop =
  QCheck.Test.make ~name ~count:200 arb_word_pair (fun (a, b) ->
      let w = wop (Word.of_bits a) (Word.of_bits b) in
      Word.valid w
      && Array.for_all
           (fun lane -> Bit.equal (bop a.(lane) b.(lane)) (Word.get w lane))
           (Array.init Word.lanes Fun.id))

let prop_word_and = lanewise_op "word and = bit and per lane" Word.and_ Bit.and_
let prop_word_or = lanewise_op "word or = bit or per lane" Word.or_ Bit.or_
let prop_word_xor = lanewise_op "word xor = bit xor per lane" Word.xor Bit.xor

let prop_word_middle =
  lanewise_op "word middle = middle_of_pair per lane" Word.middle
    (fun a b ->
      match (a, b) with
      | Bit.Zero, Bit.Zero -> Bit.Zero
      | Bit.One, Bit.One -> Bit.One
      | _ -> Bit.X)

let prop_word_not =
  QCheck.Test.make ~name:"word not = bit not per lane" ~count:200
    (QCheck.make QCheck.Gen.(array_size (return Word.lanes) bit_gen))
    (fun a ->
      let w = Word.not_ (Word.of_bits a) in
      Word.valid w
      && Array.for_all
           (fun lane -> Bit.equal (Bit.not_ a.(lane)) (Word.get w lane))
           (Array.init Word.lanes Fun.id))

let prop_word_not_involutive =
  QCheck.Test.make ~name:"word not involutive" ~count:200
    (QCheck.make QCheck.Gen.(array_size (return Word.lanes) bit_gen))
    (fun a ->
      let w = Word.of_bits a in
      Word.equal w (Word.not_ (Word.not_ w)))

let () =
  Alcotest.run "pdf_values"
    [
      ( "bit",
        [
          Alcotest.test_case "of_bool" `Quick test_bit_of_bool;
          Alcotest.test_case "to_bool" `Quick test_bit_to_bool;
          Alcotest.test_case "not" `Quick test_bit_not;
          Alcotest.test_case "and truth table" `Quick test_bit_and_truth_table;
          Alcotest.test_case "or truth table" `Quick test_bit_or_truth_table;
          Alcotest.test_case "xor truth table" `Quick test_bit_xor_truth_table;
          Alcotest.test_case "char roundtrip" `Quick test_bit_char_roundtrip;
          qcheck prop_bit_de_morgan;
          qcheck prop_bit_commutative;
          qcheck prop_bit_associative;
          qcheck prop_bit_monotone;
        ] );
      ( "triple",
        [
          Alcotest.test_case "constants" `Quick test_triple_constants;
          Alcotest.test_case "predicates" `Quick test_triple_predicates;
          Alcotest.test_case "string roundtrip" `Quick test_triple_string_roundtrip;
        ] );
      ( "req",
        [
          Alcotest.test_case "constants" `Quick test_req_constants;
          Alcotest.test_case "merge" `Quick test_req_merge;
          Alcotest.test_case "satisfied_by" `Quick test_req_satisfied_by;
          Alcotest.test_case "compatible_bit" `Quick test_req_compatible_bit;
          Alcotest.test_case "count_pinned" `Quick test_req_count_pinned;
          qcheck prop_req_merge_commutative;
          qcheck prop_req_merge_idempotent;
          qcheck prop_req_merge_any_identity;
          qcheck prop_req_merge_strengthens;
          qcheck prop_req_bits_merge;
          Alcotest.test_case "of_bits inverts bits" `Quick test_req_of_bits;
          Alcotest.test_case "merge on all pairs, allocation-free" `Quick
            test_req_merge_all_pairs;
        ] );
      ( "word",
        [
          Alcotest.test_case "lane_mask" `Quick test_word_lane_mask;
          Alcotest.test_case "get/set roundtrip" `Quick
            test_word_get_set_roundtrip;
          Alcotest.test_case "splat" `Quick test_word_splat;
          Alcotest.test_case "of_bits/to_bits" `Quick test_word_of_to_bits;
          Alcotest.test_case "popcount" `Quick test_word_popcount;
          qcheck prop_word_and;
          qcheck prop_word_or;
          qcheck prop_word_xor;
          qcheck prop_word_middle;
          qcheck prop_word_not;
          qcheck prop_word_not_involutive;
        ] );
    ]
