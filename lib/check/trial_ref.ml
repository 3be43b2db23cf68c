module Bit = Pdf_values.Bit
module Triple = Pdf_values.Triple
module Circuit = Pdf_circuit.Circuit
module Req_cone = Pdf_core.Req_cone

let component (t : Triple.t) k =
  match k with 0 -> t.Triple.v1 | 1 -> t.Triple.v2 | _ -> t.Triple.v3

let scan c (cone : Req_cone.t) ~before ~after ~pi =
  let np = c.Circuit.num_pis and r = cone.Req_cone.r in
  let changed k net =
    not (Bit.equal (component before.(net) k) (component after.(net) k))
  in
  let conflicts k net =
    changed k net && Req_cone.mismatch r.(k).(net) (component after.(net) k)
  in
  if conflicts 0 pi || conflicts 2 pi || conflicts 1 pi then (pi, 0)
  else begin
    let evals = ref 0 in
    let pass k =
      let hit = ref (-1) and i = ref 0 in
      while !hit < 0 && !i < cone.Req_cone.n_gates do
        let gi = cone.Req_cone.gates.(!i) in
        if Array.exists (changed k) c.Circuit.gates.(gi).Circuit.fanins then begin
          incr evals;
          if conflicts k (np + gi) then hit := np + gi
        end;
        incr i
      done;
      !hit
    in
    let hit = pass 0 in
    let hit = if hit >= 0 then hit else pass 2 in
    let hit = if hit >= 0 then hit else pass 1 in
    (hit, !evals)
  end
