module Circuit = Pdf_circuit.Circuit

type t = {
  c : Circuit.t;
  in_cone : bool array;
  heap : int array;
  mutable len : int;
  queued : int array; (* per gate: the pass that last queued it *)
  mutable pass : int;
}

let create c (cone : Req_cone.t) =
  {
    c;
    in_cone = cone.Req_cone.in_cone;
    heap = Array.make (Array.length cone.Req_cone.gates) 0;
    len = 0;
    queued = Array.make (Circuit.num_gates c) 0;
    pass = 0;
  }

let start wl =
  wl.len <- 0;
  wl.pass <- wl.pass + 1

let push wl gi =
  let h = wl.heap in
  let i = ref wl.len in
  wl.len <- wl.len + 1;
  while !i > 0 && h.((!i - 1) / 2) > gi do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- gi

let pop wl =
  if wl.len = 0 then -1
  else begin
    let h = wl.heap in
    let top = h.(0) in
    let n = wl.len - 1 in
    wl.len <- n;
    let last = h.(n) in
    let i = ref 0 and sifting = ref (n > 0) in
    while !sifting do
      let l = (2 * !i) + 1 in
      let child = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if child < n && h.(child) < last then begin
        h.(!i) <- h.(child);
        i := child
      end
      else sifting := false
    done;
    if n > 0 then h.(!i) <- last;
    top
  end

let queue_fanouts wl net =
  let fanouts = wl.c.Circuit.fanouts.(net) in
  for i = 0 to Array.length fanouts - 1 do
    let gi, _pin = fanouts.(i) in
    if wl.in_cone.(wl.c.Circuit.num_pis + gi) && wl.queued.(gi) <> wl.pass
    then begin
      wl.queued.(gi) <- wl.pass;
      push wl gi
    end
  done
