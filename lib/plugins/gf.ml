(* GF(256) arithmetic (AES polynomial 0x11b) and the deterministic RLC
   coefficient stream, shared by the FEC plugin's bytecode helpers and any
   native code that needs to mirror the sliding-window random linear code.
   Standalone library: both the engine (host-side gf256_* helpers) and the
   plugin collection link against it. *)

let mul a b =
  let a = ref a and b = ref b and p = ref 0 in
  for _ = 0 to 7 do
    if !b land 1 <> 0 then p := !p lxor !a;
    let hi = !a land 0x80 in
    a := (!a lsl 1) land 0xff;
    if hi <> 0 then a := !a lxor 0x1b;
    b := !b lsr 1
  done;
  !p

let pow a n =
  let rec go acc a n =
    if n = 0 then acc
    else go (if n land 1 = 1 then mul acc a else acc) (mul a a) (n lsr 1)
  in
  go 1 a n

let inv a = if a = 0 then 0 else pow a 254

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Word-parallel dst ^= coef * src: eight byte lanes per native int64 op.
   The per-word product is built like [mul], but xtime runs on all eight
   lanes at once — the top-bit mask picks the lanes that overflow, and
   [(hi >>> 7) * 0x1b] rebuilds the reduction byte in exactly those lanes
   (each product term stays below 256, so lanes cannot carry into each
   other). The FEC repair path XOR-accumulates coef*symbol over whole
   1300-byte symbols, which is where the 8x width pays. *)
let mulvec_off ~coef ~src ~soff ~dst ~doff ~len =
  if
    len < 0 || soff < 0 || doff < 0
    || soff + len > Bytes.length src
    || doff + len > Bytes.length dst
  then invalid_arg "Gf.mulvec";
  let coef = coef land 0xff in
  let words = len lsr 3 in
  if coef = 1 then begin
    (* XOR fast path: multiplying by 1 is the whole of XOR-style codes
       (the paper's XOR-EOS plugin), so the per-word product loop reduces
       to one unboxed xor per lane word — this runs once per protected
       packet on both the encode and the recovery side. *)
    for w = 0 to words - 1 do
      let o = w lsl 3 in
      set64 dst (doff + o)
        (Int64.logxor (get64 dst (doff + o)) (get64 src (soff + o)))
    done;
    for k = words lsl 3 to len - 1 do
      Bytes.set_uint8 dst (doff + k)
        (Bytes.get_uint8 dst (doff + k) lxor Bytes.get_uint8 src (soff + k))
    done
  end
  else begin
  for w = 0 to words - 1 do
    let o = w lsl 3 in
    let x = ref (get64 src (soff + o)) and c = ref coef and p = ref 0L in
    while !c <> 0 do
      if !c land 1 <> 0 then p := Int64.logxor !p !x;
      let hi = Int64.logand !x 0x8080_8080_8080_8080L in
      x :=
        Int64.logxor
          (Int64.shift_left (Int64.logand !x 0x7f7f_7f7f_7f7f_7f7fL) 1)
          (Int64.mul (Int64.shift_right_logical hi 7) 0x1bL);
      c := !c lsr 1
    done;
    set64 dst (doff + o)
      (Int64.logxor (get64 dst (doff + o)) !p)
  done;
  for k = words lsl 3 to len - 1 do
    Bytes.set_uint8 dst (doff + k)
      (Bytes.get_uint8 dst (doff + k) lxor mul coef (Bytes.get_uint8 src (soff + k)))
  done
  end

let mulvec ~coef ~src ~dst ~len = mulvec_off ~coef ~src ~soff:0 ~dst ~doff:0 ~len

(* Deterministic RLC coefficient in 1..255, identical on both peers. *)
let rlc_coef ~seed ~sid ~row =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    h := Int64.mul (Int64.logxor !h v) 0x100000001b3L
  in
  mix seed; mix sid; mix (Int64.of_int row);
  let v = Int64.to_int (Int64.logand !h 0xffL) in
  if v = 0 then 1 else v
