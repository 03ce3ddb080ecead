(* The GF(256) field arithmetic used by the FEC plugin's random linear
   coding, now a standalone library shared by the host helpers and the
   plugin-side solver. *)

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let gf_field_axioms =
  qtest ~count:500 "GF(256) field axioms"
    QCheck2.Gen.(triple (int_range 0 255) (int_range 0 255) (int_range 0 255))
    (fun (a, b, c) ->
      Gf.mul a b = Gf.mul b a
      && Gf.mul a (Gf.mul b c) = Gf.mul (Gf.mul a b) c
      && Gf.mul a 1 = a
      && Gf.mul a 0 = 0
      && (* distributivity over xor (field addition) *)
      Gf.mul a (b lxor c) = Gf.mul a b lxor Gf.mul a c)

let gf_inverse =
  qtest ~count:255 "multiplicative inverses" QCheck2.Gen.(int_range 1 255)
    (fun a -> Gf.mul a (Gf.inv a) = 1)

let gf_mul_inv_roundtrip =
  (* decoding divides by the pivot coefficient: b -> b*a -> /a must be
     the identity for every nonzero a *)
  qtest ~count:400 "multiply then divide round-trips"
    QCheck2.Gen.(pair (int_range 1 255) (int_range 0 255))
    (fun (a, b) -> Gf.mul (Gf.mul b a) (Gf.inv a) = b)

let test_gf_known_products () =
  (* fixed points of the AES polynomial 0x11b *)
  check Alcotest.int "0x53 * 0xca" 0x01 (Gf.mul 0x53 0xca);
  check Alcotest.int "2 * 128" 0x1b (Gf.mul 2 0x80);
  check Alcotest.int "inv 1" 1 (Gf.inv 1);
  check Alcotest.int "inv 0 (convention)" 0 (Gf.inv 0)

let test_gf_pow () =
  check Alcotest.int "a^0" 1 (Gf.pow 7 0);
  check Alcotest.int "a^1" 7 (Gf.pow 7 1);
  check Alcotest.int "a^2 = a*a" (Gf.mul 7 7) (Gf.pow 7 2)

(* dst ^= coef * src, byte by byte: the specification of [Gf.mulvec]
   the parity tests below check the word-parallel kernel against. *)
let mulvec_ref ~coef ~src ~dst ~len =
  let coef = coef land 0xff in
  for k = 0 to len - 1 do
    Bytes.set_uint8 dst k
      (Bytes.get_uint8 dst k lxor Gf.mul coef (Bytes.get_uint8 src k))
  done

(* the word-parallel XOR-accumulate kernel must agree with the byte-wise
   specification on every coefficient, length (odd tails included) and
   content — lengths straddle the 8-byte word boundary on purpose *)
let mulvec_parity =
  qtest ~count:500 "mulvec matches byte-wise reference"
    QCheck2.Gen.(
      triple (int_range 0 255) (int_range 0 40)
        (pair (list_size (int_range 0 40) (int_range 0 255))
           (list_size (int_range 0 40) (int_range 0 255))))
    (fun (coef, len, (src_l, dst_l)) ->
      let of_list l pad =
        let b = Bytes.make pad '\000' in
        List.iteri (fun i v -> if i < pad then Bytes.set_uint8 b i v) l;
        b
      in
      let n = max len (max (List.length src_l) (List.length dst_l)) in
      let src = of_list src_l n in
      let d1 = of_list dst_l n in
      let d2 = Bytes.copy d1 in
      let len = min len n in
      Gf.mulvec ~coef ~src ~dst:d1 ~len;
      mulvec_ref ~coef ~src ~dst:d2 ~len;
      Bytes.equal d1 d2)

let test_mulvec_fixed () =
  (* 1300-byte FEC symbol, the production shape: whole words plus a
     4-byte tail *)
  let src = Bytes.init 1300 (fun i -> Char.chr (i * 7 land 0xff)) in
  let d1 = Bytes.init 1300 (fun i -> Char.chr (i * 13 land 0xff)) in
  let d2 = Bytes.copy d1 in
  Gf.mulvec ~coef:0x53 ~src ~dst:d1 ~len:1300;
  mulvec_ref ~coef:0x53 ~src ~dst:d2 ~len:1300;
  check Alcotest.bool "1300B parity" true (Bytes.equal d1 d2);
  (* coef 0 and 1 are the identity-shaped edges *)
  let d3 = Bytes.copy d1 in
  Gf.mulvec ~coef:0 ~src ~dst:d3 ~len:1300;
  check Alcotest.bool "coef 0 is a no-op" true (Bytes.equal d1 d3);
  Gf.mulvec ~coef:1 ~src ~dst:d3 ~len:1300;
  let d4 = Bytes.copy d1 in
  mulvec_ref ~coef:1 ~src ~dst:d4 ~len:1300;
  check Alcotest.bool "coef 1 xors src" true (Bytes.equal d3 d4);
  check Alcotest.bool "len overrun rejected" true
    (try
       Gf.mulvec ~coef:2 ~src ~dst:(Bytes.create 4) ~len:8;
       false
     with Invalid_argument _ -> true)

(* the coefficient stream is deterministic: both FEC peers regenerate it *)
let rlc_coef_deterministic =
  qtest ~count:200 "rlc coefficients deterministic and nonzero"
    QCheck2.Gen.(triple (map Int64.of_int (int_range 0 1000000))
                   (map Int64.of_int (int_range 0 1000000)) (int_range 0 10))
    (fun (seed, sid, row) ->
      let a = Gf.rlc_coef ~seed ~sid ~row in
      let b = Gf.rlc_coef ~seed ~sid ~row in
      a = b && a >= 1 && a <= 255)

let tests =
  [
    ("gf256", [
      Alcotest.test_case "known products" `Quick test_gf_known_products;
      Alcotest.test_case "pow" `Quick test_gf_pow;
      gf_field_axioms;
      gf_inverse;
      gf_mul_inv_roundtrip;
      mulvec_parity;
      Alcotest.test_case "mulvec fixed shapes" `Quick test_mulvec_fixed;
      rlc_coef_deterministic;
    ]);
  ]
