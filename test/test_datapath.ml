(* Datapath regression tests for the pooled zero-copy send path.

   The fast encoders (arithmetic frame sizes, direct-to-writer frame
   encoding, native-int varints, ACKs written straight from the range
   set, header-then-blit stream/crypto/plugin writes, in-place packet
   sealing, the word-wise packet tag) must stay byte-identical to the
   allocating reference paths they replaced (the frame codec in
   frame_ref.ml, [Packet.protect], [tag_reference]) — the experiment figures
   are bit-for-bit reproductions and any wire drift would silently skew
   them. Packet protection must reject every single-byte change,
   truncation and wrong key, and allocate nothing but its result. The
   writer free list must balance acquires and releases across whole
   transfers, and the engine's per-packet allocation rate is fenced with
   a ceiling so the zero-copy datapath cannot rot unnoticed. *)

module F = Quic.Frame
module W = Quic.Writer
module P = Quic.Packet

let check = Alcotest.check

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------- frame generators -------------------------- *)

(* A length or gap that lands on either side of a varint width boundary
   (63 / 16383 / 2^30 - 1) as often as it stays small. *)
let gen_width_crossing =
  let open QCheck2.Gen in
  oneof
    [
      int_range 0 50;
      map2 (fun b d -> b + d) (oneofl [ 63; 16383; (1 lsl 30) - 1 ]) (int_range (-2) 2);
      int_range 0 (1 lsl 31);
    ]

(* 1-300 ranges, so the wire's 64-range cap is crossed both ways and the
   view, truncation and corruption differentials walk long range lists. *)
let gen_ack =
  let open QCheck2.Gen in
  map3
    (fun largest delay spec ->
      (* room below [largest] for every gap and length drawn *)
      let largest = Int64.of_int (largest + (List.length spec * (1 lsl 33))) in
      (* descending disjoint ranges: each gap leaves the mandatory
         prev_first - last - 2 >= 0 slack of the wire encoding *)
      let rec go last spec acc =
        match spec with
        | [] -> List.rev acc
        | (len, gap) :: rest ->
          let first = Int64.sub last (Int64.of_int len) in
          let next_last = Int64.sub first (Int64.of_int (gap + 2)) in
          go next_last rest ((first, last) :: acc)
      in
      F.Ack
        {
          largest;
          delay_us = Int64.of_int delay;
          ranges = go largest spec [];
        })
    (int_range 0 1_000_000) gen_width_crossing
    (list_size
       (oneof [ int_range 1 9; int_range 1 300 ])
       (pair gen_width_crossing gen_width_crossing))

(* Every constructor, including the data-bearing frames the sender
   encodes through the zero-copy header writers. *)
let gen_frame =
  let open QCheck2.Gen in
  let str = string_size ~gen:printable (int_range 0 200) in
  let off = map Int64.of_int (int_range 0 2_000_000) in
  oneof
    [
      map (fun n -> F.Padding (n + 1)) (int_range 0 20);
      return F.Ping;
      return F.Handshake_done;
      gen_ack;
      map2 (fun offset data -> F.Crypto { offset; data }) off str;
      map3
        (fun id (offset, fin) data -> F.Stream { id; offset; fin; data })
        (int_range 0 1000) (pair off bool) str;
      map (fun v -> F.Max_data v) off;
      map2 (fun id max -> F.Max_stream_data { id; max }) (int_range 0 1000) off;
      map2
        (fun code reason -> F.Connection_close { code; reason })
        (int_range 0 100) str;
      map (fun v -> F.Path_challenge (Int64.of_int v)) (int_range 0 max_int);
      map (fun v -> F.Path_response (Int64.of_int v)) (int_range 0 max_int);
      map2
        (fun seq cid ->
          F.New_connection_id { seq = Int64.of_int seq; cid = Int64.of_int cid })
        (int_range 0 100_000) (int_range 0 max_int);
      map
        (fun seq -> F.Retire_connection_id (Int64.of_int seq))
        (int_range 0 100_000);
      map2
        (fun plugin formula -> F.Plugin_validate { plugin; formula })
        str str;
      map2 (fun plugin proof -> F.Plugin_proof { plugin; proof }) str str;
      map3
        (fun plugin (offset, fin) data ->
          F.Plugin_chunk { plugin; offset; fin; data })
        str (pair off bool) str;
      map2
        (fun ftype raw -> F.Unknown { ftype; raw })
        (int_range 0x30 0x5f) str;
    ]

(* ----------------------- reader differentials ------------------------ *)

module R = Quic.Reader

(* Outcome of one parse step, comparable across the reference parser and
   the view parser: the materialized frame plus the cursor advance, or
   the exception the parser raised. *)
let reference_step s pos =
  match Frame_ref.parse s pos with
  | f, next -> Ok (f, next)
  | exception Quic.Varint.Truncated -> Error "truncated"
  | exception Invalid_argument _ -> Error "invalid"

let view_step s r =
  match F.parse_view r with
  | v -> Ok (Frame_ref.of_view s v, R.pos r)
  | exception Quic.Varint.Truncated -> Error "truncated"
  | exception Invalid_argument _ -> Error "invalid"

let step_eq = function
  | Ok (f, n), Ok (f', n') -> f = f' && n = n'
  | Error e, Error e' -> e = e'
  | _ -> false

(* Well-formed frame sequences: [parse_view] must agree with the
   reference [Frame_ref.parse] on every step — same frame once
   materialized, same cursor advance — all the way to the end of the
   payload. *)
let view_matches_parse =
  qtest ~count:500 "Frame.parse_view = parse"
    QCheck2.Gen.(list_size (int_range 1 8) gen_frame)
    (fun frames ->
      let s = String.concat "" (List.map Frame_ref.to_string frames) in
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:(String.length s);
      let ok = ref true in
      let pos = ref 0 in
      while !ok && !pos < String.length s do
        let reference = reference_step s !pos in
        let viewed = view_step s r in
        ok := step_eq (reference, viewed);
        match reference with
        | Ok (_, next) -> pos := next
        | Error _ -> pos := String.length s
      done;
      R.release r;
      !ok)

(* Truncated input: parsing through a reader whose [limit] clips the
   datagram must behave exactly like the reference parser on a copied
   prefix of the same length — same value or same exception. This is the
   window-bounds property the zero-copy receive path rests on. *)
let view_truncation_matches =
  qtest ~count:500 "parse_view at limit = parse of prefix"
    QCheck2.Gen.(pair gen_frame (int_range 0 1000))
    (fun (f, cut) ->
      let s = Frame_ref.to_string f in
      let cut = cut mod (String.length s + 1) in
      let reference = reference_step (String.sub s 0 cut) 0 in
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:cut;
      let viewed = view_step s r in
      R.release r;
      step_eq (reference, viewed))

(* Corrupted input: on arbitrary bytes both parsers must still agree —
   value and cursor when they accept, exception when they reject. *)
let view_corruption_matches =
  qtest ~count:1000 "parse_view = parse on random bytes"
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:(String.length s);
      let viewed = view_step s r in
      R.release r;
      step_eq (reference_step s 0, viewed))

(* Corrupted frames: well-formed encodings (ACKs of up to 300 ranges
   among them) with a few bytes overwritten, so the damage lands inside
   the structures — length prefixes, range counts, range varints — that
   random bytes rarely spell. *)
let view_damaged_frame_matches =
  qtest ~count:1000 "parse_view = parse on damaged frames"
    QCheck2.Gen.(
      pair gen_frame (list_size (int_range 1 4) (pair nat (int_range 0 255))))
    (fun (f, hits) ->
      let b = Bytes.of_string (Frame_ref.to_string f) in
      let n = Bytes.length b in
      List.iter (fun (i, v) -> Bytes.set b (i mod n) (Char.chr v)) hits;
      let s = Bytes.to_string b in
      let r = R.acquire () in
      R.reset r s ~pos:0 ~limit:n;
      let viewed = view_step s r in
      R.release r;
      step_eq (reference_step s 0, viewed))

(* ---------------------- encoder differentials ------------------------ *)

let size_matches_wire_size =
  qtest "Frame.size = wire_size" gen_frame (fun f ->
      F.size f = Frame_ref.wire_size f)

let write_matches_serialize =
  qtest "Frame.write = serialize" gen_frame (fun f ->
      let buf = Buffer.create 256 in
      Frame_ref.serialize buf f;
      let w = W.create () in
      F.write w f;
      W.contents w = Buffer.contents buf
      && F.to_string f = Frame_ref.to_string f)

(* Native-int varints: byte-identical to the reference [Varint.write] at
   and around every width boundary, and rejecting exactly the values it
   rejects (for native ints, the negatives). [Writer.varint] likewise on
   int64s, where values past 2^62 - 1 overflow too. *)
let gen_varint_probe =
  let open QCheck2.Gen in
  let boundaries =
    [ 0; 63; 64; 16383; 16384; (1 lsl 30) - 1; 1 lsl 30; max_int; min_int ]
  in
  oneof
    [
      map2 (fun b d -> b + d) (oneofl boundaries) (int_range (-3) 3);
      int;
      map (fun k -> 1 lsl k) (int_range 0 61);
    ]

let encode_ref v =
  let buf = Buffer.create 8 in
  match Quic.Varint.write buf v with
  | () -> Ok (Buffer.contents buf)
  | exception Quic.Varint.Overflow -> Error ()

let encode_writer f v =
  let w = W.create () in
  match f w v with
  | () -> Ok (W.contents w)
  | exception Quic.Varint.Overflow -> Error ()

let varint_int_matches =
  qtest ~count:2000 "Writer.varint_int = Varint.write" gen_varint_probe
    (fun v ->
      encode_writer W.varint_int v = encode_ref (Int64.of_int v)
      && encode_writer W.varint (Int64.of_int v) = encode_ref (Int64.of_int v))

let varint_int64_matches =
  qtest ~count:1000 "Writer.varint = Varint.write on int64"
    QCheck2.Gen.(
      oneof
        [
          int64;
          map2
            (fun b d -> Int64.add b (Int64.of_int d))
            (oneofl [ 0L; Quic.Varint.max_value; Int64.max_int; Int64.min_int ])
            (int_range (-3) 3);
        ])
    (fun v -> encode_writer W.varint v = encode_ref v)

(* A range set drawn as runs of consecutive pns at random places: gaps
   cross every varint width, run lengths cross the 1- and 2-byte ones,
   and the set often holds more ranges than the wire cap. *)
let gen_ackranges =
  let open QCheck2.Gen in
  map
    (fun runs ->
      let t = Quic.Ackranges.create () in
      List.iter
        (fun (start, len) ->
          for pn = start to start + len - 1 do
            Quic.Ackranges.add t (Int64.of_int pn)
          done)
        runs;
      t)
    (list_size (int_range 1 120)
       (pair
          (oneof [ int_range 0 5000; int_range 0 (1 lsl 40) ])
          (oneof [ int_range 1 5; int_range 60 70; int_range 16380 16390 ])))

(* [write_ack] from the flat set must equal the reference encoder fed the
   newest [max_ranges] ranges as an [Ack], byte for byte. *)
let write_ack_matches =
  qtest ~count:150 "Frame.write_ack = write (Ack newest ranges)"
    QCheck2.Gen.(
      triple gen_ackranges
        (oneof [ return 64; int_range 1 80 ])
        (oneof [ int_range 0 100; int_range 0 (1 lsl 40) ]))
    (fun (acks, max_ranges, delay_us) ->
      let n = min max_ranges (Quic.Ackranges.count acks) in
      let ranges =
        List.init n (fun i ->
            ( Int64.of_int (Quic.Ackranges.first acks i),
              Int64.of_int (Quic.Ackranges.last acks i) ))
      in
      let reference =
        F.Ack
          {
            largest = Int64.of_int (Quic.Ackranges.last acks 0);
            delay_us = Int64.of_int delay_us;
            ranges;
          }
      in
      let w = W.create () in
      W.string w "hdr";
      F.write_ack w acks ~max_ranges ~delay_us;
      W.contents w = "hdr" ^ Frame_ref.to_string reference)

let stream_header_matches =
  qtest "stream header writer = serialize"
    QCheck2.Gen.(
      tup4 (int_range 0 1000)
        (map Int64.of_int (int_range 0 2_000_000))
        bool
        (string_size ~gen:printable (int_range 0 300)))
    (fun (id, offset, fin, data) ->
      let len = String.length data in
      let reference = Frame_ref.to_string (F.Stream { id; offset; fin; data }) in
      let w = W.create () in
      F.write_stream_header w ~id ~offset ~fin ~len;
      W.string w data;
      W.contents w = reference
      && F.stream_header_size ~id ~offset ~len + len = String.length reference)

let crypto_header_matches =
  qtest "crypto header writer = serialize"
    QCheck2.Gen.(
      pair
        (map Int64.of_int (int_range 0 2_000_000))
        (string_size ~gen:printable (int_range 0 300)))
    (fun (offset, data) ->
      let len = String.length data in
      let reference = Frame_ref.to_string (F.Crypto { offset; data }) in
      let w = W.create () in
      F.write_crypto_header w ~offset ~len;
      W.string w data;
      W.contents w = reference
      && F.crypto_header_size ~offset ~len + len = String.length reference)

let plugin_chunk_header_matches =
  qtest "plugin chunk header writer = serialize"
    QCheck2.Gen.(
      tup4
        (string_size ~gen:printable (int_range 0 40))
        (map Int64.of_int (int_range 0 2_000_000))
        bool
        (string_size ~gen:printable (int_range 0 300)))
    (fun (plugin, offset, fin, data) ->
      let len = String.length data in
      let reference =
        Frame_ref.to_string (F.Plugin_chunk { plugin; offset; fin; data })
      in
      let w = W.create () in
      F.write_plugin_chunk_header w ~plugin ~offset ~fin ~len;
      W.string w data;
      W.contents w = reference
      && F.plugin_chunk_header_size ~plugin ~offset + len
         = String.length reference)

(* Whole packets: reserve header room, write a random frame mix, patch
   the header, seal — must equal serialize-then-protect byte for byte. *)
let seal_matches_protect =
  qtest ~count:200 "Packet.seal = protect"
    QCheck2.Gen.(
      tup4 (int_range 0 2)
        (tup4 bool (map Int64.of_int (int_range 0 max_int))
           (map Int64.of_int (int_range 0 max_int))
           (map Int64.of_int (int_range 0 0xFFFFFFF)))
        (map Int64.of_int (int_range 0 max_int))
        (list_size (int_range 1 6) gen_frame))
    (fun (pt, (spin, dcid, scid, pn), key, frames) ->
      let ptype =
        match pt with 0 -> P.Initial | 1 -> P.Handshake | _ -> P.One_rtt
      in
      let header = { P.ptype; spin; dcid; scid; pn } in
      let payload = String.concat "" (List.map Frame_ref.to_string frames) in
      let reference = P.protect ~key { P.header; payload } in
      let w = W.acquire () in
      let hoff = P.reserve_header w header in
      List.iter (F.write w) frames;
      P.patch_header w ~off:hoff header;
      P.seal ~key w;
      let got = W.contents w in
      W.release w;
      got = reference)

(* The tag oracle: the specification of [Packet.tag] written
   byte-at-a-time on boxed [Int64]s, assembling each little-endian word
   from its bytes, so it shares no code with the word-reading fast path. *)
let tag_reference ~key data =
  let p = 0x100000001b3L in
  let n = String.length data in
  let byte i = Int64.of_int (Char.code data.[i]) in
  let h = ref (Int64.mul (Int64.logxor key 0xcbf29ce484222325L) p) in
  for wi = 0 to (n / 8) - 1 do
    let w = ref 0L in
    for j = 0 to 7 do
      w := Int64.logor !w (Int64.shift_left (byte ((wi * 8) + j)) (8 * j))
    done;
    h := Int64.mul (Int64.logxor !h !w) p
  done;
  for i = n / 8 * 8 to n - 1 do
    h := Int64.mul (Int64.logxor !h (byte i)) p
  done;
  let fmix k =
    let shift k = Int64.logxor k (Int64.shift_right_logical k 33) in
    let k = Int64.mul (shift k) 0xff51afd7ed558ccdL in
    let k = Int64.mul (shift k) 0xc4ceb9fe1a85ec53L in
    shift k
  in
  fmix (Int64.logxor !h (Int64.of_int n))

let tag_matches_reference =
  qtest "Packet.tag = tag_reference"
    QCheck2.Gen.(pair int64 (string_size (int_range 0 2000)))
    (fun (key, data) -> P.tag ~key data = tag_reference ~key data)

let tag_sub_consistent =
  qtest "tag_sub/tag_bytes = tag of slice"
    QCheck2.Gen.(
      tup3 int64 (string_size (int_range 0 500)) (pair nat nat))
    (fun (key, s, (a, b)) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod n in
      let len = if n - off = 0 then 0 else b mod (n - off) in
      let slice = String.sub s off len in
      P.tag_sub ~key s ~off ~len = P.tag ~key slice
      && P.tag_bytes ~key (Bytes.of_string s) ~off ~len = P.tag ~key slice)

(* A window outside the buffer is rejected before any byte is read. *)
let test_tag_window_checked () =
  let s = String.make 16 'x' in
  List.iter
    (fun (off, len) ->
      let raises f =
        match f () with
        | exception Invalid_argument _ -> true
        | (_ : int64) -> false
      in
      let name = Printf.sprintf "window off=%d len=%d" off len in
      Alcotest.(check bool) (name ^ " (string)") true
        (raises (fun () -> P.tag_sub ~key:1L s ~off ~len));
      Alcotest.(check bool) (name ^ " (bytes)") true
        (raises (fun () -> P.tag_bytes ~key:1L (Bytes.of_string s) ~off ~len)))
    [ (-1, 4); (0, -1); (0, 17); (9, 8); (16, 1); (17, 0); (max_int, 2) ];
  check Alcotest.int64 "the full window is accepted" (P.tag ~key:1L s)
    (P.tag_sub ~key:1L s ~off:0 ~len:16)

(* Tamper evidence over the whole packet: under every alteration below
   [unprotect_view] must raise, never return. A single-byte change stays
   inside one aligned word, and a wrong key changes the seed, so those
   are rejected by construction (see [Packet.tag]); truncations rely on
   the tag's length and position. Payloads are random or all-zero (QUIC
   PADDING): a tag blind to the length cannot tell a zero-filled word from
   a zero tail byte, so cutting a padded packet short while keeping its
   tag exposes it. *)
let tamper_evident =
  qtest ~count:60 "every single-byte change, truncation and wrong key fails"
    QCheck2.Gen.(
      tup4 (int_range 0 2) int64
        (pair (int_range 0 1400) bool)
        (pair (int_range 1 255) int64))
    (fun (pt, key, (plen, zero), (delta, other)) ->
      let ptype =
        match pt with 0 -> P.Initial | 1 -> P.Handshake | _ -> P.One_rtt
      in
      let header = { P.ptype; spin = plen land 1 = 0; dcid = 7L; scid = 9L;
                     pn = Int64.of_int plen } in
      let payload =
        String.init plen (fun i ->
          if zero then '\000' else Char.chr ((i * 131 + delta) land 0xff))
      in
      let wire = P.protect ~key { P.header; payload } in
      let n = String.length wire in
      let rejected ?(key = key) s =
        match P.unprotect_view ~key s with
        | exception (P.Authentication_failed | P.Malformed) -> true
        | _ -> false
      in
      let flip i d =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor d) else c) wire
      in
      let ok = ref (not (rejected wire)) in
      for i = 0 to n - 1 do
        if not (rejected (flip i (1 + ((delta + i) mod 255)))) then ok := false
      done;
      for m = 0 to n - 1 do
        if not (rejected (String.sub wire 0 m)) then ok := false
      done;
      let tag = String.sub wire (n - P.tag_len) P.tag_len in
      for m = 0 to n - P.tag_len - 1 do
        if not (rejected (String.sub wire 0 m ^ tag)) then ok := false
      done;
      List.iter
        (fun k -> if k <> key && not (rejected ~key:k wire) then ok := false)
        (other :: Int64.logxor key 1L :: Int64.neg key
         :: List.init 64 (fun b -> Int64.logxor key (Int64.shift_left 1L b)));
      !ok)

(* Allocation fence for packet protection: tagging a window or sealing a
   1,252-byte packet allocates at most the boxed [int64] result (3 minor
   words on 64-bit), whatever the length. *)
let test_tag_allocation () =
  let iters = 10_000 in
  let per_call f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  let fence name words =
    if words > 3. then
      Alcotest.failf "%s allocates %.2f minor words per call (ceiling 3)" name
        words
  in
  let s = String.init 1252 (fun i -> Char.chr (i land 0xff)) in
  List.iter
    (fun len ->
      fence
        (Printf.sprintf "tag_sub len=%d" len)
        (per_call (fun () -> ignore (P.tag_sub ~key:5L s ~off:0 ~len))))
    [ 0; 1; 7; 8; 9; 63; 1252 ];
  let w = W.create ~size:2048 () in
  let header = { P.ptype = P.One_rtt; spin = false; dcid = 3L; scid = 0L; pn = 1L } in
  let payload = Bytes.make (1252 - P.overhead header) '\001' in
  fence "seal of a 1252-byte packet"
    (per_call (fun () ->
       W.reset w;
       let hoff = P.reserve_header w header in
       W.subbytes w payload ~off:0 ~len:(Bytes.length payload);
       P.patch_header w ~off:hoff header;
       P.seal ~key:5L w))

(* Allocation fence for the ACK path: encoding a 64-range ACK from the
   range set allocates nothing, and parsing it as a view allocates at
   most the [V_ack] block (six fields and a header: 7 words). *)
let test_ack_allocation () =
  let iters = 10_000 in
  let per_call f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  let acks = Quic.Ackranges.create () in
  (* 100 ranges with mixed gap widths, of which the wire takes 64 *)
  for k = 0 to 99 do
    let start = (k * k * 97) + (k * 5) in
    for pn = start to start + (k mod 4) do
      Quic.Ackranges.add acks (Int64.of_int pn)
    done
  done;
  check Alcotest.int "more ranges than the wire cap" 100
    (Quic.Ackranges.count acks);
  let w = W.create ~size:2048 () in
  let encode () =
    W.reset w;
    F.write_ack w acks ~max_ranges:64 ~delay_us:1234
  in
  let words = per_call encode in
  if words > 0. then
    Alcotest.failf "write_ack allocates %.2f minor words per 64-range ACK"
      words;
  encode ();
  let wire = W.contents w in
  let r = R.create () in
  let parse () =
    R.reset r wire ~pos:0 ~limit:(String.length wire);
    match F.parse_view r with
    | F.V_ack { count; _ } -> assert (count = 63)
    | _ -> assert false
  in
  let words = per_call parse in
  if words > 7. then
    Alcotest.failf "parse_view allocates %.2f minor words per 64-range ACK"
      words

(* --------------------------- pool balance ---------------------------- *)

let test_writer_pool () =
  let out0 = W.outstanding () in
  let a = W.acquire () in
  let b = W.acquire () in
  W.string a "x";
  W.string b "yz";
  check Alcotest.int "outstanding tracks acquires" (out0 + 2) (W.outstanding ());
  W.release a;
  W.release b;
  check Alcotest.int "releases balance" out0 (W.outstanding ());
  let reused0 = W.reused () in
  let c = W.acquire () in
  check Alcotest.int "served from the free list" (reused0 + 1) (W.reused ());
  check Alcotest.int "recycled writer is reset" 0 (W.length c);
  W.release c

let test_reader_pool () =
  let out0 = R.outstanding () in
  let a = R.acquire () in
  let b = R.acquire () in
  R.reset a "abc" ~pos:0 ~limit:3;
  R.reset b "defg" ~pos:1 ~limit:4;
  check Alcotest.int "outstanding tracks acquires" (out0 + 2) (R.outstanding ());
  check Alcotest.int "cursor reads through the window" (Char.code 'a') (R.u8 a);
  R.release a;
  R.release b;
  check Alcotest.int "releases balance" out0 (R.outstanding ());
  let reused0 = R.reused () in
  let c = R.acquire () in
  check Alcotest.int "served from the free list" (reused0 + 1) (R.reused ());
  check Alcotest.int "recycled reader is empty" 0 (R.remaining c);
  R.release c

let test_memory_pool_balance () =
  let pool = Pluginop.Memory_pool.create ~size:4096 () in
  check Alcotest.int "fresh pool empty" 0 (Pluginop.Memory_pool.allocated_bytes pool);
  let offs =
    List.filter_map (fun n -> Pluginop.Memory_pool.alloc pool n) [ 10; 64; 100; 200 ]
  in
  check Alcotest.int "all allocations served" 4 (List.length offs);
  Alcotest.(check bool)
    "bytes accounted" true
    (Pluginop.Memory_pool.allocated_bytes pool > 0);
  List.iter
    (fun o ->
      Alcotest.(check bool) "free accepted" true (Pluginop.Memory_pool.free pool o))
    offs;
  check Alcotest.int "returns balance to zero" 0
    (Pluginop.Memory_pool.allocated_bytes pool)

(* ----------------------- whole-transfer fences ----------------------- *)

let transfer ~size =
  let params = { Netsim.Topology.d_ms = 5.; bw_mbps = 50.; loss = 0. } in
  let topo = Netsim.Topology.single_path ~seed:7L params in
  Exp.Runner.quic_transfer ~topo ~plugins:[] ~to_inject:[] ~multipath:false
    ~size ()

let packets_of r =
  r.Exp.Runner.client_stats.Pquic.Connection.pkts_sent
  + (match r.Exp.Runner.server_stats with
    | Some s -> s.Pquic.Connection.pkts_sent
    | None -> 0)

let test_transfer_pool_balance () =
  let out0 = W.outstanding () in
  (match transfer ~size:(200 * 1024) with
  | None -> Alcotest.fail "transfer did not complete"
  | Some _ -> ());
  check Alcotest.int "writer pool balanced after a transfer" out0
    (W.outstanding ());
  Alcotest.(check bool) "writers recycled during the transfer" true (W.reused () > 0)

(* Allocation fence: the pooled datapath brought the engine to roughly
   3k minor words per packet end to end (send + receive + recovery, in a
   no-flambda build where Int64 temporaries box); the pre-pooling
   datapath sat near 8k. Encoding ACKs from the flat range set and
   processing them off the wire took it from ~1.39k to ~1.10k. The
   ceiling is set with ~2x headroom so noisy GC accounting cannot flake,
   while a return of the range lists or per-packet copies would still
   trip it. *)
let test_minor_words_per_packet () =
  ignore (transfer ~size:(64 * 1024));
  (* warm-up: connection tables, writer pool *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  match transfer ~size:(512 * 1024) with
  | None -> Alcotest.fail "transfer did not complete"
  | Some r ->
    let words = Gc.minor_words () -. w0 in
    let per_pkt = words /. float_of_int (max 1 (packets_of r)) in
    if per_pkt >= 2200. then
      Alcotest.failf "minor words per packet %.0f over the 2200 ceiling" per_pkt

(* Receive-side allocation fence, on the engine's own [rx_profile]
   counters (wall spent inside [process_datagram] plus the minor words it
   allocated): the zero-copy receive path parses frames as views; with
   ACK ranges left on the wire ([V_ack]) it sits near 390 minor words per
   received packet, against ~530 when ACKs parsed into range lists and
   ~3k for the copying parser. Ceiling at ~2x so GC-accounting noise
   cannot flake while a return of either would still trip it. *)
let test_rx_minor_words_per_packet () =
  ignore (transfer ~size:(64 * 1024));
  (* warm-up: connection tables, writer/reader pools *)
  Gc.minor ();
  let open Pquic.Conn_types in
  rx_profile_reset ();
  rx_profile := true;
  let r = transfer ~size:(512 * 1024) in
  rx_profile := false;
  match r with
  | None -> Alcotest.fail "transfer did not complete"
  | Some _ ->
    if !rx_packets = 0 then Alcotest.fail "rx profile saw no packets";
    let per_pkt = !rx_minor_words /. float_of_int !rx_packets in
    if per_pkt >= 800. then
      Alcotest.failf "rx minor words per packet %.0f over the 800 ceiling"
        per_pkt

let tests =
  [
    ( "reader",
      [
        view_matches_parse;
        view_truncation_matches;
        view_corruption_matches;
        view_damaged_frame_matches;
      ] );
    ( "encoders",
      [
        size_matches_wire_size;
        write_matches_serialize;
        varint_int_matches;
        varint_int64_matches;
        write_ack_matches;
        stream_header_matches;
        crypto_header_matches;
        plugin_chunk_header_matches;
        seal_matches_protect;
        tag_matches_reference;
        tag_sub_consistent;
      ] );
    ( "protection",
      [
        Alcotest.test_case "tag window is bounds-checked" `Quick
          test_tag_window_checked;
        tamper_evident;
        Alcotest.test_case "tag and seal allocate only the result" `Quick
          test_tag_allocation;
      ] );
    ( "pool",
      [
        Alcotest.test_case "writer free list balances" `Quick test_writer_pool;
        Alcotest.test_case "reader free list balances" `Quick test_reader_pool;
        Alcotest.test_case "memory pool returns balance" `Quick
          test_memory_pool_balance;
        Alcotest.test_case "writer pool balanced across transfer" `Quick
          test_transfer_pool_balance;
      ] );
    ( "alloc",
      [
        Alcotest.test_case "ACK encode and view parse allocation" `Quick
          test_ack_allocation;
        Alcotest.test_case "minor words per packet ceiling" `Slow
          test_minor_words_per_packet;
        Alcotest.test_case "rx minor words per packet ceiling" `Slow
          test_rx_minor_words_per_packet;
      ] );
  ]
