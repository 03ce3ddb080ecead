(* QUIC packets with simulated packet protection.

   Header layout (simplified from draft-14 but keeping the properties the
   paper relies on): a first byte carrying the form, type and the Spin Bit;
   an 8-byte destination connection ID (packets are routed to connections by
   CID, *not* by 4-tuple — the property that makes multipath possible,
   Section 4.3); an 8-byte source CID on long headers; a 4-byte packet
   number. Payload protection is simulated by an 8-byte keyed tag over header
   and payload (not cryptography, see [tag_bytes]): tampering or a wrong key
   fails authentication exactly like a real AEAD, which is what shields
   PQUIC from middlebox interference. *)

type ptype = Initial | Handshake | One_rtt

type header = {
  ptype : ptype;
  spin : bool;
  dcid : int64;
  scid : int64; (* meaningful on long headers only; 0 on short *)
  pn : int64;
}

type t = { header : header; payload : string }

let tag_len = 8

(* The packet tag — a stand-in for AES-GCM, *not* real cryptography: a
   keyed multiply-xor hash over 64-bit little-endian words, with the
   FNV-1a offset basis and prime and murmur3's [fmix64] finalizer.

     h <- (key xor 0xcbf29ce484222325) * P           P = 0x100000001b3
     h <- (h xor w) * P       for each 8-byte word w, then each tail byte
     tag = fmix64 (h xor len)

   P is odd, so multiplying by it is a bijection of Z/2^64, and every
   step above is a bijection of the state for a fixed input; the seed is
   a bijection of the key, and each word step is injective in its word.
   Hence two inputs of one length that differ only inside one aligned
   word (any single-byte change included), or one input under two
   different keys, never share a tag — a guarantee, not a likelihood.
   Everything else (several changed words, a different length) collides
   with probability about 2^-64. Words are read with the bounds-checked
   [Bytes.get_int64_le]; the state lives in an unboxed local, so a call
   allocates only its boxed result. *)
let prime = 0x100000001b3L

let tag_bytes ~key b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Packet.tag: window out of bounds";
  let h = ref (Int64.mul (Int64.logxor key 0xcbf29ce484222325L) prime) in
  let i = ref off in
  let stop = off + len in
  while !i <= stop - 8 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le b !i)) prime;
    i := !i + 8
  done;
  while !i < stop do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Bytes.get_uint8 b !i))) prime;
    incr i
  done;
  let h = Int64.logxor !h (Int64.of_int len) in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(* The string form reads the same loop through a read-only alias. *)
let tag_sub ~key s ~off ~len = tag_bytes ~key (Bytes.unsafe_of_string s) ~off ~len

let tag ~key data = tag_sub ~key data ~off:0 ~len:(String.length data)

let header_size h = match h.ptype with One_rtt -> 1 + 8 + 4 | _ -> 1 + 8 + 8 + 4

let overhead h = header_size h + tag_len

let first_byte h =
  match h.ptype with
  | Initial -> 0xc0
  | Handshake -> 0xe0
  | One_rtt -> 0x40 lor (if h.spin then 0x20 else 0)

let serialize_header buf h =
  Buffer.add_uint8 buf (first_byte h);
  Buffer.add_int64_be buf h.dcid;
  (match h.ptype with One_rtt -> () | _ -> Buffer.add_int64_be buf h.scid);
  Buffer.add_int32_be buf (Int64.to_int32 h.pn)

(* Serialize and protect — the allocating reference path; the sender's
   pooled path below must produce identical bytes. *)
let protect ~key t =
  let buf = Buffer.create (header_size t.header + String.length t.payload + tag_len) in
  serialize_header buf t.header;
  Buffer.add_string buf t.payload;
  let tag_value = tag ~key (Buffer.contents buf) in
  Buffer.add_int64_be buf tag_value;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pooled fast path: the sender reserves header room in its wire
   buffer, writes the frames, then patches the header in place and
   seals the packet with the tag — one buffer, no intermediate copy.   *)
(* ------------------------------------------------------------------ *)

(* Reserve [header_size h] bytes at the writer position; the contents are
   patched by [patch_header] once spin/pn are final. *)
let reserve_header w h = Writer.reserve w (header_size h)

(* Write the header fields into previously reserved room. Safe to call
   after the frames are written: patching never grows the buffer. *)
let patch_header w ~off h =
  let b = Writer.unsafe_bytes w in
  Bytes.set_uint8 b off (first_byte h);
  Bytes.set_int64_be b (off + 1) h.dcid;
  (match h.ptype with
  | One_rtt -> ()
  | _ -> Bytes.set_int64_be b (off + 9) h.scid);
  Bytes.set_int32_be b (off + header_size h - 4) (Int64.to_int32 h.pn)

(* Tag everything written so far and append it; the writer then holds the
   complete wire image. Byte-identical to [protect]. *)
let seal ~key w =
  let t = tag_bytes ~key (Writer.unsafe_bytes w) ~off:0 ~len:(Writer.length w) in
  Writer.i64_be w t

exception Authentication_failed
exception Malformed

(* Parse and verify without copying the payload: returns the header and
   the payload window [off, off+len) inside [s]. Raises on tampering or
   wrong key. The zero-copy receive path parses frames as views straight
   out of this window. *)
let unprotect_view ~key s =
  let n = String.length s in
  if n < 1 + 8 + 4 + tag_len then raise Malformed;
  let b0 = Char.code s.[0] in
  let long = b0 land 0x80 <> 0 in
  let ptype =
    if not long then One_rtt
    else if b0 land 0x20 <> 0 then Handshake
    else Initial
  in
  let hsize = if long then 1 + 8 + 8 + 4 else 1 + 8 + 4 in
  if n < hsize + tag_len then raise Malformed;
  let dcid = String.get_int64_be s 1 in
  let scid = if long then String.get_int64_be s 9 else 0L in
  let pn =
    Int64.logand
      (Int64.of_int32 (String.get_int32_be s (hsize - 4)))
      0xffffffffL
  in
  let spin = (not long) && b0 land 0x20 <> 0 in
  let received_tag = String.get_int64_be s (n - tag_len) in
  let expected = tag_sub ~key s ~off:0 ~len:(n - tag_len) in
  if received_tag <> expected then raise Authentication_failed;
  ({ ptype; spin; dcid; scid; pn }, hsize, n - hsize - tag_len)

(* Parse and verify; raises on tampering or wrong key. The allocating
   reference shape, delegating to [unprotect_view]. *)
let unprotect ~key s =
  let header, off, len = unprotect_view ~key s in
  ({ header; payload = String.sub s off len }, String.length s)

(* Connection keys are derived from the pair of connection IDs during the
   simulated handshake. *)
let derive_key ~client_cid ~server_cid =
  tag ~key:client_cid (Int64.to_string server_cid)
