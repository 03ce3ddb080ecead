(** QUIC packets with simulated packet protection.

    Headers keep the properties the paper relies on: a first byte carrying
    form, type and the Spin Bit; an 8-byte destination connection ID
    (packets route to connections by CID, {e not} by 4-tuple — what makes
    multipath possible); a 4-byte packet number. Protection is an 8-byte
    keyed tag over header and payload: tampering or a wrong key fails
    authentication exactly like a real AEAD — what shields PQUIC from
    middlebox interference. Not real cryptography. *)

type ptype = Initial | Handshake | One_rtt

type header = {
  ptype : ptype;
  spin : bool;
  dcid : int64;
  scid : int64; (** meaningful on long headers only *)
  pn : int64;
}

type t = { header : header; payload : string }

val tag_len : int
val header_size : header -> int
val overhead : header -> int

val protect : key:int64 -> t -> string
(** Serialize and protect — the allocating reference path; {!seal} on a
    writer must produce identical bytes (differentially tested). *)

(** {2 Pooled fast path}

    The sender reserves header room in its wire buffer, writes frames,
    patches the header in place once spin/pn are final, and seals with
    the tag — one buffer, no intermediate copy. *)

val reserve_header : Writer.t -> header -> int
(** Reserve [header_size h] bytes; returns their offset. *)

val patch_header : Writer.t -> off:int -> header -> unit
(** Fill previously reserved header room. Never grows the buffer, so it
    is safe after the frames are written. *)

val seal : key:int64 -> Writer.t -> unit
(** Tag everything written so far and append it; the writer then holds
    the complete wire image, byte-identical to {!protect}. *)

val tag : key:int64 -> string -> int64
(** The keyed packet tag — a stand-in for AES-GCM, {e not} cryptography: a
    multiply-xor hash over 64-bit little-endian words (FNV-1a basis and
    prime), the tail bytes one at a time, then the length and murmur3's
    [fmix64] finalizer. Every step is a bijection of the 64-bit state, so
    two equal-length inputs that differ only within one aligned 8-byte
    word (any single-byte change included), or one input under two
    different keys, {e always} get different tags; other changes collide
    with probability about 2{^-64}. Allocates only the boxed result. *)

val tag_sub : key:int64 -> string -> off:int -> len:int -> int64
(** [tag] of the window [off, off+len) of a string, without copying it;
    words are aligned from [off].
    @raise Invalid_argument if the window is not inside the string. *)

val tag_bytes : key:int64 -> Bytes.t -> off:int -> len:int -> int64
(** {!tag_sub} on a byte buffer — the sender tags its wire buffer in
    place. @raise Invalid_argument if the window is not inside the buffer. *)

exception Authentication_failed
exception Malformed

val unprotect : key:int64 -> string -> t * int
(** Parse and verify; returns the packet and bytes consumed.
    @raise Authentication_failed on tampering or a wrong key
    @raise Malformed on a truncated packet *)

val unprotect_view : key:int64 -> string -> header * int * int
(** Parse and verify without copying: returns the header and the payload
    window [(off, len)] inside the wire string — the zero-copy receive
    path parses frame views straight out of that window. Raises exactly
    as {!unprotect} does. *)

val derive_key : client_cid:int64 -> server_cid:int64 -> int64
(** The 1-RTT key both peers derive from the connection IDs exchanged in
    the (simulated) handshake. *)
