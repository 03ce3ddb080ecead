(* Pooled wire-buffer cursor: the receive-side mirror of [Writer]. A
   reader borrows the received datagram string and walks it between
   [pos] and [limit]; frame parsing through it yields *views* — offsets
   and lengths into the datagram — instead of [String.sub] copies, and
   the single copy left on the receive path is the blit into [Recvbuf]
   at the reassembly boundary.

   Every primitive bounds-checks against [limit], not the string length:
   the payload window of a protected packet ends before the
   authentication tag, and a read running past [limit] must fail exactly
   like the reference parser (test/frame_ref.ml) fails on a truncated
   [String.sub] payload — so all reads raise [Varint.Truncated] at the
   window edge.

   Readers are recycled through a free list ([acquire]/[release])
   bracketing each datagram, the same fixed-footprint discipline as
   [Writer] on the send side.

   Ownership rule: a view borrowed from a reader is only valid while the
   datagram string it indexes is alive and, for pooled readers, until
   [release]; anything that must outlive packet processing — stream or
   crypto payload, a plugin frame body kept across packets — must be
   copied out (e.g. by [Recvbuf.insert_sub]) before the next datagram. *)

type t = { mutable buf : string; mutable pos : int; mutable limit : int }

let create () = { buf = ""; pos = 0; limit = 0 }

let reset t s ~pos ~limit =
  if pos < 0 || limit < pos || limit > String.length s then
    invalid_arg "Reader.reset";
  t.buf <- s;
  t.pos <- pos;
  t.limit <- limit

let pos t = t.pos
let limit t = t.limit
let remaining t = t.limit - t.pos
let at_end t = t.pos >= t.limit

let seek t pos =
  if pos < 0 || pos > t.limit then invalid_arg "Reader.seek";
  t.pos <- pos

let skip t n =
  if n < 0 || n > t.limit - t.pos then raise Varint.Truncated;
  t.pos <- t.pos + n

(* Fixed-width reads, big-endian like the QUIC wire. *)

let u8 t =
  if t.pos >= t.limit then raise Varint.Truncated;
  let v = Char.code (String.unsafe_get t.buf t.pos) in
  t.pos <- t.pos + 1;
  v

(* The next byte without advancing; -1 at the window edge. *)
let peek t =
  if t.pos >= t.limit then -1 else Char.code (String.unsafe_get t.buf t.pos)

(* The one copying read: extracts [len] bytes as a string. For the rare
   string-carrying control frames (reason phrases, plugin names) — data
   frames stay as views. *)
let take t len =
  if len < 0 || len > t.limit - t.pos then raise Varint.Truncated;
  let s = String.sub t.buf t.pos len in
  t.pos <- t.pos + len;
  s

let u16_be t =
  if t.pos + 2 > t.limit then raise Varint.Truncated;
  let v = String.get_uint16_be t.buf t.pos in
  t.pos <- t.pos + 2;
  v

let i64_be t =
  if t.pos + 8 > t.limit then raise Varint.Truncated;
  let v = String.get_int64_be t.buf t.pos in
  t.pos <- t.pos + 8;
  v

(* Step over one varint by its length prefix, bounds-checked against
   [limit], without decoding it. *)
let skip_varint t =
  let pos = t.pos in
  if pos >= t.limit then raise Varint.Truncated;
  let len = Varint.width_at t.buf pos in
  if pos + len > t.limit then raise Varint.Truncated;
  t.pos <- pos + len

(* Varints decoded in native-int arithmetic: the maximum QUIC varint
   (2^62 - 1) fits OCaml's 63-bit int, so the hot path never builds an
   Int64 box. [varint] converts at the edge for callers that keep the
   wire's int64 domain. *)
let varint_int t =
  let pos = t.pos in
  skip_varint t;
  Varint.get_int t.buf pos

let varint t = Int64.of_int (varint_int t)

(* ------------------------------------------------------------------ *)
(* Free list, mirroring [Writer.acquire]/[release]: one reader serves   *)
(* every received datagram of every connection in steady state.        *)
(* ------------------------------------------------------------------ *)

let free_list : t list ref = ref []
let created_count = ref 0
let outstanding_count = ref 0
let reuse_count = ref 0

let acquire () =
  incr outstanding_count;
  match !free_list with
  | r :: rest ->
    free_list := rest;
    incr reuse_count;
    r
  | [] ->
    incr created_count;
    create ()

let release r =
  decr outstanding_count;
  (* drop the borrowed datagram so the pool never pins a wire buffer *)
  r.buf <- "";
  r.pos <- 0;
  r.limit <- 0;
  free_list := r :: !free_list

let outstanding () = !outstanding_count
let created () = !created_count
let reused () = !reuse_count
