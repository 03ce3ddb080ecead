(** Pooled wire-buffer cursor — the receive-side mirror of {!Writer}.

    A reader borrows a received datagram string and walks a
    [pos..limit) window of it; parsing through it produces views
    (offsets + lengths into the datagram) instead of [String.sub]
    copies. All reads bounds-check against [limit] — not the string
    length — and raise [Varint.Truncated] at the window edge, exactly
    as the reference parser (test/frame_ref.ml) behaves on a copied
    payload that ends there.

    Views borrowed through a reader are valid only while the datagram
    is alive (and, for pooled readers, until {!release}); data that
    must outlive packet processing has to be blitted out, e.g. via
    [Recvbuf.insert_sub]. *)

type t

val create : unit -> t
(** A reader over the empty window; point it somewhere with {!reset}. *)

val reset : t -> string -> pos:int -> limit:int -> unit
(** Re-aim the cursor at [s], reading from [pos] up to (exclusive)
    [limit]. Raises [Invalid_argument] unless
    [0 <= pos <= limit <= length s]. *)

val pos : t -> int
val limit : t -> int
val remaining : t -> int
val at_end : t -> bool

val seek : t -> int -> unit
(** Jump to an absolute position in [0, limit]. *)

val skip : t -> int -> unit
(** Advance by [n] bytes.
    @raise Varint.Truncated if fewer than [n] bytes remain. *)

val u8 : t -> int
val u16_be : t -> int
val i64_be : t -> int64

val peek : t -> int
(** The next byte without advancing; [-1] at the window edge. *)

val take : t -> int -> string
(** Extract [len] bytes as a fresh string and advance — the one copying
    read, for the rare string-carrying control frames.
    @raise Varint.Truncated if fewer than [len] bytes remain. *)

val varint : t -> int64
val varint_int : t -> int
(** QUIC variable-length integers ([Varint.read] semantics, but bounded
    by [limit]). [varint_int] decodes in native-int arithmetic — the
    62-bit varint domain fits OCaml's int — so the hot path allocates
    no Int64 box.
    @raise Varint.Truncated if the encoding runs past [limit]. *)

val skip_varint : t -> unit
(** Step over one varint by its length prefix, with the bounds checks of
    {!varint_int}, without decoding it.
    @raise Varint.Truncated if the encoding runs past [limit]. *)

(** {1 Pooling}

    Free-list recycling, mirroring {!Writer.acquire}/{!Writer.release}:
    bracket each datagram with an acquire/release pair and steady-state
    receive processing allocates no cursors. [release] drops the
    borrowed datagram string so the pool never pins wire buffers. *)

val acquire : unit -> t
val release : t -> unit

val outstanding : unit -> int
val created : unit -> int
val reused : unit -> int
