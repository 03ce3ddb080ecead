(** Pooled wire-buffer cursor: the zero-copy encoding surface of the send
    path. One growable buffer receives header, frames and tag; writers are
    recycled through an [acquire]/[release] free list so the steady-state
    encoder allocates nothing per packet.

    Ownership: bytes in a writer are valid until [release]/[reset]; copy
    anything that must outlive the packet build out with [contents] or
    [sub_string]. [unsafe_bytes] is invalidated by any write that grows
    the buffer. *)

type t

val create : ?size:int -> unit -> t
val reset : t -> unit
val length : t -> int

val truncate : t -> int -> unit
(** [truncate w n] rolls back to length [n] (at most {!length}),
    dropping everything written after it. *)

val ensure : t -> int -> unit
(** Grow the buffer, if need be, so [n] more bytes fit without growing. *)

val contents : t -> string
(** Copy of everything written so far. *)

val sub_string : t -> off:int -> len:int -> string

val unsafe_bytes : t -> Bytes.t
(** The backing store, for in-place reads (tag computation) and patching
    reserved regions. Invalidated by any subsequent write that grows the
    buffer. *)

val reserve : t -> int -> int
(** Skip [n] bytes to be patched later; returns their offset. *)

val alloc : t -> int -> Bytes.t * int
(** Reserve [n] bytes for a direct blit; returns the backing store and
    the offset. The caller must fill all [n] bytes before the next
    writer operation. *)

val u8 : t -> int -> unit
val u16_be : t -> int -> unit
val i64_be : t -> int64 -> unit

val varint : t -> int64 -> unit
(** Identical wire form to {!Varint.write}. *)

val varint_int : t -> int -> unit
(** The varint of a native int, byte-identical to {!Varint.write} of the
    same value, without boxing it.
    @raise Varint.Overflow on a negative value. *)

val unsafe_varint_int : t -> int -> unit
(** {!varint_int} without the capacity check: the caller has {!ensure}d
    8 bytes of room (the widest varint). *)

val string : t -> string -> unit
val subbytes : t -> Bytes.t -> off:int -> len:int -> unit
val fill : t -> int -> char -> unit

(** {2 Free-list pool} *)

val acquire : unit -> t
(** A reset writer from the free list, or a fresh one. *)

val release : t -> unit
(** Return a writer to the free list. The caller must not touch it (or
    bytes obtained from it) afterwards. *)

val outstanding : unit -> int
(** Acquired and not yet released — 0 between packet builds. *)

val created : unit -> int
(** Writers ever constructed by [acquire] — stays at the high-water mark
    of concurrent builds (1 in steady state). *)

val reused : unit -> int
(** Acquisitions served from the free list. *)
