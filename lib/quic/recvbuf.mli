(** Receiver-side stream reassembly: out-of-order segments are held until
    the contiguous prefix grows; the application reads in order. Each
    fragment costs O(log n) in the segments held. *)

type t

val create : unit -> t

val insert : t -> offset:int -> fin:bool -> string -> unit
(** Hold the bytes of a fragment that are unread and not held yet: the
    first copy of each byte wins, so duplicates and overlaps never grow
    the buffer.
    @raise Invalid_argument on a FIN inconsistent with an earlier one. *)

val insert_sub :
  t -> offset:int -> fin:bool -> string -> off:int -> len:int -> unit
(** [insert_sub t ~offset ~fin s ~off ~len] inserts [len] bytes of [s]
    starting at [off] — the single blit where a frame view's payload
    crosses from the borrowed datagram into the reassembly buffer.
    Equivalent to [insert t ~offset ~fin (String.sub s off len)], but only
    the bytes not already held are copied. *)

val insert_inline : t -> offset:int -> fin:bool -> len:int -> bool
(** In-order fast path. When [offset] is exactly the read offset and no
    segment is buffered ahead, records [len] bytes as received *and read*
    (noting FIN) and returns [true]: the caller must then deliver the
    payload to the application itself, skipping the stage-and-[read]
    round trip. Returns [false] — having done nothing — otherwise. *)

val read : t -> string
(** All contiguous data past what was already read (possibly ""). *)

val contiguous : t -> int

val read_offset : t -> int
(** How far the application has read: bytes below it are never held. *)

val received_end : t -> int
(** The highest stream offset any inserted fragment reached (its end),
    whether or not its bytes were new: the stream's contribution to
    connection flow control (RFC 9000 §4.1). *)

val is_finished : t -> bool
(** The FIN has been seen and every byte before it has arrived, read or
    not. *)
