(** Receiver-side stream reassembly: out-of-order segments are held until
    the contiguous prefix grows; the application reads in order. *)

type t

val create : unit -> t

val insert : t -> offset:int -> fin:bool -> string -> unit
(** @raise Invalid_argument on a FIN inconsistent with an earlier one. *)

val insert_sub :
  t -> offset:int -> fin:bool -> string -> off:int -> len:int -> unit
(** [insert_sub t ~offset ~fin s ~off ~len] inserts [len] bytes of [s]
    starting at [off] — the single blit where a frame view's payload
    crosses from the borrowed datagram into the reassembly buffer.
    Equivalent to [insert t ~offset ~fin (String.sub s off len)], but
    duplicates entirely below the read offset are dropped without the
    copy. *)

val insert_inline : t -> offset:int -> fin:bool -> len:int -> bool
(** In-order fast path. When [offset] is exactly the read offset and no
    segment is buffered ahead, records [len] bytes as received *and read*
    (noting FIN) and returns [true]: the caller must then deliver the
    payload to the application itself, skipping the stage-and-[read]
    round trip. Returns [false] — having done nothing — otherwise. *)

val read : t -> string
(** All contiguous data past what was already read (possibly ""). *)

val contiguous : t -> int
val is_finished : t -> bool
val fin_seen : t -> bool
