(** QUIC variable-length integers (draft-14 §16): the two most significant
    bits of the first byte give the length (1/2/4/8 bytes), the remainder
    encodes the value big-endian; maximum value 2^62 - 1. *)

exception Overflow
exception Truncated

val max_value : int64
val encoded_size : int64 -> int
val write : Buffer.t -> int64 -> unit
val write_int : Buffer.t -> int -> unit

val read : string -> int -> int64 * int
(** [read s pos] returns the value and the next position.
    @raise Truncated when the buffer ends mid-integer. *)

val read_int : string -> int -> int * int

val width_at : string -> int -> int
(** [width_at s pos] is the length in bytes (1, 2, 4 or 8) of the varint
    starting at [pos], from its first byte.
    @raise Invalid_argument when [pos] is outside [s]. *)

val get_int : string -> int -> int
(** [get_int s pos] is the value of the varint at [pos], decoded in
    native-int arithmetic without allocating.
    @raise Truncated when [s] ends mid-integer. *)
