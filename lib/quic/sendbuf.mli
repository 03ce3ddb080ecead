(** Sender-side stream buffer: application data queued at increasing
    offsets, chunked for transmission, retransmitted on loss and released
    once acknowledged. Offsets are absolute from the stream start.

    The buffer holds the written strings themselves, not a copy, and
    starts empty. After each {!on_acked} it releases every written string
    that lies wholly below both the end of the acknowledged prefix (the
    bytes from offset 0 up to the first gap) and the offset of the first
    queued retransmission. A string straddling that limit stays whole
    until the limit passes its end. *)

type t

val create : unit -> t
val write : t -> string -> unit
(** Queue a string. It is retained by reference, not copied, until it is
    released. *)

val finish : t -> unit
(** Mark the stream end; the FIN rides on (or after) the last chunk. *)

val total_written : t -> int
val has_pending : t -> bool
val has_retransmissions : t -> bool
val has_new : t -> bool
val pending_bytes : t -> int

val next_span : t -> max_len:int -> (int * int * bool) option
(** [(offset, len, fin)] of the next chunk to put on the wire, without
    copying; retransmissions take priority over new data. Fetch the bytes
    with {!blit}. *)

val blit : t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** Copy queued bytes straight into a wire buffer. The range may span
    several written strings.
    @raise Invalid_argument if it reaches into released bytes or past
    the end of the written data. *)

val on_acked : t -> offset:int -> len:int -> fin:bool -> unit
(** Records the range as acknowledged. Precondition: no part of it is
    queued for retransmission. A range is requeued only by {!on_lost},
    after its packet has left the in-flight set, so a packet that can
    still be acknowledged never carries a queued range. *)

val on_lost : t -> offset:int -> len:int -> fin:bool -> unit
(** Requeues the range unless a later acknowledgment already covered it. *)
