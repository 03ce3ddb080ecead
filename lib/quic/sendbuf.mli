(** Sender-side stream buffer: application data queued at increasing
    offsets, chunked for transmission, retransmitted on loss and released
    once acknowledged. Offsets are absolute from the stream start. *)

type t

val create : unit -> t
val write : t -> string -> unit
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
(** Copy queued bytes straight into a wire buffer. *)

val next_chunk : t -> max_len:int -> (int * string * bool) option
(** Copying variant of {!next_span}, for callers outside the pooled
    datapath (tests, reference paths). *)

val on_acked : t -> offset:int -> len:int -> fin:bool -> unit
val on_lost : t -> offset:int -> len:int -> fin:bool -> unit
(** Requeues the range unless a later acknowledgment already covered it. *)
