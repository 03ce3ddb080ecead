(** The send path: stream table, packet building blocks, and the packet
    assembly loop, which alternates core and plugin frames (Section 2.3,
    {!Scheduler}). [send_pending] is the body of {!Conn_types.wake}. *)

open Conn_types

val header_overhead : t -> int
val payload_capacity : t -> long:bool -> int

val stream_has_pending : t -> bool
val something_to_send : t -> bool

val get_stream : t -> int -> stream
(** Get (or open, running the [stream_opened] protoop) a stream. *)

val conn_flow_allowance : t -> int
(** Connection-level flow-control room left for new stream data, bytes. *)

val build_and_send_packet : t -> bool
(** Assemble and transmit one packet; [false] when nothing was sent. *)

val send_pending : t -> unit
(** Send packets while the engine has something to put on the wire. *)

val send_path_probe : t -> path_candidate -> unit
(** Probe an unvalidated candidate address with PATH_CHALLENGE (plus any
    queued PATH_RESPONSEs, which must return to the candidate source —
    RFC 9000 §9.3). The probe packet bypasses congestion control and loss
    bookkeeping, and is clamped to 3× the bytes received from the
    candidate (§8.1 anti-amplification). *)

val rotate_and_reprobe : t -> unit
(** Client-side stall escape, run by the stall watchdog and, on a full
    RTO, by the loss alarm: rotate to a spare destination CID — at most
    once per stall episode — and send a long-header PATH_CHALLENGE probe
    that re-opens stateful middlebox pinholes on the path. No-op when
    [cid_pool] is 0. *)
