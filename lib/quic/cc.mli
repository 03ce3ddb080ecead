(** NewReno congestion controller per the QUIC recovery draft. The initial
    window is a parameter because the paper's Figure 9 hinges on it: PQUIC
    uses 16 KiB while mp-quic inherited 32 KiB from quic-go.

    Bytes-in-flight accounting and window policy are deliberately
    separable ({!forget_in_flight} vs {!grow_on_ack}/{!shrink_on_loss}) so
    congestion-control plugins can replace the policy without breaking the
    bookkeeping. *)

type t

val default_initial_window : int
(** 16 KiB — PQUIC's initial path window. *)

val create : ?mss:int -> ?initial_window:int -> unit -> t
val cwnd : t -> int

val ssthresh : t -> int
(** Slow-start threshold in bytes; [max_int] while no loss has set it. *)

val bytes_in_flight : t -> int
val in_slow_start : t -> bool
val available : t -> int

val on_packet_sent : t -> size:int -> unit

val grow_on_ack : t -> pn:int64 -> size:int -> unit
(** Window growth only (slow start: + acked bytes; congestion avoidance:
    +MSS per window of acked data), suppressed during a recovery epoch. *)

val shrink_on_loss : t -> pn:int64 -> largest_sent:int64 -> unit
(** Halve once per recovery epoch. *)

val on_packet_acked : t -> pn:int64 -> size:int -> unit
(** {!forget_in_flight} + {!grow_on_ack}. *)

val on_packet_lost : t -> pn:int64 -> size:int -> largest_sent:int64 -> unit

val set_cwnd : t -> int -> unit
(** Direct window control for plugins (floored at 2 MSS). *)

val on_retransmission_timeout : t -> unit
(** Collapse to the minimum window. *)

val collapse : t -> unit
(** Persistent congestion (RFC 9002 §7.6): collapse to the minimum window
    and restart in slow start. *)

val forget_in_flight : t -> size:int -> unit
