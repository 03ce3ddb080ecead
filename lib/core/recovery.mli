(** Loss recovery: RTT estimation, ACK-range processing, loss detection and
    the PTO/loss-timer machinery. Every decision point dispatches through a
    protocol operation so recovery plugins can reshape the behaviour. *)

open Conn_types

val process_ack :
  t ->
  string ->
  largest:int ->
  delay_us:int ->
  first_len:int ->
  count:int ->
  off:int ->
  unit
(** Process a received ACK frame, given as the fields of its
    {!Quic.Frame.V_ack} view over the datagram: credit newly acknowledged
    packets in ascending pn order (RTT sample, congestion control,
    per-frame notifications), then run loss detection and re-arm the
    loss timer. The ranges are decoded off the wire only down to the
    lowest live packet number. *)

val set_loss_alarm : t -> unit
(** (Re-)arm the loss/PTO timer from the oldest in-flight packet; the
    [set_loss_timer] and [get_retransmission_delay] protoops can override
    the schedule. *)

val declare_lost : t -> sent_packet -> unit
(** Declare one in-flight packet lost: congestion response, stats, and the
    per-frame loss notifications that queue retransmissions. *)

val detect_losses : t -> unit
(** Run the (replaceable) packet-threshold + time-threshold loss detector
    over the in-flight table. *)

val oldest_in_flight : t -> sent_packet option
(** The oldest in-flight packet by send time, ties going to the first one
    [Hashtbl.iter] meets over [sent]: a whole-table fold. *)

val track_sent : t -> sent_packet -> unit
(** Append a packet just added to [sent] to its path's FIFO in
    [inflight]. *)

(** {2 Send-order index}

    The built-in [set_loss_timer] and [detect_lost_packets] answer from
    the FIFO heads of [inflight] and fold over [sent] only when the heads
    show the fold could decide differently. Exposed for the differential
    test against that fold. *)

type oldest =
  | No_packet  (** nothing in flight *)
  | Head of sent_packet
      (** the head holding the earliest send time, alone among the paths *)
  | Tied of sent_packet
      (** heads of several paths share the earliest send time; this is
          one of them *)

val indexed_oldest : t -> oldest

val meets_loss : t -> now:Netsim.Sim.time -> sent_packet -> bool
(** Packet- or time-threshold loss of one packet, judged on its path. *)

val index_may_lose : t -> now:Netsim.Sim.time -> bool
(** Whether any in-flight packet meets {!meets_loss}, from the heads
    alone. *)

val on_loss_alarm : reprobe:(t -> unit) -> t -> unit
(** The loss-timer expiry behaviour: probe first, full RTO on backoff.
    A full RTO also calls [reprobe], the client-side stall escape
    ([Sender.rotate_and_reprobe], which sits above this module). *)
