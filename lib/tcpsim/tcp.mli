(** A compact TCP (Cubic, SACK, fast retransmit, RFC 6298 RTO) whose
    endpoints exchange serialized segments through a pluggable transport —
    directly over the simulated network, or inside a PQUIC datagram tunnel
    (Section 4.2 of the paper).

    The sender doubles as a second {e pluginop host}: it carries a
    [Pluginop.Types.state], exposes its congestion window, RTT estimate
    and transfer state through the same Table 1 field-id space as PQUIC,
    and fires protocol-operation anchors around segment send, receive and
    timeout. The same plugin bytecode (monitoring, pluggable AIMD, ...)
    therefore attaches unmodified to a TCP transfer and to a QUIC
    connection. *)

module Sim = Netsim.Sim

module Log : Logs.LOG
(** The "tcpsim" log source. *)

val header_size : int
(** Bytes of segment header standing in for IP + TCP (40). *)

val f_syn : int
val f_ack : int
val f_fin : int

type segment = {
  conn_id : int;
  seq : int;
  ack : int;
  flags : int;
  len : int;
  sacks : (int * int) list;  (** up to 3 SACK blocks *)
}

val serialize : segment -> string
val deserialize : string -> segment option

(** {2 Sender} *)

type sender = {
  sim : Sim.t;
  mss : int;
  transport : string -> unit;
  total : int;                       (** bytes of the file to transfer *)
  cubic : Cubic.t;
  mutable established : bool;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable fin_sent : bool;
  mutable dup_acks : int;
  mutable recover : int;             (** recovery high-water mark; -1 idle *)
  mutable sacked : (int * int) list; (** SACK scoreboard, merged, sorted *)
  mutable hole_una : int;
  mutable hole_since : Sim.time;
  rexmit_at : (int, Sim.time) Hashtbl.t;
  sent_at : (int, Sim.time * bool) Hashtbl.t; (** seq -> (time, rexmited) *)
  mutable srtt : float;              (** seconds; negative until sampled *)
  mutable rttvar : float;
  mutable rto : float;
  mutable rto_backoff : int;
  mutable rto_timer : Sim.event option;
  mutable done_ : bool;
  on_done : unit -> unit;
  mutable segments_sent : int;
  mutable retransmissions : int;
  po : sender Pluginop.Types.state;
      (** the pluginop host state: protoop registry + attached plugins *)
  rtt : Quic.Rtt.t;
      (** integer-ns mirror of the float RFC 6298 estimator, fed the same
          samples, so [get f_srtt] matches PQUIC bit-for-bit *)
  mutable acks_received : int;
  mutable losses : int;
  mutable spin : bool;
  mutable path_active : bool;
  mutable cur_seq : int;
  mutable cur_size : int;
  mutable cur_has_data : bool;
  created_at : Sim.time;
  mutable established_at : Sim.time option;
  mutable failed : string option;    (** plugin sanction aborted the transfer *)
  mutable sanctions : int;
  mutable fallbacks : int;
  mutable on_message : string -> unit;
}

val min_rto : float

val create_sender :
  ?mss:int ->
  ?initial_window_segments:int ->
  sim:Sim.t ->
  transport:(string -> unit) ->
  total:int ->
  on_done:(unit -> unit) ->
  unit ->
  sender

val start_sender : sender -> unit
val sender_receive : sender -> string -> unit
val in_flight : sender -> int

(** {2 The pluginop host face of the sender} *)

val host : sender Pluginop.Types.host
(** The HOST record [Pluginop] dispatches through for tcpsim. *)

val get_field : sender -> int -> int -> int64
(** Table 1 getter. TCP has one path, so (path) fields accept index 0
    only (a bad index reads as -1, like PQUIC). Unknown fields raise the
    same API violation as on PQUIC. *)

val set_field : sender -> int -> int -> int64 -> unit
(** Table 1 setter over the writable fields; [f_cwnd] floors at two
    segments like [Quic.Cc.set_cwnd], [f_rtt_sample] feeds both RTT
    estimators. *)

val fail_sender : sender -> string -> unit
(** The sanction: abort the transfer (PQUIC's connection failure). *)

val run_op :
  sender ->
  int ->
  ?param:int ->
  ?default:(sender -> Pluginop.Types.arg array -> int64) ->
  Pluginop.Types.arg array ->
  int64

val call_external : sender -> int -> Pluginop.Types.arg array -> int64 option
(** Run an External-anchor pluglet; [None] when no plugin provides one. *)

val inject_plugin : sender -> Pluginop.Plugin.t -> (unit, string) result
(** Build, link and attach a plugin to this transfer; [Error reason] when
    a pluglet fails validation or linking. *)

val attach_instance :
  sender -> sender Pluginop.Types.instance -> sender Pluginop.Types.instance
(** Attach a pre-built instance (Section 2.5 caching); returns it. *)

val remove_plugin : sender -> string -> unit
val has_plugin : sender -> string -> bool
val plugin_names : sender -> string list
val failure : sender -> string option
val plugin_sanctions : sender -> int
val plugin_fallbacks : sender -> int

val set_on_message : sender -> (string -> unit) -> unit
(** Receive messages plugins push (e.g. the monitoring PI export). *)

(** {2 Receiver} *)

type receiver = {
  r_transport : string -> unit;
  mutable ranges : (int * int) list;
  mutable cum : int;
  mutable fin_at : int;
  mutable complete : bool;
  on_complete : unit -> unit;
}

val create_receiver :
  transport:(string -> unit) ->
  on_complete:(unit -> unit) ->
  unit ->
  receiver

val receiver_receive : receiver -> string -> unit
val received_bytes : receiver -> int
