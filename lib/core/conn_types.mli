(** Shared record types of the layered connection engine.

    All engine layers ([Host_api], [Recovery], [Plugin_host], [Sender],
    [Connection]) operate on the connection record {!t} defined here, and
    reach the protoop registry through {!run_op} and {!call_external}.
    [Connection] re-exports everything in this interface, so external
    code keeps addressing the engine through [Pquic.Connection]. *)

module Log : Logs.LOG
(** The shared "pquic" log source of the engine. *)

type Netsim.Net.payload += Quic_packet of string

val ip_udp_overhead : int

val max_ack_delay : Netsim.Sim.time
(** How long a received packet may wait for its ACK (the ack alarm), also
    the max_ack_delay term of the PTO and persistent-congestion spans:
    25 ms. *)

type role = Client | Server

type state = Handshaking | Established | Closing | Closed | Failed of string

type config = {
  mtu : int;                (** max QUIC packet size (before IP/UDP) *)
  initial_window : int;
  trust_formula : string;   (** validation requirement sent with PLUGIN_VALIDATE *)
  cid_pool : int;
      (** spare CIDs issued to the peer at establish (NEW_CONNECTION_ID).
          0 (the default) disables the whole migration machinery — RFC
          9000 §9.5: an endpoint without spare CIDs cannot migrate — and
          keeps legacy behaviour bit-identical. *)
  lean : bool;
      (** shrink per-connection hash tables for massive-concurrency
          benchmarks. Off by default: bucket counts influence Hashtbl
          fold order, which the recorded experiment fingerprints are
          sensitive to. *)
}

val default_config : config

type path = {
  path_id : int;
  mutable local_addr : Netsim.Net.addr;
  mutable remote_addr : Netsim.Net.addr;
  cc : Quic.Cc.t;
  rtt : Quic.Rtt.t;
  mutable active : bool;
  mutable lost_span_start : Netsim.Sim.time;
  mutable lost_span_end : Netsim.Sim.time;
  mutable lost_span_valid : bool;
      (** persistent congestion (RFC 9002 §7.6): send-time span of the
          current run of consecutive ack-eliciting losses *)
}

type path_candidate = {
  cand_addr : Netsim.Net.addr;
  challenge : int64;
  rotate_to : (int64 * int64) option;
      (** (seq, cid) of the spare adopted towards the peer on commit *)
  mutable last_probe_at : Netsim.Sim.time;
  mutable cand_rx : int;
  mutable cand_tx : int;
}
(** RFC 9000 §9 path validation: an unvalidated remote address observed on
    authenticated packets. Only a PATH_RESPONSE matching [challenge]
    commits it onto the path; until then it carries nothing but probes,
    clamped to 3× [cand_rx] (§8.1 anti-amplification). *)

(** What a sent packet carried, for ack/loss bookkeeping. STREAM, CRYPTO
    and PLUGIN frames record only their span of the send buffer they were
    blitted from, and settle on that very buffer — payload bytes are never
    copied into retransmit state. *)
type frame_record =
  | R_frame of Quic.Frame.t * Scheduler.reservation option
      (** control/ack/plugin-reserved frames; the reservation is set for
          the latter so notify_frame protoops can fire *)
  | R_span of { buf : Quic.Sendbuf.t; offset : int; len : int; fin : bool; app : bool }
      (** [app]: an application stream's span; only these count in
          [pkts_retransmitted] when lost *)

type sent_packet = {
  pn : int64;
  sent_at : Netsim.Sim.time;
  size : int;
  records : frame_record list;
  path_id : int;
  path_seq : int64;
      (** per-path send order, for reordering-safe loss detection *)
  ack_eliciting : bool;
}

module Pn_table : Hashtbl.S with type key = int64
(** The in-flight table, keyed by packet number. It hashes, indexes
    buckets and resizes as a generic [Hashtbl] with an unrandomized seed
    does, so for the same sequence of operations [iter] and [fold] visit
    the keys in the same order as over a generic [(int64, _) Hashtbl.t]
    — the order the loss detector's folds, and so the recorded
    experiments, depend on. Keys compare with [Int64.equal]. *)

(** Send times of ack-eliciting packets, kept past their removal from
    [sent] for the plugins' [sent_time] helper: a ring of (pn, sent_at)
    slots indexed by [pn land (capacity - 1)].

    Once per 4096 pns, on the first record at or past each multiple of
    4096 ([boundary]), the horizon moves to [boundary - 8192]. A pn
    answers iff its slot holds exactly that pn and pn >= horizon — the
    same answers as a table that records every pn and drops those below
    the horizon at each move. The ring starts at 4 slots and doubles
    only when a record would land on an answering pn; when the horizon
    moves it shrinks to the smallest power of two covering the pns that
    still answer. Answering pns lie within 12,288 of the newest, so the
    capacity never exceeds 16,384 nor twice the answering window. *)
module Sent_times : sig
  type t

  val create : unit -> t

  val record : t -> int64 -> Netsim.Sim.time -> unit
  (** [record t pn at]: packet [pn] (>= 0), ack-eliciting, was sent at
      [at] (>= 0). Pns are recorded in increasing order. *)

  val find : t -> int64 -> Netsim.Sim.time
  (** The send time of [pn], or -1 when it does not answer: never
      recorded, below the horizon, or no pn at all (negative, or outside
      [int]). *)

  val capacity : t -> int
  (** Slots in the ring. *)

  val length : t -> int
  (** How many pns answer. *)
end

type stream = {
  stream_id : int;
  sendb : Quic.Sendbuf.t;
  recvb : Quic.Recvbuf.t;
  mutable fin_delivered : bool;
  mutable flow_sent : int; (** highest offset+len ever put on the wire *)
}

type stats = {
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable pkts_sent : int;
  mutable pkts_received : int;
  mutable pkts_lost : int;
  mutable pkts_retransmitted : int;
  mutable pkts_out_of_order : int;
  mutable frames_recovered : int; (** packets resurrected by FEC *)
  mutable pkts_dup_rejected : int;
      (** duplicate packet numbers discarded on receive *)
  mutable pkts_corrupt_discarded : int;
      (** auth/parse failures dropped cleanly instead of raising *)
  mutable persistent_congestion_events : int;
  mutable plugin_sanctions : int;  (** pluglets killed for misbehaviour *)
  mutable plugin_fallbacks : int;
      (** trapped replace ops served by the builtin implementation *)
  mutable cids_issued : int;       (** NEW_CONNECTION_ID frames queued *)
  mutable cids_retired : int;      (** local CIDs retired by the peer *)
  mutable cids_rotated : int;      (** times the CID sent to changed *)
  mutable paths_validated : int;   (** candidates committed by PATH_RESPONSE *)
  mutable path_probes : int;       (** PATH_CHALLENGE probe packets sent *)
  mutable unvalidated_tx : int;
      (** non-probe packets sent to a candidate address — must stay 0 *)
}

(** Protoop arguments and implementations, re-exported from the
    transport-neutral [Pluginop] library (parametrically, as OCaml
    requires, then abbreviated at the connection type next to {!t}): core
    code keeps its constructors and field labels, and instances are
    type-compatible with every other pluginop host. *)
type arg = Pluginop.Types.arg =
  | I of int64
  | Buf of Bytes.t * [ `Ro | `Rw ]
  | View of Bytes.t * int * int

type 'c host_impl = 'c Pluginop.Types.impl =
  | Native of string * ('c -> arg array -> int64)
  | Pluglet of Pluginop.Pre.t

type 'c host_op_entry = 'c Pluginop.Types.op_entry = {
  mutable replace : 'c host_impl option;
  mutable pre : 'c host_impl list;
  mutable post : 'c host_impl list;
  mutable ext : 'c host_impl option;
}

type 'c host_instance = 'c Pluginop.Types.instance = {
  plugin : Pluginop.Plugin.t;
  pool : Pluginop.Memory_pool.t;
  mutable heap : Bytes.t;        (** pool backing the PREs map *)
  pres : Pluginop.Pre.t list;
  opaque : int Pluginop.Types.Int_tbl.t; (** opaque-data id -> heap offset *)
}

type t = {
  sim : Netsim.Sim.t;
  net : Netsim.Net.t;
  cfg : config;
  role : role;
  mutable state : state;
  local_cid : int64;
  mutable remote_cid : int64;
  mutable key : int64;
  mutable paths : path array;
  (* CID set (RFC 9000 §5.1) and §9 path-validation state *)
  mutable local_cids : (int64 * int64) list;  (** (seq, cid), newest first *)
  mutable cid_seq : int64;
  mutable remote_spares : (int64 * int64) list;  (** (seq, cid), oldest first *)
  mutable remote_cid_seq : int64;
  mutable candidate : path_candidate option;
  mutable challenge_ctr : int64;
  mutable last_reprobe_at : Netsim.Sim.time;
  mutable last_rotate_at : Netsim.Sim.time;
  (* recovery *)
  mutable next_pn : int64;
  sent : sent_packet Pn_table.t;
  mutable inflight : sent_packet Queue.t array;
      (** [sent] in send order: one FIFO per path_id, created on the
          path's first ack-eliciting send; entries of acked or lost
          packets are dropped lazily when they reach the head *)
  mutable ack_watermark : int64;
      (** no pn below this is still in [sent]; ack processing clips
          ranges to the live window with it *)
  mutable largest_acked : int64;
  mutable largest_acked_per_path : int64 array;
  mutable next_path_seq : int64 array;
  sent_times : Sent_times.t;
      (** send times of ack-eliciting packets, retained past their
          removal from [sent] *)
  mutable pto_backoff : int;
  (* Alarms live in the node-wide timer heap ([wheel], shared per
     simulator): each is a reusable node, so arm / cancel / re-arm are
     allocation-free sifts instead of simulator-heap churn. *)
  wheel : Engine.Timer_wheel.t;
  loss_alarm : Engine.Timer_wheel.alarm;
  ack_alarm : Engine.Timer_wheel.alarm;
  idle_alarm : Engine.Timer_wheel.alarm;
  stall_alarm : Engine.Timer_wheel.alarm;
      (** client downlink-stall watchdog (armed only with [cid_pool] > 0):
          a pure receiver never arms the PTO clock, so return-path silence
          is noticed here and escalated to the reprobe escape *)
  mutable idle_period : Netsim.Sim.time;
      (** idle period captured at arm time (the fire callback is fixed,
          so the period the old per-arm closure captured lives here) *)
  mutable stall_period : Netsim.Sim.time;
      (** receive-silence span captured when the stall watchdog was armed *)
  mutable last_activity : Netsim.Sim.time;
  mutable ae_sent_since_recv : bool;
  (* receiving *)
  acks : Quic.Ackranges.t;
  mutable ack_needed : bool;
  mutable ae_since_ack : int;
  mutable largest_recv : int64;
  mutable largest_recv_at : Netsim.Sim.time;
  mutable last_spin_received : bool;
  mutable spin : bool;
  (* streams *)
  streams : (int, stream) Hashtbl.t;
  stream_rr : int Queue.t; (** round-robin rotation order *)
  crypto_send : Quic.Sendbuf.t;
  crypto_recv : Quic.Recvbuf.t;
  mutable crypto_acc : string;
  mutable crypto_done : bool;
  (* flow control *)
  mutable max_data_local : int64;
  mutable max_data_remote : int64;
  mutable data_sent : int64;
  mutable data_received : int64;
  mutable rx_flow : int;
  (* stream bytes the peer has spent of [max_data_local]: the sum of each
     stream's [Recvbuf.received_end] *)
  mutable max_data_frame_pending : bool;
  (* transport parameters *)
  mutable local_params : Quic.Transport_params.t;
  mutable peer_params : Quic.Transport_params.t option;
  (* control frames queued for the next packets *)
  ctrl : Quic.Frame.t Queue.t;
  (* plugin machinery: the transport-neutral protoop registry and attached
     instances (see [Pluginop.Types.state]); the HOST closures it
     dispatches through are built in [Host_api] *)
  po : t Pluginop.Types.state;
  sched : Scheduler.t;
  mutable plugin_turn : bool;
  (* scratch for the packet currently processed or built *)
  mutable cur_pn : int64;
  mutable cur_path : int;
  mutable cur_size : int;
  mutable cur_wire : string;
      (** wire image of the packet just built or being processed *)
  mutable cur_payload_off : int;
  mutable cur_payload_len : int;
      (** its payload: the [cur_payload_off, +cur_payload_len) window of
          [cur_wire] *)
  mutable cur_has_stream : bool;
  mutable cur_ecn_ce : bool;
  mutable recover_depth : int;
  (* plugin exchange *)
  plugin_out : (string, Quic.Sendbuf.t) Hashtbl.t;
  plugin_in : (string, Quic.Recvbuf.t) Hashtbl.t;
      (** incoming plugin transfers: name -> reassembly buffer, read once
          complete; dropped with the connection *)
  owner : owner;
  mutable acquired : instance list;
      (** what the endpoint's [owner.acquire_instance] handed this
          connection, attached or not; returned by [owner.closed] *)
  (* app interface *)
  mutable on_stream_data : int -> string -> fin:bool -> unit;
  mutable on_message : string -> unit;
  mutable on_established : unit -> unit;
  mutable on_closed : unit -> unit;
  stats : stats;
  created_at : Netsim.Sim.time;
  mutable established_at : Netsim.Sim.time option;
  mutable wake_pending : bool;
  mutable send_pass : unit -> unit;
      (** body of the {!wake} event, built once at creation: clears
          [wake_pending] and runs [Sender.send_pending] *)
  mutable negotiated : bool;
  mutable close_reason : string;
}

(** How a connection reaches its endpoint: one immutable record of
    functions of the connection, shared by every connection of the
    endpoint ({!Endpoint.t}) or [Connection.standalone]. *)
and owner = {
  issue_cid : t -> int64;
      (** a CID for the next spare (seq [cid_seq]), routed to the connection *)
  retire_cid : t -> int64 -> unit;
  provide_plugin : t -> string -> formula:string -> (string * string) option;
      (** (compressed bytecode, proof) of a plugin the peer asked for *)
  verify_plugin : t -> name:string -> bytes:string -> proof:string -> bool;
  plugin_received : t -> Pluginop.Plugin.t -> unit;
  acquire_instance : t -> string -> instance option;
      (** a cached (Section 2.5) or freshly built instance, if available *)
  closed : t -> unit;  (** entered [Closed]; never called on [Failed] *)
}

(** The historical engine-local names, instantiated at this connection. *)
and impl = t host_impl

and native = t -> arg array -> int64
and op_entry = t host_op_entry
and instance = t host_instance

val initial_key : int64

val i64 : int -> int64
val to_i : int64 -> int

val state_code : t -> int64
val path : t -> int -> path option
val default_path : t -> path
val is_open : t -> bool

val fail_connection : t -> string -> unit
(** Mark the connection failed (unless already closed). *)

val blit_current_payload : t -> Bytes.t -> int -> unit
(** Copy the payload of the packet currently built or processed into a
    buffer at the given offset — the packet_bytes helper serves plugins
    straight from the wire image. *)

val make_stats : unit -> stats

val has_local_cid : t -> int64 -> bool
(** Is [cid] one of the CIDs this connection answers to? *)

val next_challenge : t -> int64
(** Fresh PATH_CHALLENGE material, derived deterministically from the
    connection key and a per-connection counter. *)

val adopt_remote_cid : t -> int64 * int64 -> unit
(** Adopt [(seq, cid)] as the CID we address the peer with, retiring the
    current one and every spare with a sequence number ≤ [seq]. Adoption
    is strictly monotonic in [seq] so retransmitted NEW_CONNECTION_ID
    frames can never resurrect an already-retired sequence number. *)

val adoptable_spare : t -> (int64 * int64) option
(** A spare eligible for rotation: unused and ahead of [remote_cid_seq]. *)

val run_op :
  t -> Pluginop.Protoop.id -> ?param:int -> ?default:(t -> arg array -> int64) ->
  arg array -> int64
(** {!Pluginop.Dispatch.run_op} on the connection's registry [c.po]: pre
    anchors, then the replace anchor (pluglet override or [default]), then
    post anchors. Re-entering a running operation is the Figure 3 loop
    and terminates the connection. *)

val call_external : t -> Pluginop.Protoop.id -> arg array -> int64 option
(** Call a plugin-defined external operation (Section 2.4); [None] when no
    pluglet sits on the external anchor. *)

val wake : t -> unit
(** Ask for a send pass: run [set_next_wake_time] and schedule
    [send_pass] as one delay-0 event, unless one is already pending. *)

(** {2 Receive-path profiling}

    Sampled by [Connection.receive_datagram] per datagram while
    [rx_profile] is on; the clock is injectable so benches can install
    [Unix.gettimeofday] (the [Sys.time] default is too coarse per-packet
    but keeps this library free of the unix dependency). *)

val rx_profile : bool ref
val rx_clock : (unit -> float) ref
val rx_seconds : float ref
val rx_minor_words : float ref
val rx_packets : int ref
val rx_profile_reset : unit -> unit
