(* Shared record types of the connection engine.

   Every layer of the engine — the PRE↔host boundary ([Host_api]), loss
   recovery ([Recovery]), plugin lifecycle ([Plugin_host]), packet
   assembly ([Sender]) and the orchestration core ([Connection]) —
   operates on the same connection record [t]. This module owns the type
   definitions, the tiny state accessors, and the two calls every layer
   makes into the protoop registry [c.po] ({!Pluginop.Dispatch}). *)

module F = Quic.Frame
module TP = Quic.Transport_params
module Sim = Netsim.Sim
module Net = Netsim.Net

let src = Logs.Src.create "pquic" ~doc:"PQUIC connection engine"

module Log = (val Logs.src_log src : Logs.LOG)

type Net.payload += Quic_packet of string

let ip_udp_overhead = 28

(* How long a received packet may wait for its ACK (the ack alarm), also
   the max_ack_delay term of the PTO and persistent-congestion spans. *)
let max_ack_delay = Sim.of_ms 25.

type role = Client | Server

type state = Handshaking | Established | Closing | Closed | Failed of string

type config = {
  mtu : int;                (* max QUIC packet size (before IP/UDP) *)
  initial_window : int;
  trust_formula : string;   (* validation requirement sent with PLUGIN_VALIDATE *)
  cid_pool : int;           (* spare CIDs issued to the peer at establish
                               (NEW_CONNECTION_ID). 0 disables the whole
                               migration machinery — RFC 9000 §9.5: an
                               endpoint without spare CIDs cannot migrate —
                               and keeps legacy behaviour bit-identical. *)
  lean : bool;              (* shrink per-connection hash tables for massive
                               concurrency benchmarks. Off by default: bucket
                               counts influence Hashtbl fold order, which the
                               recorded experiment fingerprints are sensitive
                               to. *)
}

let default_config =
  { mtu = 1280; initial_window = Quic.Cc.default_initial_window;
    trust_formula = "PV1"; cid_pool = 0; lean = false }

type path = {
  path_id : int;
  mutable local_addr : Net.addr;
  mutable remote_addr : Net.addr;
  cc : Quic.Cc.t;
  rtt : Quic.Rtt.t;
  mutable active : bool;
  (* persistent congestion (RFC 9002 §7.6): the send-time span of the
     current run of consecutive ack-eliciting losses, reset by any ack *)
  mutable lost_span_start : Sim.time;
  mutable lost_span_end : Sim.time;
  mutable lost_span_valid : bool;
}

(* RFC 9000 §9 path validation: an unvalidated remote address observed on
   authenticated packets. PATH_CHALLENGE probes carry [challenge]; only a
   matching PATH_RESPONSE commits the address onto the path. Until then
   the candidate may carry nothing but probes, clamped to 3× the bytes
   received from it (§8.1 anti-amplification). *)
type path_candidate = {
  cand_addr : Net.addr;
  challenge : int64;
  rotate_to : (int64 * int64) option;
      (* (seq, cid) of the spare we will adopt towards the peer on commit *)
  mutable last_probe_at : Sim.time;
  mutable cand_rx : int; (* bytes received from the candidate address *)
  mutable cand_tx : int; (* probe bytes sent to it (amplification credit) *)
}

(* What a sent packet carried, for ack/loss bookkeeping. STREAM, CRYPTO
   and PLUGIN frames record only their span of the send buffer they were
   blitted from — the payload bytes are never copied into retransmit
   state; a loss requeues the range there and the retransmission re-reads
   it. *)
type frame_record =
  | R_frame of F.t * Scheduler.reservation option
      (* control/ack/plugin-reserved frames; reservation set for the
         latter so notify_frame protoops can fire *)
  | R_span of { buf : Quic.Sendbuf.t; offset : int; len : int; fin : bool; app : bool }
      (* [app]: an application stream's, counted in pkts_retransmitted *)

type sent_packet = {
  pn : int64;
  sent_at : Sim.time;
  size : int;
  records : frame_record list;
  path_id : int;
  path_seq : int64; (* per-path send order, for reordering-safe loss detection *)
  ack_eliciting : bool;
}

(* The in-flight table, keyed by packet number. Same hash, bucket index
   and resize as a generic [Hashtbl] with an unrandomized seed, so
   bucket placement and iter/fold order are those of a generic table
   given the same operations — the order the loss detector's folds (and
   so the recorded experiments) depend on — with [Int64.equal] in place
   of polymorphic compare. *)
module Pn_table = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash = Hashtbl.hash
end)

(* Send times of ack-eliciting packets, kept past their removal from the
   in-flight table for the plugins' [sent_time] helper. A ring of
   (pn, sent_at) int pairs at slot [pn land (cap - 1)], empty slots
   holding pn -1. Once per 4096 pns — on the first record at or past
   each boundary — the horizon moves to [boundary - 8192]; a pn answers
   iff its slot holds exactly that pn and pn >= horizon. A record never
   overwrites an answering pn: it doubles the ring first. Answering pns
   lie within 12,288 of the newest, so two of them never share a slot
   of a 16,384-slot ring, and that is the most the ring grows to; a
   sender whose ack-eliciting packets are sparse keeps a small one. *)
module Sent_times = struct
  type t = {
    mutable slots : int array;
    mutable horizon : int;  (* no pn below this answers *)
    mutable sweep_at : int; (* the first record at or past this pn moves [horizon] *)
  }

  let min_cap = 4
  let sweep_every = 4096
  let keep_below = 8192

  let create () =
    { slots = Array.make (2 * min_cap) (-1); horizon = 0; sweep_at = 0 }

  let capacity t = Array.length t.slots / 2
  let slot t pn = 2 * (pn land (capacity t - 1))

  (* Re-slot every answering pair into a ring of [cap] slots; the caller
     guarantees no two of them share a slot there. *)
  let resize t cap =
    let old = t.slots in
    t.slots <- Array.make (2 * cap) (-1);
    for i = 0 to (Array.length old / 2) - 1 do
      let pn = old.(2 * i) in
      if pn >= t.horizon then begin
        let j = slot t pn in
        t.slots.(j) <- pn;
        t.slots.(j + 1) <- old.((2 * i) + 1)
      end
    done

  (* The lowest answering pn, [max_int] when none answers. *)
  let lowest t =
    let lo = ref max_int in
    for i = 0 to capacity t - 1 do
      let pn = t.slots.(2 * i) in
      if pn >= t.horizon && pn < !lo then lo := pn
    done;
    !lo

  (* Record the send of ack-eliciting packet [pn] at [at]; pns are
     recorded in increasing order. *)
  let record t pn at =
    let pn = Int64.to_int pn in
    if pn >= t.sweep_at then begin
      let boundary = pn - (pn mod sweep_every) in
      t.sweep_at <- boundary + sweep_every;
      let horizon = boundary - keep_below in
      if horizon > t.horizon then begin
        t.horizon <- horizon;
        (* the answering window shrank: a ring of the smallest power of
           two covering it holds each of its pns in a slot of its own *)
        let window = pn - min pn (lowest t) + 1 in
        if capacity t > min_cap && 2 * window <= capacity t then begin
          let cap = ref min_cap in
          while !cap < window do cap := 2 * !cap done;
          resize t !cap
        end
      end
    end;
    (* doubling keeps apart pns that were apart *)
    while t.slots.(slot t pn) >= t.horizon do
      resize t (2 * capacity t)
    done;
    let j = slot t pn in
    t.slots.(j) <- pn;
    t.slots.(j + 1) <- Int64.to_int at

  (* The send time of [pn], or -1 when it does not answer (never
     recorded, swept, or no pn at all: negative or outside [int]). *)
  let find t pn =
    let p = Int64.to_int pn in
    if Int64.of_int p <> pn || p < t.horizon then -1L
    else
      let j = slot t p in
      if t.slots.(j) = p then Int64.of_int t.slots.(j + 1) else -1L

  (* How many pns answer. *)
  let length t =
    let n = ref 0 in
    for i = 0 to capacity t - 1 do
      if t.slots.(2 * i) >= t.horizon then incr n
    done;
    !n
end

type stream = {
  stream_id : int;
  sendb : Quic.Sendbuf.t;
  recvb : Quic.Recvbuf.t;
  mutable fin_delivered : bool;
  mutable flow_sent : int; (* highest offset+len ever put on the wire *)
}

type stats = {
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable pkts_sent : int;
  mutable pkts_received : int;
  mutable pkts_lost : int;
  mutable pkts_retransmitted : int;
  mutable pkts_out_of_order : int;
  mutable frames_recovered : int; (* packets resurrected by FEC *)
  mutable pkts_dup_rejected : int;      (* duplicate packet numbers discarded *)
  mutable pkts_corrupt_discarded : int; (* auth/parse failures dropped cleanly *)
  mutable persistent_congestion_events : int;
  mutable plugin_sanctions : int;  (* pluglets killed for misbehaviour *)
  mutable plugin_fallbacks : int;  (* trapped replace ops served by builtin *)
  (* migration / path validation (all stay 0 with cid_pool = 0) *)
  mutable cids_issued : int;       (* NEW_CONNECTION_ID frames queued *)
  mutable cids_retired : int;      (* local CIDs retired by the peer *)
  mutable cids_rotated : int;      (* times we switched the CID we send to *)
  mutable paths_validated : int;   (* candidates committed by PATH_RESPONSE *)
  mutable path_probes : int;       (* PATH_CHALLENGE probe packets sent *)
  mutable unvalidated_tx : int;    (* non-probe packets sent to a candidate
                                      address — must stay 0 (invariant I6) *)
}

(* Protoop arguments and implementations come from the transport-neutral
   pluginop library; the equations below re-export them (parametrically,
   as OCaml requires, then abbreviated at the connection type next to [t])
   so core code keeps writing [Native], [e.replace], [inst.plugin] — and a
   plugin instance built here is, by type equality, attachable to any
   other pluginop host. *)
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
  mutable heap : Bytes.t;        (* pool backing the PREs map *)
  pres : Pluginop.Pre.t list;
  opaque : int Pluginop.Types.Int_tbl.t; (* opaque-data id -> heap offset *)
}

type t = {
  sim : Sim.t;
  net : Net.t;
  cfg : config;
  role : role;
  mutable state : state;
  local_cid : int64;
  mutable remote_cid : int64;
  mutable key : int64;
  mutable paths : path array;
  (* CID set (RFC 9000 §5.1): CIDs we issued for the peer to address us
     with (newest first, including the handshake CID at seq 0), spare CIDs
     the peer issued us, and the sequence number of the CID we currently
     send to. The candidate tracks §9 path validation in flight. *)
  mutable local_cids : (int64 * int64) list;   (* (seq, cid), newest first *)
  mutable cid_seq : int64;                     (* next local seq to issue *)
  mutable remote_spares : (int64 * int64) list; (* (seq, cid), oldest first *)
  mutable remote_cid_seq : int64;              (* seq of [remote_cid] *)
  mutable candidate : path_candidate option;
  mutable challenge_ctr : int64;
  mutable last_reprobe_at : Sim.time;
  mutable last_rotate_at : Sim.time;
  (* recovery *)
  mutable next_pn : int64;
  sent : sent_packet Pn_table.t;
  mutable inflight : sent_packet Queue.t array;
      (* [sent] in send order: one FIFO per path_id, created on the
         path's first ack-eliciting send. Acked and lost packets are not
         removed; readers drop them when they reach the head (see
         [Recovery.live_head]). *)
  mutable ack_watermark : int64;
      (* no pn below this is still in [sent]: pns are assigned in
         increasing order, so once a pn has left the in-flight table it
         never returns and the watermark only advances. Lets ack
         processing clip ranges to the live window instead of walking
         every acknowledged pn since the start of the connection. *)
  mutable largest_acked : int64;
  mutable largest_acked_per_path : int64 array; (* per-path largest path_seq acked *)
  mutable next_path_seq : int64 array;
  sent_times : Sent_times.t; (* retained past c.sent removal *)
  mutable pto_backoff : int;
  (* Alarms are reusable nodes in the node-wide timer heap (one per
     simulator, shared by every connection on it): arm / cancel / re-arm
     are allocation-free sifts instead of one simulator-heap event per
     armed alarm. *)
  wheel : Engine.Timer_wheel.t;
  loss_alarm : Engine.Timer_wheel.alarm;
  ack_alarm : Engine.Timer_wheel.alarm;
  idle_alarm : Engine.Timer_wheel.alarm;
  stall_alarm : Engine.Timer_wheel.alarm;
      (* client downlink-stall watchdog (armed only with cid_pool > 0):
         a pure receiver never arms the PTO clock, so silence on the
         return path must be noticed here to trigger the reprobe escape *)
  mutable idle_period : Sim.time;
      (* period captured at arm time: the wheel's fire callback is fixed
         at construction, so the value each old per-arm closure captured
         lives in the record instead *)
  mutable stall_period : Sim.time;
  mutable last_activity : Sim.time;
  mutable ae_sent_since_recv : bool;
      (* RFC 9000 §10.1: the idle clock restarts on receipt, and on the
         *first* ack-eliciting send after receiving — not on every
         retransmission, else a blackout livelocks the connection *)
  (* receiving *)
  acks : Quic.Ackranges.t;
  mutable ack_needed : bool;
  mutable ae_since_ack : int;
  mutable largest_recv : int64;
  mutable largest_recv_at : Sim.time; (* for the ACK delay field *)
  mutable last_spin_received : bool;
  mutable spin : bool;
  (* streams *)
  streams : (int, stream) Hashtbl.t;
  stream_rr : int Queue.t; (* round-robin rotation order *)
  crypto_send : Quic.Sendbuf.t;
  crypto_recv : Quic.Recvbuf.t;
  mutable crypto_acc : string;
  (* contiguous crypto bytes read so far; emptied once [crypto_done] *)
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
  mutable local_params : TP.t;
  mutable peer_params : TP.t option;
  (* control frames queued for the next packets *)
  ctrl : F.t Queue.t;
  (* plugin machinery: the transport-neutral protoop registry and attached
     instances, instantiated at this connection type. The HOST closures it
     dispatches through are built in [Host_api]. *)
  po : t Pluginop.Types.state;
  sched : Scheduler.t;
  mutable plugin_turn : bool; (* alternate plugin-first packets *)
  (* scratch for the packet currently processed or built *)
  mutable cur_pn : int64;
  mutable cur_path : int;
  mutable cur_size : int;
  mutable cur_wire : string;
  mutable cur_payload_off : int;
  mutable cur_payload_len : int;
  (* the payload of the packet just built (send) or being processed
     (receive) is the [cur_payload_off, +cur_payload_len) window of
     [cur_wire]: [blit_current_payload] serves it to the packet_bytes
     helper without ever slicing it out *)
  mutable cur_has_stream : bool;
  mutable cur_ecn_ce : bool;
  mutable recover_depth : int;
  (* plugin exchange *)
  plugin_out : (string, Quic.Sendbuf.t) Hashtbl.t;
  (* name -> reassembly, read once when complete *)
  plugin_in : (string, Quic.Recvbuf.t) Hashtbl.t;
  owner : owner;
  mutable acquired : instance list;
      (* what [owner.acquire_instance] handed us: returned on close *)
  (* app interface *)
  mutable on_stream_data : int -> string -> fin:bool -> unit;
  mutable on_message : string -> unit;
  mutable on_established : unit -> unit;
  mutable on_closed : unit -> unit;
  stats : stats;
  created_at : Sim.time;
  mutable established_at : Sim.time option;
  mutable wake_pending : bool;
  mutable send_pass : unit -> unit;
      (* body of the wake event, built once at creation: clears
         [wake_pending] and runs [Sender.send_pending] *)
  mutable negotiated : bool;
  mutable close_reason : string;
}

(* How a connection reaches its endpoint: one immutable record of
   functions of the connection, shared by every connection of it. *)
and owner = {
  issue_cid : t -> int64;  (* the next spare's CID, routed to the connection *)
  retire_cid : t -> int64 -> unit;
  provide_plugin : t -> string -> formula:string -> (string * string) option;
  verify_plugin : t -> name:string -> bytes:string -> proof:string -> bool;
  plugin_received : t -> Pluginop.Plugin.t -> unit;
  acquire_instance : t -> string -> instance option;
  closed : t -> unit;
}

(* The historical engine-local names, instantiated at this connection. *)
and impl = t host_impl
and native = t -> arg array -> int64
and op_entry = t host_op_entry
and instance = t host_instance

let initial_key = 0x1_5151_5151L

let i64 = Int64.of_int
let to_i = Int64.to_int

let state_code c =
  match c.state with
  | Handshaking -> 0L
  | Established -> 1L
  | Closing -> 2L
  | Closed -> 3L
  | Failed _ -> 4L

let path c id = if id >= 0 && id < Array.length c.paths then Some c.paths.(id) else None

let default_path c = c.paths.(0)

let is_open c = match c.state with Handshaking | Established -> true | _ -> false

let fail_connection c reason =
  if c.state <> Closed then begin
    Log.warn (fun m -> m "connection failed: %s" reason);
    c.state <- Failed reason;
    c.close_reason <- reason
  end

(* Copy the payload of the packet currently built or processed into
   [dst] — the packet_bytes helper serves plugins straight from the wire
   image. *)
let blit_current_payload c dst dst_off =
  Bytes.blit_string c.cur_wire c.cur_payload_off dst dst_off c.cur_payload_len

let make_stats () =
  {
    bytes_sent = 0;
    bytes_received = 0;
    pkts_sent = 0;
    pkts_received = 0;
    pkts_lost = 0;
    pkts_retransmitted = 0;
    pkts_out_of_order = 0;
    frames_recovered = 0;
    pkts_dup_rejected = 0;
    pkts_corrupt_discarded = 0;
    persistent_congestion_events = 0;
    plugin_sanctions = 0;
    plugin_fallbacks = 0;
    cids_issued = 0;
    cids_retired = 0;
    cids_rotated = 0;
    paths_validated = 0;
    path_probes = 0;
    unvalidated_tx = 0;
  }

(* Is [cid] one of the CIDs this connection answers to? *)
let has_local_cid c cid = List.exists (fun (_, x) -> x = cid) c.local_cids

(* Fresh unpredictable-to-on-path-observers challenge material, derived
   from the connection key so replays stay deterministic per seed. *)
let next_challenge c =
  c.challenge_ctr <- Int64.add c.challenge_ctr 1L;
  Quic.Packet.tag
    ~key:(Int64.logxor c.key c.local_cid)
    (Int64.to_string c.challenge_ctr)

let run_op c op ?param ?default args =
  Pluginop.Dispatch.run_op c.po c op ?param ?default args

let call_external c op args = Pluginop.Dispatch.call_external c.po c op args

(* Ask for a send pass: run [set_next_wake_time] and schedule the
   connection's [send_pass] as one delay-0 event, unless one is pending.
   Deferring the pass lets a burst of wakes share it. *)
let wake c =
  if (not c.wake_pending) && is_open c then begin
    ignore (run_op c Pluginop.Protoop.set_next_wake_time [||]);
    c.wake_pending <- true;
    ignore (Sim.schedule c.sim ~delay:0L c.send_pass)
  end

(* Receive-path profiling, sampled by [Connection.receive_datagram] when
   [rx_profile] is on: wall-clock and minor-heap words spent across
   datagram processing, for the rx_* breakdowns in BENCH_e2e. The clock
   is injectable — benches install [Unix.gettimeofday]; the [Sys.time]
   default keeps the library free of the unix dependency. Off, the cost
   is one branch per datagram. *)
let rx_profile = ref false
let rx_clock : (unit -> float) ref = ref Sys.time
let rx_seconds = ref 0.0
let rx_minor_words = ref 0.0
let rx_packets = ref 0

let rx_profile_reset () =
  rx_seconds := 0.0;
  rx_minor_words := 0.0;
  rx_packets := 0

(* Adopt [(seq, cid)] as the CID we address the peer with, retiring the
   one in use and every spare at or below the adopted sequence number.
   Adoption is strictly monotonic in seq: [remote_cid_seq] never moves
   backwards, so together with the [seq > remote_cid_seq] insert guard on
   NEW_CONNECTION_ID a requeued retransmission can never re-insert a
   sequence number whose Retire the peer already processed — rotating to
   such a ghost CID would blackhole every packet until idle timeout. The
   retires for skipped spares keep the peer's replenishment counting
   honest (one fresh CID per retired seq). *)
let adopt_remote_cid c (seq, cid) =
  Queue.push (F.Retire_connection_id c.remote_cid_seq) c.ctrl;
  List.iter
    (fun (s, _) -> if s < seq then Queue.push (F.Retire_connection_id s) c.ctrl)
    c.remote_spares;
  c.remote_spares <- List.filter (fun (s, _) -> s > seq) c.remote_spares;
  c.remote_cid <- cid;
  c.remote_cid_seq <- seq;
  c.last_rotate_at <- Sim.now c.sim;
  c.stats.cids_rotated <- c.stats.cids_rotated + 1

(* A spare we may rotate to: unused, and ahead of the current sequence. *)
let adoptable_spare c =
  List.find_opt
    (fun (s, cid) -> s > c.remote_cid_seq && cid <> c.remote_cid)
    c.remote_spares

