(** The API exposed to pluglet bytecode (Table 1): helper identifiers and
    the field namespace of the get/set accessors. Implementations are
    closures over the host connection, installed when a PRE is bound; this
    module fixes the numbering so plc sources, every host and the
    documentation agree.

    Getters/setters abstract the connection internals from pluglets: the
    bytecode never hard-codes structure offsets, so plugins stay compatible
    across host versions — and across {e hosts}: any transport exposing
    this id space (PQUIC, tcpsim) runs the same bytecode — and the host can
    monitor (and refuse) access to specific fields (Section 2.3). *)

(** {2 Helper ids — Table 1} *)

val h_get : int
(** [get(field, index)] — read a connection field; path fields take the
    path id as index. *)

val h_set : int
(** [set(field, index, value)] — write one of {!writable_fields}; any other
    field is a policy violation that kills the plugin. *)

val h_pl_malloc : int
(** [pl_malloc(size)] — Θ(1) allocation in the plugin's memory area;
    returns 0 when the pool is exhausted. *)

val h_pl_free : int
val h_get_opaque_data : int
(** [get_opaque_data(id, size)] — a stable, zero-initialized area shared by
    all pluglets of the plugin, allocated on first use. *)

val h_pl_memcpy : int
val h_pl_memset : int
val h_run_protoop : int
(** [run_protoop(op, param, a, b, c)] — invoke a protocol operation
    (param < 0 means none). Re-entering a running operation is the Figure 3
    loop and terminates the connection. *)

val h_reserve_frames : int
(** [reserve_frames(ftype, size, flags, cookie)] — book a frame slot with
    the frame scheduler (alternation + DRR); flags bit 0 =
    retransmittable, bit 1 = not ack-eliciting. *)

(** {2 Supporting helpers} *)

val h_get_time : int
val h_push_message : int
(** The Section 2.4 asynchronous channel to the application. *)

val h_pl_log : int
val h_sent_time : int
(** [sent_time(pn)] — the send timestamp of a recent packet, or -1. *)

val h_cmp_bytes : int

(** {2 Extension helpers for the FEC plugin}

    Bulk byte-vector arithmetic stays in helpers (like pl_memcpy); control
    flow stays in bytecode. *)

val h_gf256_mulvec : int
(** [gf256_mulvec(dst, src, coef, len)]: dst ^= coef*src over GF(256). *)

val h_gf256_scalevec : int
(** [gf256_scalevec(dst, coef, len)]: dst := coef*dst. *)

val h_gf256_mul : int
val h_gf256_inv : int
val h_rng_coef : int
(** [rng_coef(seed, sid, row)] — the deterministic RLC coefficient stream
    both peers regenerate; never 0. *)

val h_recover_packet : int
(** Hand a recovered packet (pn || payload) back to the engine; it is
    processed as if received and its number acknowledged. *)

val h_packet_bytes : int
(** Copy the packet currently processed/built (pn || payload) into plugin
    memory; returns the byte count or 0 if it does not fit. *)

(** {2 Extension helper for the multipath plugin} *)

val h_create_path : int
(** [create_path(remote_addr)] — open (or find) a path to the address;
    returns the path id. *)

val helper_names : (string * int) list
(** The compile-time name table plc sources resolve against. *)

val is_known_helper : int -> bool

(** {2 Field ids for get/set}

    Fields marked (path) take the path id as index. *)

val f_cwnd : int (** (path) congestion window, bytes; writable *)

val f_bytes_in_flight : int (** (path) *)

val f_srtt : int (** (path) smoothed RTT, ns *)

val f_rtt_min : int
val f_latest_rtt : int
val f_rtt_var : int

val f_rtt_sample : int
(** (path) write-only: feeds a new RTT sample into the estimator. *)

val f_path_active : int (** (path) 0/1; writable *)

val f_path_remote_addr : int
val f_nb_paths : int
val f_next_pn : int
val f_largest_acked : int

val f_state : int
(** 0 handshaking, 1 established, 2 closing, 3 closed, 4 failed. *)

val f_role : int (** 0 client, 1 server *)

val f_bytes_sent : int
val f_bytes_received : int
val f_pkts_sent : int
val f_pkts_received : int
val f_pkts_lost : int
val f_pkts_retransmitted : int
val f_pkts_out_of_order : int
val f_ack_needed : int
val f_spin_bit : int (** writable *)

val f_max_data_local : int
val f_max_data_remote : int
val f_data_sent : int
val f_data_received : int
val f_mtu : int
val f_current_pn : int
(** The packet being processed or built. *)

val f_current_path : int
val f_current_packet_size : int
val f_streams_open : int
val f_streams_closed : int
val f_handshake_rtt : int
val f_last_path_recv : int
val f_fin_sent : int
(** 1 when a stream reached its FIN with nothing left to transmit. *)

val f_peer_extra_addr : int
val f_current_packet_has_stream : int
val f_own_extra_addr : int
val f_ecn_ce : int
(** 1 when the packet being processed carried a CE mark. *)

val f_ssthresh : int
(** (path) slow-start threshold in bytes; -1 while unset. *)

val writable_fields : int list
(** Everything else is read-only through [set]; writing it kills the
    plugin, the same sanction as a memory violation. *)
