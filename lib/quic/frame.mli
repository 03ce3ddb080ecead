(** QUIC frames: typed representation and wire codec (draft-14 shapes).

    Only {e core} frames are known here. Frame types reserved by protocol
    plugins (DATAGRAM, MP_ACK, FEC_*, ...) parse as {!Unknown}: the PQUIC
    engine then routes them to the parse_frame[type] protocol operation so
    a pluglet can consume them — the paper's "generic entry point allowing
    the definition of new behaviors without changing the caller". The
    plugin-exchange frames (PLUGIN_VALIDATE, PLUGIN_PROOF, PLUGIN) belong
    to the PQUIC core (Section 3.4) and are parsed natively. *)

type ack = {
  largest : int64;
  delay_us : int64;
  ranges : (int64 * int64) list;
      (** (first, last) inclusive, descending; head must end at [largest] *)
}

type t =
  | Padding of int
  | Ping
  | Ack of ack
  | Crypto of { offset : int64; data : string }
  | Stream of { id : int; offset : int64; fin : bool; data : string }
  | Max_data of int64
  | Max_stream_data of { id : int; max : int64 }
  | Connection_close of { code : int; reason : string }
  | Handshake_done
  | Path_challenge of int64
  | Path_response of int64
  | New_connection_id of { seq : int64; cid : int64 }
      (** a spare CID the peer may rotate to on migration (RFC 9000
          §5.1.1); fixed 8-byte CIDs in this implementation *)
  | Retire_connection_id of int64  (** sequence number being retired *)
  | Plugin_validate of { plugin : string; formula : string }
      (** request a plugin, pinning the required validation formula *)
  | Plugin_proof of { plugin : string; proof : string }
      (** announces/refuses a transfer; large proof bundles travel framed at
          the head of the PLUGIN stream instead *)
  | Plugin_chunk of { plugin : string; offset : int64; fin : bool; data : string }
      (** PLUGIN frames: the bytecode stream, akin to the crypto stream *)
  | Unknown of { ftype : int; raw : string }
      (** a plugin-defined frame; [raw] is the rest of the packet payload —
          the plugin's parse protoop decides how much it consumed *)

(** {2 Frame type numbers} *)

val type_padding : int
val type_ping : int
val type_ack : int
val type_crypto : int
val type_stream : int
val type_stream_nofin : int
val type_max_data : int
val type_max_stream_data : int
val type_connection_close : int
val type_handshake_done : int
val type_path_challenge : int
val type_path_response : int
val type_new_connection_id : int
val type_retire_connection_id : int
val type_plugin_validate : int
val type_plugin_proof : int
val type_plugin_chunk : int

(** Types reserved for the protocol plugins shipped in this repository. *)

val type_datagram : int
val type_add_address : int
val type_mp_ack : int
val type_fec_rs : int

val frame_type : t -> int

val is_ack_eliciting : t -> bool
(** Everything except PADDING, ACK and CONNECTION_CLOSE. Plugin frames use
    the reservation's flag instead (e.g. MP_ACK is not ack-eliciting). *)

(** {2 Encoding}

    Arithmetic sizes and direct-to-writer encoders. The [*_header]
    variants write the data-bearing frames apart from their payload so
    the sender can blit stream/crypto/plugin bytes straight from the send
    buffer into the wire buffer. test/frame_ref.ml holds the independent
    reference codec the differential tests compare these against. *)

val size : t -> int
(** Wire size of the frame, computed without encoding it. *)

val write : Writer.t -> t -> unit

val to_string : t -> string
(** The frame's wire image: {!write} into a fresh writer of {!size}
    bytes, outside the pool — for callers that forge packets by hand. *)

val write_ack :
  Writer.t -> Ackranges.t -> max_ranges:int -> delay_us:int -> unit
(** [write_ack w acks ~max_ranges ~delay_us] encodes the ACK frame for the
    newest [max_ranges] ranges of [acks] in one pass, from the flat range
    set and in native ints — no list and no [Int64] box. Byte-identical
    to {!write} of the same ranges as an {!Ack}.
    @raise Invalid_argument when [acks] is empty.
    @raise Varint.Overflow on a negative [delay_us]. *)

val stream_header_size : id:int -> offset:int64 -> len:int -> int
val write_stream_header :
  Writer.t -> id:int -> offset:int64 -> fin:bool -> len:int -> unit

val crypto_header_size : offset:int64 -> len:int -> int
val write_crypto_header : Writer.t -> offset:int64 -> len:int -> unit

val plugin_chunk_header_size : plugin:string -> offset:int64 -> int
val write_plugin_chunk_header :
  Writer.t -> plugin:string -> offset:int64 -> fin:bool -> len:int -> unit

(** {2 Zero-copy view parsing}

    The receive-side mirror of the encoders: data-bearing frames
    parse as {e views} — offsets + lengths into the datagram a {!Reader}
    walks — with no payload copy; payload-free control frames parse into
    their usual {!t} shape. A view borrows the datagram: it is valid only
    while that string is alive, and payload that must survive packet
    processing is blitted out at the reassembly boundary
    ([Recvbuf.insert_sub]). *)

type view =
  | V_frame of t  (** a payload-free frame, parsed eagerly *)
  | V_ack of {
      largest : int;
      delay_us : int;
      first_len : int;  (** the first range is [largest - first_len, largest] *)
      count : int;  (** (gap, length) pairs after the first range *)
      off : int;
      len : int;
          (** [off..off+len) holds those [count] varint pairs, bounds-checked
              but not decoded *)
    }
      (** an ACK frame: the header decoded as native ints, the further
          ranges left on the wire for the consumer to walk as far as it
          needs *)
  | V_crypto of { offset : int64; off : int; len : int }
  | V_stream of { id : int; offset : int64; fin : bool; off : int; len : int }
  | V_unknown of { ftype : int; off : int; len : int }
      (** [off..off+len) is the rest of the packet payload; the plugin's
          parse protoop decides how much the frame consumed *)

val parse_view : Reader.t -> view
(** Parse one frame through the reader, advancing it. For unknown types
    the view spans the remainder of the payload and the reader moves to
    its end; the engine re-adjusts from the plugin's parse result. Agrees
    with the reference parser in test/frame_ref.ml on every input — value,
    cursor advance and raising alike (differentially tested).
    @raise Varint.Truncated on malformed input. *)

val view_type : view -> int
val view_is_ack_eliciting : view -> bool

val pp : t Fmt.t
