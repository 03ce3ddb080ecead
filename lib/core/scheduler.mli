(** Frame scheduler (Section 2.3): plugins book frame slots with
    reserve_frames. When a packet is built, the sender alternates between
    core frames and plugin frames (the connection's [plugin_turn]), and a
    deficit round robin distributes the plugin share of the payload budget
    between the plugins — no plugin can starve application data or the
    others. *)

type reservation = {
  ftype : int;           (** frame type the write_frame protoop receives *)
  size : int;            (** worst-case wire size *)
  retransmittable : bool;
  ack_eliciting : bool;  (** MP_ACK-style frames are not *)
  cookie : int64;        (** opaque value handed back to the pluglet *)
  plugin : string;
}

type t

val create : unit -> t
(** An empty scheduler. The DRR credit per plugin per round is a fixed
    600 bytes. *)

val reserve : t -> reservation -> unit
val pending : t -> int
val has_pending : t -> bool

val take : ?max_frame:int -> t -> budget:int -> reservation list
(** Pop reservations fitting [budget] bytes, deficit-round-robin across
    plugins. Reservations larger than [max_frame] (default 1400) can never
    ride in any packet and are dropped rather than blocking their queue. *)

val drop_plugin : t -> string -> unit
