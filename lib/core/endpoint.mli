(** A PQUIC endpoint: binds network addresses, demultiplexes incoming
    packets to connections by destination CID (full-CID-keyed O(1)
    routing via {!Engine.Conn_table}), accepts new connections (server
    role) and fronts the node-scope plugin machinery ({!Node}) — the
    local cache of available plugins and the cross-connection PRE cache
    of Section 2.5. Several endpoints created with the same [node] share
    one plugin cache. *)

type t = {
  sim : Netsim.Sim.t;
  net : Netsim.Net.t;
  cfg : Connection.config;
  addr : Netsim.Net.addr;
  mutable extra_addrs : Netsim.Net.addr list;
  conns : Connection.t Engine.Conn_table.t;
      (** every CID a connection answers to maps to it; retirement
          removes exactly that key *)
  node : Node.t;
  rng : Netsim.Rng.t;
  mutable prover : name:string -> formula:string -> string option;
  mutable verifier : name:string -> bytes:string -> proof:string -> bool;
  mutable on_connection : Connection.t -> unit;
  mutable plugins_to_inject : string list;
  mutable accepted : int;  (** server connections created by the accept path *)
  tweak_params : Quic.Transport_params.t -> Quic.Transport_params.t;
      (** final say on our transport parameters (e.g. a chaos harness
          shrinking idle_timeout); applied when connections are built *)
  owner : Connection.owner;
      (** built once and shared by every connection of the endpoint:
          spare CIDs from [rng], routed in [conns]; plugins served with
          [prover], checked with [verifier] and cached in [node]; the
          instances a connection acquired go back to [node] when it
          closes *)
}

val create :
  ?cfg:Connection.config ->
  ?extra_addrs:Netsim.Net.addr list ->
  ?node:Node.t ->
  ?tweak_params:(Quic.Transport_params.t -> Quic.Transport_params.t) ->
  sim:Netsim.Sim.t ->
  net:Netsim.Net.t ->
  addr:Netsim.Net.addr ->
  seed:int64 ->
  unit ->
  t

val add_plugin : t -> Pluginop.Plugin.t -> unit
(** Make a plugin available in the node's local plugin cache. *)

val has_plugin : t -> string -> bool

val acquire_instance : t -> string -> Connection.instance option
(** Fetch an injectable instance: cached PREs when available (the
    Section 2.5 fast path), otherwise a fresh build. Nothing returns it
    to the node; connections acquire through [owner], which does. *)

val cache_hits : t -> int
(** Instance-cache hits of the endpoint's node (see {!Node.counters}). *)

val cache_misses : t -> int

val accept_initial : t -> Netsim.Net.datagram -> string -> unit
(** Accept path: authenticate an Initial whose wire image (at least 9
    bytes) names an unknown destination CID and create the server-side
    connection. Exposed for the server engine. *)

val routable_wire : Netsim.Net.datagram -> string
(** The wire image a datagram is routed on: the inner packet of a
    CE-marked datagram, the damaged bytes of a corrupted one, [""] when
    it carries no QUIC packet. Routing needs 9 bytes (the destination
    CID ends at byte 8). Allocates nothing on a clean datagram. Shared
    with the server engine. *)

val handle_datagram : t -> Netsim.Net.datagram -> unit

val listen : t -> unit
(** Bind all our addresses so packets reach the demultiplexer. *)

val connect :
  ?plugins_to_inject:string list -> t -> remote_addr:Netsim.Net.addr ->
  Connection.t

val connection_count : t -> int
