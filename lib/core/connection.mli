(** The PQUIC connection engine facade.

    A QUIC connection whose workflow is a succession of protocol
    operations; protocol plugins may replace or observe each operation
    (see {!Pluginop.Dispatch}). This module re-exports the shared engine
    types and registry calls of {!Conn_types} plus the plugin entry
    points, so a connection is addressed as [Pquic.Connection] regardless
    of which layer implements the behaviour. *)

include module type of struct include Conn_types end

(** {2 Construction and lifecycle} *)

val standalone : owner
(** The owner of a connection without an endpoint: its k-th spare CID is
    k LCG steps from the handshake CID; it handles no plugins. *)

val create :
  sim:Netsim.Sim.t ->
  net:Netsim.Net.t ->
  cfg:config ->
  owner:owner ->
  role:role ->
  local_addr:Netsim.Net.addr ->
  remote_addr:Netsim.Net.addr ->
  local_cid:int64 ->
  remote_cid:int64 ->
  local_params:Quic.Transport_params.t ->
  unit ->
  t

val start_client : t -> unit
(** Kick off the client side of the handshake. *)

val receive_datagram : t -> Netsim.Net.datagram -> unit
(** Entry point for a datagram demultiplexed to this connection. *)

val close : t -> reason:string -> unit
(** Graceful close: CONNECTION_CLOSE now, fully closed after 3 PTO. *)

val rebind : t -> new_local:Netsim.Net.addr -> unit
(** Simulate a NAT rebinding: move the default path to [new_local]. *)

(** {2 Streams} *)

val write_stream : t -> id:int -> ?fin:bool -> string -> unit
(** Queue [data] on stream [id], opening the stream if needed; [~fin]
    ends it. The string is retained by reference, not copied, until the
    peer has acknowledged it (see {!Quic.Sendbuf}). *)

(** {2 Plugins} *)

exception Injection_failed of string

val prepare : Pluginop.Plugin.t -> Pluginop.Plugin_host.template
(** Compile, verify and jit every pluglet once (see
    {!Pluginop.Plugin_host.prepare}).
    @raise Pluginop.Pre.Rejected when verification fails
    @raise Plc.Compile.Error when source compilation fails *)

val build_instance : Pluginop.Plugin_host.template -> instance
(** A fresh instance of a template: compiles nothing. *)

val attach_instance : t -> instance -> instance
val inject_plugin : t -> Pluginop.Plugin.t -> (unit, string) result
val remove_plugin : t -> string -> unit
val kill_plugin : t -> string -> string -> unit
val inject_local_plugins : t -> unit
val plugin_names : t -> string list
val has_plugin : t -> string -> bool

(** {2 Accessors} *)

val local_cid : t -> int64
val state : t -> state
val stats : t -> stats
val role : t -> role
val now : t -> Netsim.Sim.time
val peer_params : t -> Quic.Transport_params.t option
