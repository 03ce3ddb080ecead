(** Scenario drivers shared by the experiment harness, benchmarks and
    tests: a PQUIC request/response transfer with an arbitrary plugin mix,
    a raw TCP Cubic transfer over the simulated network, and a TCP transfer
    inside a PQUIC datagram-VPN tunnel — the workloads behind Figures 8-11
    and Table 3. *)

type quic_result = {
  dct : float; (** request to last byte, seconds of simulated time *)
  client_stats : Pquic.Connection.stats;
  server_stats : Pquic.Connection.stats option;
  client_conn : Pquic.Connection.t;
  server_conn : Pquic.Connection.t option;
}

val quic_transfer :
  ?cfg:Pquic.Connection.config ->
  ?plugins:Pluginop.Plugin.t list ->
  ?to_inject:string list ->
  ?multipath:bool ->
  topo:Netsim.Topology.t ->
  size:int ->
  unit ->
  quic_result option
(** A GET-style transfer: the client requests, the server answers with
    [size] bytes on the same stream. [plugins] populate both local caches;
    [to_inject] drives the plugins_to_inject transport parameter;
    [multipath] gives the client its extra addresses. [None] when the
    transfer does not complete (e.g. a plugin killed the connection). *)

val tcp_direct :
  ?mss:int -> topo:Netsim.Topology.t -> size:int -> unit -> float option
(** Raw TCP Cubic download (server pushes to client) — the "outside the
    tunnel" baseline. Returns the DCT in seconds. *)

val tcp_vpn :
  ?multipath:bool -> topo:Netsim.Topology.t -> size:int -> unit -> float option
(** TCP Cubic inside a PQUIC datagram-VPN tunnel (inner MTU 1400, mss
    1360), optionally spread over two paths with the multipath plugin. The
    DCT clock starts when the inner transfer starts, after the tunnel is
    up. *)

val default_points : ?count:int -> unit -> Netsim.Topology.path_params list
(** The WSP design over the paper's default ranges: d in [2.5, 25] ms,
    bw in [5, 50] Mbps, lossless; [count] defaults to 139. *)

val inflight_points : ?count:int -> unit -> Netsim.Topology.path_params list
(** The in-flight-communications ranges of Figure 10: d in [100, 400] ms,
    bw in [0.3, 10] Mbps, loss in [1, 8] %. *)
