(** Massive-concurrency server engine: the "third host" shape.

    Layers an {!Endpoint} (full-CID demux table + accept path + node
    plugin cache) under sharded worker run-queues ({!Engine.Shard}) and
    the per-simulator timer wheel ({!Engine.Timer_wheel}): datagrams for
    established connections are routed O(1) by the CID bytes in the wire
    image and enqueued on the owning connection's shard; each busy shard
    drains in batches behind a single simulator event. Initials to
    unknown CIDs take the accept path inline. *)

type t = {
  ep : Endpoint.t;
  wheel : Engine.Timer_wheel.t;
  shards : (Connection.t * Netsim.Net.datagram) Engine.Shard.t;
  mutable routed : int;  (** datagrams routed to an existing connection *)
}

val create :
  ?cfg:Connection.config ->
  ?node:Node.t ->
  ?shards:int ->
  sim:Netsim.Sim.t ->
  net:Netsim.Net.t ->
  addr:Netsim.Net.addr ->
  seed:int64 ->
  unit ->
  t
(** [shards] worker queues (default 8), each draining at most 64
    datagrams per simulator event. [node] shares the plugin cache with other
    endpoints of the host. *)

val handle_datagram : t -> Netsim.Net.datagram -> unit
(** Route by full CID: known connection → its shard's run queue;
    unknown CID → the authenticated-Initial accept path. *)

val listen : t -> unit

val accepted : t -> int
val connection_count : t -> int

type stats = {
  accepted : int;
  conns : int;
  routed : int;
  dispatched : int;
  batches : int;
  wheel : Engine.Timer_wheel.counters;
  table : int * int * int;  (** live, capacity, tombstones *)
  plugin_cache : Node.counters;
}

val stats : t -> stats
