(* Server engine: CID-routed connection table + sharded workers +
   shared timer heap, fronting the endpoint's accept path. *)

module Net = Netsim.Net
module Table = Engine.Conn_table
module Shard = Engine.Shard
module TW = Engine.Timer_wheel

type t = {
  ep : Endpoint.t;
  wheel : TW.t;
  shards : (Connection.t * Net.datagram) Shard.t;
  mutable routed : int;
}

(* A connection's shard follows its handshake CID: rotation changes the
   CIDs on the wire, not the owning worker. *)
let shard_of c = Int64.to_int (Connection.local_cid c) land max_int

let create ?cfg ?node ?(shards = 8) ~sim ~net ~addr ~seed () =
  let ep = Endpoint.create ?cfg ?node ~sim ~net ~addr ~seed () in
  let shards =
    Shard.create sim ~shards (fun _shard (c, dg) ->
        Connection.receive_datagram c dg)
  in
  { ep; wheel = TW.shared sim; shards; routed = 0 }

let handle_datagram t (dg : Net.datagram) =
  let wire = Endpoint.routable_wire dg in
  if String.length wire >= 9 then
    match Table.find_sub t.ep.Endpoint.conns wire 1 8 with
    | Some c ->
      t.routed <- t.routed + 1;
      Shard.enqueue t.shards (shard_of c) (c, dg)
    | None -> Endpoint.accept_initial t.ep dg wire

let listen t =
  List.iter
    (fun addr -> Net.attach t.ep.Endpoint.net addr (handle_datagram t))
    (t.ep.Endpoint.addr :: t.ep.Endpoint.extra_addrs)

let accepted t = t.ep.Endpoint.accepted
let connection_count t = Endpoint.connection_count t.ep

type stats = {
  accepted : int;
  conns : int;
  routed : int;
  dispatched : int;
  batches : int;
  wheel : TW.counters;
  table : int * int * int;
  plugin_cache : Node.counters;
}

let stats t =
  {
    accepted = accepted t;
    conns = connection_count t;
    routed = t.routed;
    dispatched = Shard.dispatched t.shards;
    batches = Shard.batches t.shards;
    wheel = TW.counters t.wheel;
    table = Table.stats t.ep.Endpoint.conns;
    plugin_cache = Node.counters t.ep.Endpoint.node;
  }
