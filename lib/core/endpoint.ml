(* A PQUIC endpoint: binds network addresses, demultiplexes incoming
   packets to connections by destination connection ID, accepts new
   connections (server role), and fronts the node-scope plugin machinery
   ([Node]) — the local cache of available plugins and the
   cross-connection PRE cache of Section 2.5.

   Demultiplexing is an O(1) probe of an open-addressed table keyed by
   the *full* CID bytes ([Engine.Conn_table]): every CID a connection
   answers to — the handshake CID and every spare issued for rotation —
   maps to it, and retirement removes exactly that key. The lookup runs
   directly against the CID bytes inside the wire image, so routing a
   datagram allocates nothing.

   Every connection reaches the endpoint through one [owner] record built
   in [create]: spare CIDs come from its RNG and are routed in its table,
   and the node's instances are recorded on the connection ([acquired])
   and given back to the node when it closes, which also unroutes all its
   CIDs (a failed connection stays routed). *)

module Sim = Netsim.Sim
module Net = Netsim.Net
module TP = Quic.Transport_params
module Table = Engine.Conn_table

let src = Logs.Src.create "pquic.endpoint"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  sim : Sim.t;
  net : Net.t;
  cfg : Connection.config;
  addr : Net.addr;
  mutable extra_addrs : Net.addr list;
  conns : Connection.t Table.t;
  node : Node.t;
  rng : Netsim.Rng.t;
  mutable prover : name:string -> formula:string -> string option;
  mutable verifier : name:string -> bytes:string -> proof:string -> bool;
  mutable on_connection : Connection.t -> unit;
  mutable plugins_to_inject : string list;
  mutable accepted : int;
  tweak_params : TP.t -> TP.t;
      (* final say on our transport parameters (e.g. a chaos harness
         shrinking idle_timeout); applied by [base_params] *)
  owner : Connection.owner;
}

let fresh_cid t = Netsim.Rng.next_int64 t.rng

(* Node-scope plugin machinery, delegated (see [Node]). *)
let add_plugin t plugin = Node.add_plugin t.node plugin
let has_plugin t name = Node.has_plugin t.node name
let acquire_instance t name = Node.acquire_instance t.node name
let cache_hits t = t.node.Node.hits
let cache_misses t = t.node.Node.misses

(* Serve a plugin to a requesting peer: (compressed bytecode, proof). *)
let provide_plugin t name ~formula =
  match Node.find_plugin t.node name with
  | None -> None
  | Some plugin -> (
    match t.prover ~name ~formula with
    | None -> None
    | Some proof ->
      let compressed = Compress.Lzss.compress (Pluginop.Plugin.serialize plugin) in
      Some (compressed, proof))

let route t cid c = Table.add t.conns (Table.key_of_cid cid) c
let unroute conns cid = Table.remove conns (Table.key_of_cid cid)

let create ?(cfg = Connection.default_config) ?(extra_addrs = []) ?node
    ?(tweak_params = fun p -> p) ~sim ~net ~addr ~seed () =
  let node = match node with Some n -> n | None -> Node.create () in
  let conns = Table.create () and rng = Netsim.Rng.create seed in
  let rec t =
    {
      sim;
      net;
      cfg;
      addr;
      extra_addrs;
      tweak_params;
      conns;
      node;
      rng;
      prover = (fun ~name:_ ~formula:_ -> None);
      verifier = (fun ~name:_ ~bytes:_ ~proof:_ -> false);
      on_connection = ignore;
      plugins_to_inject = [];
      accepted = 0;
      owner;
    }
  and owner =
    {
      Connection.issue_cid =
        (fun c ->
          let cid = fresh_cid t in
          route t cid c;
          cid);
      retire_cid = (fun _ cid -> unroute conns cid);
      provide_plugin = (fun _ name ~formula -> provide_plugin t name ~formula);
      verify_plugin = (fun _ ~name ~bytes ~proof -> t.verifier ~name ~bytes ~proof);
      plugin_received = (fun _ plugin -> add_plugin t plugin);
      acquire_instance =
        (fun c name ->
          let got = Node.acquire_instance node name in
          Option.iter (fun i -> c.Connection.acquired <- i :: c.acquired) got;
          got);
      closed =
        (fun c ->
          Node.release node c.Connection.acquired;
          c.acquired <- [];
          (* the handshake CID is seq 0 of [local_cids] until retired *)
          List.iter (fun (_, cid) -> unroute conns cid) c.local_cids);
    }
  in
  t

let base_params t =
  t.tweak_params
    {
      TP.default with
      TP.supported_plugins = Node.supported_plugins t.node;
      TP.plugins_to_inject = t.plugins_to_inject;
      TP.active_paths = t.extra_addrs;
    }

(* Wire-format peek at the source CID of a long header (accept path). *)
let scid_of_wire wire =
  if String.length wire >= 17 && Char.code wire.[0] land 0x80 <> 0 then
    Some (String.get_int64_be wire 9)
  else None

(* Accept path: an authenticated Initial to an unknown CID creates the
   server-side connection. Split out of [handle_datagram] so the server
   engine can reuse it behind its own routing. *)
let accept_initial t (dg : Net.datagram) wire =
  let dcid = String.get_int64_be wire 1 in
  (* an Initial packet to an unknown CID starts a new connection — but
     only if it authenticates under the initial key, else a corrupted
     packet whose damaged CID missed its connection would conjure a
     spurious half-open server connection. Handshake-type long headers
     (reprobe PATH_CHALLENGEs aimed at a CID the peer already retired)
     never create connections — they are stale. *)
  if Char.code wire.[0] land 0xe0 <> 0xc0 then
    Log.debug (fun m ->
        m "dropping packet to unknown cid %Lx (not an initial)" dcid)
  else begin
    match Quic.Packet.unprotect_view ~key:Connection.initial_key wire with
    | exception (Quic.Packet.Authentication_failed | Quic.Packet.Malformed) ->
      Log.debug (fun m -> m "dropping unauthenticated initial packet")
    | _ -> (
      match scid_of_wire wire with
      | None -> ()
      | Some scid ->
        let c =
          Connection.create ~sim:t.sim ~net:t.net ~cfg:t.cfg ~owner:t.owner
            ~role:Connection.Server ~local_addr:dg.Net.dst
            ~remote_addr:dg.Net.src ~local_cid:dcid ~remote_cid:scid
            ~local_params:(base_params t) ()
        in
        c.Connection.key <-
          Quic.Packet.derive_key ~client_cid:scid ~server_cid:dcid;
        route t dcid c;
        Connection.inject_local_plugins c;
        t.accepted <- t.accepted + 1;
        t.on_connection c;
        Connection.receive_datagram c dg)
  end

(* CE-marked datagrams arrive with their payload wrapped; route on the
   inner packet, the connection reads the mark itself. Corrupted ones
   are demultiplexed on the *damaged* wire image — the endpoint sees
   what the network delivered, so a flipped CID byte may miss the
   connection and the packet dies here, exactly as it should. Inlined,
   so the server's routing path makes no extra call per datagram. *)
let[@inline] routable_wire (dg : Net.datagram) =
  match (match dg.Net.payload with Net.Ce p -> p | p -> p) with
  | Connection.Quic_packet wire -> wire
  | Net.Corrupt (Connection.Quic_packet clean, descr) ->
    Net.corrupt_string descr clean
  | _ -> ""

let handle_datagram t (dg : Net.datagram) =
  let wire = routable_wire dg in
  if String.length wire >= 9 then
    (* route on the CID bytes in place — no key allocation *)
    match Table.find_sub t.conns wire 1 8 with
    | Some c -> Connection.receive_datagram c dg
    | None -> accept_initial t dg wire

(* Bind all our addresses so packets reach the demultiplexer. *)
let listen t =
  List.iter
    (fun addr -> Net.attach t.net addr (handle_datagram t))
    (t.addr :: t.extra_addrs)

let connect ?(plugins_to_inject = []) t ~remote_addr =
  let local_cid = fresh_cid t in
  let remote_cid = fresh_cid t in
  let params =
    { (base_params t) with TP.plugins_to_inject =
        (match plugins_to_inject with [] -> t.plugins_to_inject | l -> l) }
  in
  let c =
    Connection.create ~sim:t.sim ~net:t.net ~cfg:t.cfg ~owner:t.owner
      ~role:Connection.Client ~local_addr:t.addr ~remote_addr ~local_cid
      ~remote_cid ~local_params:params ()
  in
  c.Connection.key <-
    Quic.Packet.derive_key ~client_cid:local_cid ~server_cid:remote_cid;
  route t local_cid c;
  Connection.inject_local_plugins c;
  Connection.start_client c;
  c

(* Connections, not table entries: a connection with spare CIDs is
   registered under each of them, so dedup by handshake CID (unique and
   stable across rotation) rather than pairwise — this runs against
   million-entry tables in the server bench. *)
let connection_count t =
  let seen = Hashtbl.create 64 in
  Table.fold t.conns
    (fun acc _ c ->
      let cid = Connection.local_cid c in
      if Hashtbl.mem seen cid then acc
      else begin
        Hashtbl.add seen cid ();
        acc + 1
      end)
    0
