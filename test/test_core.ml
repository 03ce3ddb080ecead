(* Per-connection memory follows use: an idle connection carries no
   plugin registry it never used and no handshake bytes the peer already
   acknowledged, and a stream's send buffer lets go of what the peer has
   acknowledged. *)

module Sim = Netsim.Sim
module Net = Netsim.Net
module Topology = Netsim.Topology
module C = Pquic.Connection
module P = Quic.Packet
module F = Quic.Frame
module Server = Pquic.Server

let server_addr = 1
let client_addr = 2

let dg wire =
  {
    Net.src = client_addr;
    dst = server_addr;
    size = String.length wire;
    payload = C.Quic_packet wire;
  }

(* Acknowledges every packet number the server's handshake burst can
   have used. *)
let forge_ack i =
  P.protect
    ~key:
      (P.derive_key ~client_cid:(Test_server_engine.scid_of i)
         ~server_cid:(Test_server_engine.dcid_of i))
    {
      P.header =
        {
          P.ptype = P.One_rtt;
          spin = false;
          dcid = Test_server_engine.dcid_of i;
          scid = 0L;
          pn = 1L;
        };
      payload =
        F.to_string
          (F.Ack { F.largest = 7L; delay_us = 0L; ranges = [ (0L, 7L) ] });
    }

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* A lean server engine whose replies go to a sink. *)
let make_server () =
  let sim = Sim.create () in
  let net = Net.create sim in
  Net.add_fallback_route net ~src:server_addr [];
  Net.attach net client_addr ignore;
  let cfg = { C.default_config with C.lean = true } in
  let srv = Server.create ~cfg ~sim ~net ~addr:server_addr ~seed:7L () in
  Server.listen srv;
  (sim, srv)

(* Words each field of [c] reaches. A field that reaches the engine the
   connection lives in (the simulator, the wheel, closures over the
   endpoint) is marked shared rather than counted. *)
let field_table srv c =
  let world = Obj.reachable_words (Obj.repr srv) in
  let po = c.C.po in
  let fields =
    [
      ("(record)", Obj.repr (Obj.size (Obj.repr c) + 1));
      ("paths", Obj.repr c.C.paths);
      ("local_cids", Obj.repr c.C.local_cids);
      ("sent", Obj.repr c.C.sent);
      ("inflight", Obj.repr c.C.inflight);
      ("sent_times ring", Obj.repr c.C.sent_times);
      ("acks", Obj.repr c.C.acks);
      ("streams", Obj.repr c.C.streams);
      ("stream_rr", Obj.repr c.C.stream_rr);
      ("crypto_send", Obj.repr c.C.crypto_send);
      ("crypto_recv", Obj.repr c.C.crypto_recv);
      ("crypto_acc", Obj.repr c.C.crypto_acc);
      ("ctrl", Obj.repr c.C.ctrl);
      ("local_params", Obj.repr c.C.local_params);
      ("peer_params", Obj.repr c.C.peer_params);
      ("po.builtin_ops", Obj.repr po.Pluginop.Types.builtin_ops);
      ("po.ops", Obj.repr po.Pluginop.Types.ops);
      ("po.op_stack", Obj.repr po.Pluginop.Types.op_stack);
      ("po.plugins", Obj.repr po.Pluginop.Types.plugins);
      ("po.vm_args", Obj.repr po.Pluginop.Types.vm_args);
      ("sched", Obj.repr c.C.sched);
      ("plugin_out", Obj.repr c.C.plugin_out);
      ("plugin_in", Obj.repr c.C.plugin_in);
      ("stats", Obj.repr c.C.stats);
      ("owner", Obj.repr c.C.owner);
      ("acquired", Obj.repr c.C.acquired);
      ("loss_alarm", Obj.repr c.C.loss_alarm);
      ("idle_alarm", Obj.repr c.C.idle_alarm);
    ]
  in
  String.concat ""
    (List.map
       (fun (name, v) ->
         let w =
           if name = "(record)" then (Obj.obj v : int)
           else Obj.reachable_words v
         in
         if 2 * w >= world then Printf.sprintf "  %-16s shared\n" name
         else Printf.sprintf "  %-16s %6d\n" name w)
       fields)

(* The ceiling is about twice the 488 words measured when a connection
   came to reach its endpoint through one owner record shared by every
   connection, in place of seven closures of its own (527 words before,
   the record 85 words against 91). At 537 words the send-time history
   had just become a ring of int slots (13 words idle, against 32 for
   the hashtable it replaced). Before the send buffer came to hold only
   unacknowledged strings and the protoop registry came to be built on
   first use, an idle lean server connection held 1,474 words, 536 of
   them a 4 KiB crypto send buffer and 358 an operation stack and
   built-in array nothing had used. *)
let idle_ceiling = 980

let test_idle_server_connection () =
  let n = 512 in
  let sim, srv = make_server () in
  let initials = Array.init n Test_server_engine.forge_initial in
  let acks = Array.init n forge_ack in
  let live0 = live_words () in
  Array.iter (fun w -> Server.handle_datagram srv (dg w)) initials;
  ignore (Sim.run ~until:(Sim.now sim) sim);
  Alcotest.(check int) "every initial accepted" n (Server.accepted srv);
  Array.iter (fun w -> Server.handle_datagram srv (dg w)) acks;
  ignore (Sim.run ~until:(Sim.now sim) sim);
  let per_conn = (live_words () - live0) / n in
  if per_conn > idle_ceiling then begin
    let c =
      Engine.Conn_table.fold srv.Server.ep.Pquic.Endpoint.conns
        (fun acc _ c -> match acc with None -> Some c | some -> some)
        None
    in
    Alcotest.failf "idle lean server connection: %d words, ceiling %d\n%s"
      per_conn idle_ceiling
      (match c with Some c -> field_table srv c | None -> "")
  end

(* Once a 2 MB response is delivered and every byte of it acknowledged,
   the server stream's send buffer holds none of it. *)
let test_sendbuf_released_after_get () =
  let topo =
    Topology.single_path ~seed:3L
      { Topology.d_ms = 10.; bw_mbps = 50.; loss = 0. }
  in
  match Exp.Runner.quic_transfer ~topo ~size:(2 * 1024 * 1024) () with
  | None -> Alcotest.fail "transfer did not complete"
  | Some r -> (
    let sim = topo.Topology.sim in
    ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_sec 1.)) sim);
    match r.Exp.Runner.server_conn with
    | None -> Alcotest.fail "no server connection"
    | Some c ->
      let s = Hashtbl.find c.C.streams 0 in
      Alcotest.(check bool) "nothing left to send" false
        (Quic.Sendbuf.has_pending s.C.sendb);
      let bytes = 8 * Obj.reachable_words (Obj.repr s.C.sendb) in
      if bytes >= 1024 then
        Alcotest.failf "acknowledged stream keeps %d bytes, ceiling 1024" bytes)

let tests =
  [
    ( "alloc",
      [
        Alcotest.test_case "idle lean server connection" `Quick
          test_idle_server_connection;
        Alcotest.test_case "send buffer released after a 2 MB GET" `Quick
          test_sendbuf_released_after_get;
      ] );
  ]
