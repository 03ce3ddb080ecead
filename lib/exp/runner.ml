(* Scenario drivers shared by the experiment harness (bin/experiments.ml),
   the benchmarks and the tests: a PQUIC request/response transfer with an
   arbitrary plugin mix, a raw TCP Cubic transfer over the simulated
   network, and a TCP transfer inside a PQUIC datagram-VPN tunnel
   (optionally multipath) — the workloads behind Figures 8-11 and
   Table 3. *)

module Sim = Netsim.Sim
module Net = Netsim.Net
module Topology = Netsim.Topology

let sim_cap = 900. (* seconds of simulated time before giving up *)

(* Run the simulation until [finished ()] or the cap; returns completion. *)
let run_until_done sim finished =
  let rec go () =
    if finished () then true
    else if Sim.to_sec (Sim.now sim) > sim_cap then false
    else if Sim.pending sim = 0 then finished ()
    else begin
      ignore
        (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_sec 1.)) ~max_events:5_000_000 sim);
      go ()
    end
  in
  go ()

type quic_result = {
  dct : float; (* request to last byte, seconds *)
  client_stats : Pquic.Connection.stats;
  server_stats : Pquic.Connection.stats option;
  client_conn : Pquic.Connection.t;
  server_conn : Pquic.Connection.t option;
}

(* A GET-style transfer: the client requests, the server answers with
   [size] bytes on the same stream. [plugins] are made available in both
   local caches; [to_inject] drives the plugins_to_inject parameter. *)
let quic_transfer ?(cfg = Pquic.Connection.default_config) ?(plugins = [])
    ?(to_inject = []) ?(multipath = false) ~topo ~size () =
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ~cfg ~sim ~net ~addr:topo.Topology.server_addr
      ~seed:0x5EedL ()
  in
  let extra_addrs =
    if multipath then
      match topo.Topology.client_addrs with _ :: rest -> rest | [] -> []
    else []
  in
  let client =
    Pquic.Endpoint.create ~cfg ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs)
      ~extra_addrs ~seed:0xC11e47L ()
  in
  List.iter
    (fun p ->
      Pquic.Endpoint.add_plugin server p;
      Pquic.Endpoint.add_plugin client p)
    plugins;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let server_conn = ref None in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      server_conn := Some c;
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true
              (String.make size 'x')));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:to_inject
  in
  let t_start = ref nan and t_done = ref nan in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      t_start := Sim.to_sec (Sim.now sim);
      Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET /file");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then t_done := Sim.to_sec (Sim.now sim));
  let completed = run_until_done sim (fun () -> not (Float.is_nan !t_done)) in
  if not completed then None
  else
    Some
      {
        dct = !t_done -. !t_start;
        client_stats = Pquic.Connection.stats conn;
        server_stats = Option.map Pquic.Connection.stats !server_conn;
        client_conn = conn;
        server_conn = !server_conn;
      }

(* Raw TCP Cubic download over the simulated network (the "outside the
   tunnel" baseline): the server pushes [size] bytes to the client. *)
let tcp_direct ?(mss = 1460) ~topo ~size () =
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let client_addr = List.hd topo.Topology.client_addrs in
  let server_addr = topo.Topology.server_addr in
  let send ~src ~dst pkt =
    Net.send net
      { Net.src; dst; size = String.length pkt; payload = Net.Raw pkt }
  in
  let completed = ref false in
  let receiver =
    Tcpsim.Tcp.create_receiver
      ~transport:(send ~src:client_addr ~dst:server_addr)
      ~on_complete:(fun () -> completed := true)
      ()
  in
  let sender =
    Tcpsim.Tcp.create_sender ~sim
      ~transport:(send ~src:server_addr ~dst:client_addr)
      ~mss ~total:size
      ~on_done:(fun () -> ())
      ()
  in
  Net.attach net client_addr (fun dg ->
      match dg.Net.payload with
      | Net.Raw pkt -> Tcpsim.Tcp.receiver_receive receiver pkt
      | _ -> ());
  Net.attach net server_addr (fun dg ->
      match dg.Net.payload with
      | Net.Raw pkt -> Tcpsim.Tcp.sender_receive sender pkt
      | _ -> ());
  let t0 = Sim.to_sec (Sim.now sim) in
  Tcpsim.Tcp.start_sender sender;
  if run_until_done sim (fun () -> !completed) then
    Some (Sim.to_sec (Sim.now sim) -. t0)
  else None

(* TCP Cubic inside a PQUIC VPN tunnel built on the Datagram plugin
   (Section 4.2), optionally spread over two paths by combining the
   Multipath plugin (Section 4.5). The inner MTU is 1400 (mss 1360), the
   outer MTU 1500-28; the DCT clock starts when the inner transfer starts,
   after the tunnel is up. *)
let tcp_vpn ?(multipath = false) ~topo ~size () =
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let cfg = { Pquic.Connection.default_config with mtu = 1472 } in
  let server =
    Pquic.Endpoint.create ~cfg ~sim ~net ~addr:topo.Topology.server_addr
      ~seed:0x5EedL ()
  in
  let extra_addrs =
    if multipath then
      match topo.Topology.client_addrs with _ :: rest -> rest | [] -> []
    else []
  in
  let client =
    Pquic.Endpoint.create ~cfg ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs)
      ~extra_addrs ~seed:0xC11e47L ()
  in
  let plugin_set =
    Plugins.Datagram.plugin
    :: (if multipath then [ Plugins.Multipath.plugin ] else [])
  in
  List.iter
    (fun p ->
      Pquic.Endpoint.add_plugin server p;
      Pquic.Endpoint.add_plugin client p)
    plugin_set;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let server_conn = ref None in
  server.Pquic.Endpoint.on_connection <- (fun c -> server_conn := Some c);
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:(List.map (fun (p : Pluginop.Plugin.t) -> p.name) plugin_set)
  in
  let completed = ref false in
  let t0 = ref nan in
  let tunnel_established = ref false in
  conn.Pquic.Connection.on_established <- (fun () -> tunnel_established := true);
  (* let the tunnel handshake and plugin activation settle, then start the
     inner transfer *)
  if not (run_until_done sim (fun () -> !tunnel_established)) then None
  else begin
    match !server_conn with
    | None -> None
    | Some sconn ->
      let mss = 1360 in
      let receiver_tx pkt = ignore (Plugins.Datagram.send conn pkt) in
      let sender_tx pkt = ignore (Plugins.Datagram.send sconn pkt) in
      let receiver =
        Tcpsim.Tcp.create_receiver ~transport:receiver_tx
          ~on_complete:(fun () -> completed := true)
          ()
      in
      let sender =
        Tcpsim.Tcp.create_sender ~sim ~transport:sender_tx ~mss ~total:size
          ~on_done:(fun () -> ())
          ()
      in
      conn.Pquic.Connection.on_message <-
        (fun pkt -> Tcpsim.Tcp.receiver_receive receiver pkt);
      sconn.Pquic.Connection.on_message <-
        (fun pkt -> Tcpsim.Tcp.sender_receive sender pkt);
      t0 := Sim.to_sec (Sim.now sim);
      Tcpsim.Tcp.start_sender sender;
      if run_until_done sim (fun () -> !completed) then
        Some (Sim.to_sec (Sim.now sim) -. !t0)
      else None
  end

(* The default WSP parameter ranges of the evaluation (Section 4):
   d in [2.5, 25] ms, bw in [5, 50] Mbps, lossless. *)
let default_points ?(count = 139) () =
  Wsp.design ~count
    [| { Wsp.lo = 2.5; hi = 25. }; { Wsp.lo = 5.; hi = 50. } |]
  |> List.map (fun p ->
         { Topology.d_ms = p.(0); bw_mbps = p.(1); loss = 0. })

(* The in-flight-communications ranges of the FEC evaluation (Figure 10):
   d in [100, 400] ms, bw in [0.3, 10] Mbps, loss in [1, 8] %. *)
let inflight_points ?(count = 139) () =
  Wsp.design ~count
    [|
      { Wsp.lo = 100.; hi = 400. };
      { Wsp.lo = 0.3; hi = 10. };
      { Wsp.lo = 0.01; hi = 0.08 };
    |]
  |> List.map (fun p ->
         { Topology.d_ms = p.(0); bw_mbps = p.(1); loss = p.(2) })
