(* Cross-host demo: the pluginization machinery is transport-neutral.
   The SAME plugin values — the monitoring plugin and the pluggable AIMD
   congestion controller, compiled once to eBPF bytecode — attach to two
   different hosts of the pluginop library:

     1. a PQUIC connection downloading 1 MB, and
     2. a plain TCP (tcpsim) sender pushing 1 MB,

   both over the same kind of lossy simulated path. Each host exposes its
   transport state through the Table 1 field-id space, so the monitoring
   pluglets read cwnd/RTT/packet counters without knowing which transport
   they run on, and AIMD replaces each host's congestion controller
   (Cubic on TCP, NewReno-style on QUIC) through get/set on f_cwnd. *)

module Topology = Netsim.Topology
module Sim = Netsim.Sim
module Net = Netsim.Net

let size = 1_000_000
let plugins = [ Plugins.Monitoring.plugin; Plugins.Extras.Aimd.plugin ]

let print_report tag r =
  Printf.printf
    "%s monitoring PI export:\n\
    \  packets sent/received: %Ld/%Ld\n\
    \  packets lost:          %Ld\n\
    \  retransmissions:       %Ld\n\
    \  avg RTT:               %.1f ms (from %Ld samples)\n\
    \  handshake time:        %.1f ms\n"
    tag r.Plugins.Monitoring.pkts_sent r.Plugins.Monitoring.pkts_received
    r.Plugins.Monitoring.pkts_lost r.Plugins.Monitoring.pkts_retransmitted
    (Int64.to_float r.Plugins.Monitoring.rtt_avg_ns /. 1e6)
    r.Plugins.Monitoring.rtt_samples
    (Int64.to_float r.Plugins.Monitoring.handshake_time_ns /. 1e6)

let path = { Topology.d_ms = 15.; bw_mbps = 20.; loss = 0.01 }

(* ------------------------- host 1: PQUIC ------------------------------- *)

let run_quic () =
  let topo = Topology.single_path ~seed:7L path in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L ()
  in
  let client =
    Pquic.Endpoint.create ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs)
      ~seed:2L ()
  in
  List.iter
    (fun p ->
      Pquic.Endpoint.add_plugin server p;
      Pquic.Endpoint.add_plugin client p)
    plugins;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true
              (String.make size 'x')));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:
        [ Plugins.Monitoring.name; Plugins.Extras.Aimd.name ]
  in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      Printf.printf "PQUIC host: established, plugins [%s]\n"
        (String.concat "; " (Pquic.Connection.plugin_names conn));
      Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET /1MB");
  let received = ref 0 in
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      received := !received + String.length data;
      if fin then begin
        Printf.printf "PQUIC host: %d bytes downloaded at t=%.3fs\n" !received
          (Sim.to_sec (Sim.now sim));
        Pquic.Connection.close conn ~reason:"done"
      end);
  conn.Pquic.Connection.on_message <-
    (fun msg ->
      Option.iter (print_report "PQUIC") (Plugins.Monitoring.decode_report msg));
  ignore (Sim.run ~until:(Sim.of_sec 120.) sim)

(* ------------------------- host 2: tcpsim ------------------------------ *)

let run_tcp () =
  let topo = Topology.single_path ~seed:7L path in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let client_addr = List.hd topo.Topology.client_addrs in
  let server_addr = topo.Topology.server_addr in
  let send ~src ~dst pkt =
    Net.send net
      { Net.src; dst; size = String.length pkt; payload = Net.Raw pkt }
  in
  let receiver =
    Tcpsim.Tcp.create_receiver
      ~transport:(send ~src:client_addr ~dst:server_addr)
      ~on_complete:(fun () -> ())
      ()
  in
  let sender =
    Tcpsim.Tcp.create_sender ~sim ~mss:1252
      ~transport:(send ~src:server_addr ~dst:client_addr)
      ~total:size
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
  Tcpsim.Tcp.set_on_message sender (fun msg ->
      Option.iter (print_report "TCP") (Plugins.Monitoring.decode_report msg));
  List.iter
    (fun p ->
      match Tcpsim.Tcp.inject_plugin sender p with
      | Ok () -> ()
      | Error e ->
        Printf.printf "TCP host: injection of %s failed: %s\n"
          p.Pluginop.Plugin.name e)
    plugins;
  Printf.printf "TCP host: plugins [%s]\n"
    (String.concat "; " (Tcpsim.Tcp.plugin_names sender));
  Tcpsim.Tcp.start_sender sender;
  ignore (Sim.run ~until:(Sim.of_sec 120.) sim);
  Printf.printf "TCP host: %d bytes delivered at t=%.3fs\n"
    (Tcpsim.Tcp.received_bytes receiver)
    (Sim.to_sec (Sim.now sim))

let () =
  Printf.printf "== same plugin bytecode, two transports ==\n";
  run_quic ();
  print_newline ();
  run_tcp ()
