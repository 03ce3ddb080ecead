(* Engine-level connection semantics: flow control, close propagation,
   multiple streams, concurrent connections on one endpoint pair, spin bit
   and edge-case transfers. *)

module Topology = Netsim.Topology
module Sim = Netsim.Sim

let check = Alcotest.check

let mk ?(seed = 5L) ?(d_ms = 10.) ?(bw = 20.) ?(loss = 0.)
    ?(cfg = Pquic.Connection.default_config) () =
  let topo = Topology.single_path ~seed { Topology.d_ms; bw_mbps = bw; loss } in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ~cfg ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L ()
  in
  let client =
    Pquic.Endpoint.create ~cfg ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  (topo, server, client)

let test_zero_byte_response () =
  let topo, server, client = mk () in
  let sim = topo.Topology.sim in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true ""));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let fin_seen = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      if fin then begin
        fin_seen := true;
        check Alcotest.string "empty body" "" data
      end);
  ignore (Sim.run ~until:(Sim.of_sec 5.) sim);
  check Alcotest.bool "FIN-only response delivered" true !fin_seen

let test_multiple_streams_interleave () =
  let topo, server, client = mk () in
  let sim = topo.Topology.sim in
  let sizes = [ (0, 40_000); (4, 90_000); (8, 10_000) ] in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            let size = List.assoc id sizes in
            Pquic.Connection.write_stream c ~id ~fin:true
              (String.make size (Char.chr (Char.code 'a' + id))));
  );
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let got : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let fins = ref 0 in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      List.iter
        (fun (id, _) -> Pquic.Connection.write_stream conn ~id ~fin:true "GET")
        sizes);
  conn.Pquic.Connection.on_stream_data <-
    (fun id data ~fin ->
      Hashtbl.replace got id
        (Option.value ~default:0 (Hashtbl.find_opt got id) + String.length data);
      if fin then incr fins);
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.int "all streams finished" 3 !fins;
  List.iter
    (fun (id, size) ->
      check Alcotest.int (Printf.sprintf "stream %d complete" id) size
        (Option.value ~default:0 (Hashtbl.find_opt got id)))
    sizes

let test_close_propagates () =
  let topo, server, client = mk () in
  let sim = topo.Topology.sim in
  let server_closed = ref false in
  server.Pquic.Endpoint.on_connection <-
    (fun c -> c.Pquic.Connection.on_closed <- (fun () -> server_closed := true));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let client_closed = ref false in
  conn.Pquic.Connection.on_closed <- (fun () -> client_closed := true);
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.close conn ~reason:"bye");
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check Alcotest.bool "server saw CONNECTION_CLOSE" true !server_closed;
  check Alcotest.bool "client closed" true !client_closed;
  check Alcotest.bool "client state closed" true
    (Pquic.Connection.state conn = Pquic.Connection.Closed)

let test_flow_control_respected () =
  (* a 64 kB connection window: the sender must never have more than that
     outstanding, so the transfer is window-limited but still completes *)
  let cfg = Pquic.Connection.default_config in
  let topo, server, client = mk ~cfg () in
  let sim = topo.Topology.sim in
  let sconn = ref None in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      sconn := Some c;
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true (String.make 400_000 'x')));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let done_ = ref false in
  (* continuously assert the invariant while running *)
  let violations = ref 0 in
  let rec monitor () =
    (match !sconn with
    | Some c ->
      let sent = c.Pquic.Connection.data_sent in
      let allowed = c.Pquic.Connection.max_data_remote in
      if sent > allowed then incr violations
    | None -> ());
    if not !done_ then ignore (Sim.schedule sim ~delay:(Sim.of_ms 5.) monitor)
  in
  monitor ();
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "transfer completed" true !done_;
  check Alcotest.int "sender never exceeded the connection window" 0 !violations

let test_concurrent_connections () =
  let topo, server, client = mk () in
  let sim = topo.Topology.sim in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id data ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true ("echo:" ^ data)));
  let finished = ref 0 in
  let conns =
    List.init 5 (fun k ->
        let conn =
          Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
        in
        let payload = Printf.sprintf "req-%d" k in
        conn.Pquic.Connection.on_established <-
          (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true payload);
        conn.Pquic.Connection.on_stream_data <-
          (fun _ data ~fin ->
            if fin then begin
              check Alcotest.string "echo routed to the right connection"
                ("echo:" ^ payload) data;
              incr finished
            end);
        conn)
  in
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check Alcotest.int "all five connections served" 5 !finished;
  (* distinct connection IDs demultiplex them *)
  let cids = List.map Pquic.Connection.local_cid conns in
  check Alcotest.int "unique client CIDs" 5
    (List.length (List.sort_uniq compare cids))

let test_spin_bit_spins () =
  (* the Spin Bit inverts at the client and echoes at the server: over a
     transfer it must have taken both values at the client *)
  let topo, server, client = mk () in
  let sim = topo.Topology.sim in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true (String.make 200_000 'x')));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let seen_true = ref false and seen_false = ref false in
  let done_ = ref false in
  let rec sample () =
    if conn.Pquic.Connection.spin then seen_true := true else seen_false := true;
    if not !done_ then ignore (Sim.schedule sim ~delay:(Sim.of_ms 7.) sample)
  in
  sample ();
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "spin bit alternated" true (!seen_true && !seen_false)

let test_large_request_small_response () =
  (* upload-heavy direction exercises the client's congestion control *)
  let topo, server, client = mk ~loss:0.01 () in
  let sim = topo.Topology.sim in
  let received = ref 0 in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id data ~fin ->
          received := !received + String.length data;
          if fin then Pquic.Connection.write_stream c ~id ~fin:true "ok"));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let done_ = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      Pquic.Connection.write_stream conn ~id:0 ~fin:true (String.make 500_000 'u'));
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 60.) sim);
  check Alcotest.bool "upload acknowledged" true !done_;
  check Alcotest.int "server got every byte" 500_000 !received

let test_wrong_key_ignored () =
  (* a packet for another connection (wrong dcid) must be ignored, not
     corrupt the state *)
  let topo, server, client = mk () in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true "resp"));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let done_ = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      (* inject a forged short-header packet with the client's CID but a
         wrong key: authentication must reject it silently *)
      let forged =
        Quic.Packet.protect ~key:0xBADL
          {
            header =
              { Quic.Packet.ptype = Quic.Packet.One_rtt; spin = false;
                dcid = Pquic.Connection.local_cid conn; scid = 0L; pn = 9999L };
            payload = "\x01" (* PING *);
          }
      in
      Netsim.Net.send net
        { Netsim.Net.src = topo.Topology.server_addr;
          dst = List.hd topo.Topology.client_addrs;
          size = String.length forged + 28;
          payload = Pquic.Connection.Quic_packet forged };
      Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check Alcotest.bool "transfer unaffected by the forgery" true !done_;
  check Alcotest.bool "connection still healthy" true
    (Pquic.Connection.state conn = Pquic.Connection.Established)

let test_nat_rebinding () =
  (* mid-transfer, the client starts sending from its second address (a NAT
     rebinding): the connection is identified by CID, so the server follows
     and the transfer completes *)
  let p = { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. } in
  let topo = Topology.dual_path ~seed:5L p p in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L ()
  in
  let addr1 = List.nth topo.Topology.client_addrs 0 in
  let addr2 = List.nth topo.Topology.client_addrs 1 in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:addr1 ~extra_addrs:[ addr2 ] ~seed:2L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true (String.make 300_000 'x')));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let done_ = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET";
      (* rebind after 100 ms: the client's packets now leave from addr2 *)
      ignore
        (Sim.schedule sim ~delay:(Sim.of_ms 100.) (fun () ->
             Pquic.Connection.rebind conn ~new_local:addr2)));
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "transfer survives the rebinding" true !done_;
  check Alcotest.bool "client really moved" true
    (conn.Pquic.Connection.paths.(0).Pquic.Connection.local_addr = addr2)

let test_hostile_rebinding () =
  (* a NAT whose binding dies mid-transfer, with CID rotation enabled: the
     server's short headers to the stale public address are blackholed, the
     client's stall watchdog revalidates the fresh 4-tuple (PATH_CHALLENGE /
     PATH_RESPONSE, RFC 9000 §9) and the transfer completes — with zero
     plugin sanctions, since none of this is the plugins' fault *)
  let module Net = Netsim.Net in
  let module Mbox = Netsim.Middlebox in
  let topo =
    Topology.single_path ~seed:5L { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let addr1 = List.hd topo.Topology.client_addrs in
  let srv = topo.Topology.server_addr in
  let nat =
    Mbox.nat ~inside:addr1 ~public_base:700 ~idle_timeout:(Sim.of_sec 5.) ()
  in
  Net.interpose net ~src:addr1 ~dst:srv [ Mbox.nat_up nat ];
  (match Net.route net ~src:srv ~dst:addr1 with
  | Some links -> Net.add_fallback_route net ~src:srv links
  | None -> Alcotest.fail "no return route");
  Net.interpose_fallback net ~src:srv [ Mbox.nat_down nat ];
  let cfg =
    { Pquic.Connection.default_config with Pquic.Connection.cid_pool = 2 }
  in
  let server = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:srv ~seed:1L () in
  let client = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:addr1 ~seed:2L () in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let sconn = ref None in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      if !sconn = None then sconn := Some c;
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true
              (String.make 300_000 'x')));
  let conn = Pquic.Endpoint.connect client ~remote_addr:srv in
  let done_ = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET";
      ignore
        (Sim.schedule sim ~delay:(Sim.of_ms 100.) (fun () ->
             Mbox.nat_force_expire nat)));
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "transfer survives the hostile rebinding" true !done_;
  check Alcotest.bool "nat really rebound" true (Mbox.nat_rebindings nat >= 1);
  (match !sconn with
  | None -> Alcotest.fail "no server connection"
  | Some sc ->
    let st = Pquic.Connection.stats sc and ct = Pquic.Connection.stats conn in
    check Alcotest.bool "server validated the new path" true
      (st.Pquic.Connection.paths_validated >= 1);
    check Alcotest.int "no server sanctions" 0 st.Pquic.Connection.plugin_sanctions;
    check Alcotest.int "no client sanctions" 0 ct.Pquic.Connection.plugin_sanctions)

let test_loss_alarm_reprobe () =
  (* an uploading client with spare CIDs whose packets are blackholed for
     far longer than two PTOs, while the server's keep reaching it: the
     second loss-alarm expiry is a full RTO, whose stall escape
     ([Sender.rotate_and_reprobe], handed to [Recovery.on_loss_alarm] by
     the alarm's fire closure) rotates to a spare CID and reprobes the
     path. The server echoes what it receives, so the client is never
     silent long enough for the downlink-stall watchdog to rotate first:
     the rotation is counted while the uplink is still dark. The upload
     completes once the uplink is back. *)
  let module Net = Netsim.Net in
  let dark_from = Sim.of_ms 200. and dark_until = Sim.of_ms 800. in
  let topo =
    Topology.single_path ~seed:5L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let addr1 = List.hd topo.Topology.client_addrs in
  let srv = topo.Topology.server_addr in
  Net.interpose net ~src:addr1 ~dst:srv
    [
      {
        Net.node_name = "uplink-blackout";
        process =
          (fun ~now dg ->
            if now >= dark_from && now < dark_until then Error "dark"
            else Ok dg);
      };
    ];
  let cfg =
    { Pquic.Connection.default_config with Pquic.Connection.cid_pool = 2 }
  in
  let server = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:srv ~seed:1L () in
  let client = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:addr1 ~seed:2L () in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let upload = 1_000_000 in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id data ~fin -> Pquic.Connection.write_stream c ~id ~fin data));
  let conn = Pquic.Endpoint.connect client ~remote_addr:srv in
  let echoed = ref 0 and done_ = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () ->
      Pquic.Connection.write_stream conn ~id:0 ~fin:true
        (String.make upload 'u'));
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      echoed := !echoed + String.length data;
      if fin then done_ := true);
  let rotated_in_dark = ref 0 in
  ignore
    (Sim.schedule sim ~delay:dark_until (fun () ->
         rotated_in_dark :=
           (Pquic.Connection.stats conn).Pquic.Connection.cids_rotated));
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check Alcotest.bool "client rotated to a spare CID during the blackout"
    true (!rotated_in_dark >= 1);
  check Alcotest.bool "upload completes after the blackout" true !done_;
  check Alcotest.int "every byte echoed back" upload !echoed

let test_oversized_transport_params () =
  (* hundreds of plugin names make the params blob span several CRYPTO
     packets: the handshake must reassemble it *)
  let topo, server, client = mk () in
  let sim = topo.Topology.sim in
  let many =
    List.init 200 (fun k -> Printf.sprintf "org.example.very-long-plugin-name-%04d" k)
  in
  client.Pquic.Endpoint.plugins_to_inject <- many;
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true "resp"));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let done_ = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <- (fun _ _ ~fin -> if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check Alcotest.bool "multi-packet handshake completed" true !done_;
  match Pquic.Connection.peer_params conn with
  | Some _ -> ()
  | None -> Alcotest.fail "peer params missing"

let test_idle_timeout () =
  let cfg = Pquic.Connection.default_config in
  let topo, server, client = mk ~cfg () in
  ignore server;
  let sim = topo.Topology.sim in
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let closed_at = ref nan in
  conn.Pquic.Connection.on_closed <-
    (fun () -> closed_at := Sim.to_sec (Sim.now sim));
  (* handshake completes, then silence: default idle timeout is 30 s *)
  ignore (Sim.run ~until:(Sim.of_sec 120.) sim);
  check Alcotest.bool "connection idled out" true
    (Pquic.Connection.state conn = Pquic.Connection.Closed);
  check Alcotest.bool
    (Printf.sprintf "closed around the idle period (%.1f s)" !closed_at)
    true
    (!closed_at > 29. && !closed_at < 62.)

let test_active_connection_never_idles () =
  let topo, server, client = mk () in
  let sim = topo.Topology.sim in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id data ~fin -> if fin then Pquic.Connection.write_stream c ~id ~fin:true data));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let echoes = ref 0 in
  (* one small echo every 10 s for 70 s: far apart, but under the timeout *)
  conn.Pquic.Connection.on_established <-
    (fun () ->
      let rec tick k =
        if k < 7 then begin
          Pquic.Connection.write_stream conn ~id:(4 * k) ~fin:true "ping";
          ignore (Sim.schedule sim ~delay:(Sim.of_sec 10.) (fun () -> tick (k + 1)))
        end
      in
      tick 0);
  conn.Pquic.Connection.on_stream_data <- (fun _ _ ~fin -> if fin then incr echoes);
  (* stop checking before the post-traffic silence itself exceeds the
     idle period *)
  ignore (Sim.run ~until:(Sim.of_sec 85.) sim);
  check Alcotest.int "all echoes arrived" 7 !echoes;
  check Alcotest.bool "stayed established through 70 s of sparse traffic" true
    (Pquic.Connection.state conn = Pquic.Connection.Established)

let tests =
  [
    ("engine", [
      Alcotest.test_case "zero-byte response" `Quick test_zero_byte_response;
      Alcotest.test_case "multiple streams" `Quick test_multiple_streams_interleave;
      Alcotest.test_case "close propagates" `Quick test_close_propagates;
      Alcotest.test_case "flow control" `Quick test_flow_control_respected;
      Alcotest.test_case "concurrent connections" `Quick test_concurrent_connections;
      Alcotest.test_case "spin bit" `Quick test_spin_bit_spins;
      Alcotest.test_case "upload direction" `Quick test_large_request_small_response;
      Alcotest.test_case "forged packet ignored" `Quick test_wrong_key_ignored;
      Alcotest.test_case "nat rebinding" `Quick test_nat_rebinding;
      Alcotest.test_case "hostile rebinding" `Quick test_hostile_rebinding;
      Alcotest.test_case "loss-alarm reprobe" `Quick test_loss_alarm_reprobe;
      Alcotest.test_case "oversized transport params" `Quick test_oversized_transport_params;
      Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
      Alcotest.test_case "activity defeats idle" `Quick test_active_connection_never_idles;
    ]);
  ]
