(* Protocol-operation anchor semantics (Section 2.2/2.4): passive pre/post
   pluglets observe but cannot write protoop buffers, replace pluglets
   override built-in behaviour, plugins can define new operations and call
   them through run_protoop, and external operations are reachable only
   from the application. *)

module Topology = Netsim.Topology
module Sim = Netsim.Sim
open Plc.Ast

let check = Alcotest.check

let pluglet = Plugins.Dsl.pluglet
let func = Plugins.Dsl.func

let run_transfer ?(size = 50_000) ~plugins ~to_inject () =
  let topo =
    Topology.single_path ~seed:5L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size ()

(* a passive pluglet that tries to WRITE into the frame buffer it is shown:
   the PRE maps protoop buffers read-only for pre/post anchors, so this is
   a memory violation and the plugin dies with the connection *)
let nosy_plugin =
  {
    Pluginop.Plugin.name = "org.test.nosy";
    pluglets =
      [
        pluglet ~op:Pluginop.Protoop.process_frame ~param:Quic.Frame.type_stream
          ~anchor:Pluginop.Protoop.Pre
          (func "nosy" [ "buf"; "len"; "pn" ]
             [ Store (Ebpf.Insn.W8, Var "buf", i 0); Return (i 0) ]);
      ];
  }

(* intentionally unused: process_frame pre anchors receive only (pn) for
   core frames; write through a buffer-bearing op instead *)
let _ = nosy_plugin

let nosy_parse_plugin =
  {
    Pluginop.Plugin.name = "org.test.nosy-parse";
    pluglets =
      [
        (* passive observer on the datagram parse operation: gets the frame
           buffer and tries to corrupt it *)
        pluglet ~op:Pluginop.Protoop.parse_frame ~param:Quic.Frame.type_datagram
          ~anchor:Pluginop.Protoop.Pre
          (func "nosy_parse" [ "buf"; "len" ]
             [ Store (Ebpf.Insn.W8, Var "buf", i 255); Return (i 0) ]);
      ];
  }

let test_passive_pluglets_cannot_write_buffers () =
  (* datagram plugin provides the frames; the nosy passive observer must be
     sanctioned on the first DATAGRAM frame it sees *)
  let topo =
    Topology.single_path ~seed:5L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  List.iter
    (fun p -> Pquic.Endpoint.add_plugin server p; Pquic.Endpoint.add_plugin client p)
    [ Plugins.Datagram.plugin; nosy_parse_plugin ];
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let sconn = ref None in
  server.Pquic.Endpoint.on_connection <- (fun c -> sconn := Some c);
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[ Plugins.Datagram.name; "org.test.nosy-parse" ]
  in
  conn.Pquic.Connection.on_established <-
    (fun () -> ignore (Plugins.Datagram.send conn "boom"));
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  match !sconn with
  | Some c -> (
    match Pquic.Connection.state c with
    | Pquic.Connection.Failed _ ->
      check Alcotest.bool "nosy plugin removed" false
        (Pquic.Connection.has_plugin c "org.test.nosy-parse")
    | _ -> Alcotest.fail "write from a passive anchor was not sanctioned")
  | None -> Alcotest.fail "no server connection"

(* pre and post anchors both run, and several passive pluglets coexist on
   one operation *)
let multi_observer name field_off =
  {
    Pluginop.Plugin.name;
    pluglets =
      [
        pluglet ~op:Pluginop.Protoop.packet_was_sent ~anchor:Pluginop.Protoop.Pre
          (func "obs_pre" [ "pn"; "path"; "size" ]
             (Plugins.Dsl.with_state ~id:9 ~size:32
                [ Plugins.Dsl.bump field_off; Return (i 0) ]));
        pluglet ~op:Pluginop.Protoop.packet_was_sent ~anchor:Pluginop.Protoop.Post
          (func "obs_post" [ "pn"; "path"; "size" ]
             (Plugins.Dsl.with_state ~id:9 ~size:32
                [ Plugins.Dsl.bump (field_off + 8); Return (i 0) ]));
        (* export both counters when the connection ends *)
        pluglet ~op:Pluginop.Protoop.connection_closed ~anchor:Pluginop.Protoop.Post
          (func "obs_export" []
             (Plugins.Dsl.with_state ~id:9 ~size:32
                [ Plugins.Dsl.push_message (v "st") (i 32); Return (i 0) ]));
      ];
  }

let test_pre_and_post_both_fire () =
  let plugin = multi_observer "org.test.observer" 0 in
  let topo =
    Topology.single_path ~seed:5L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.add_plugin server plugin;
  Pquic.Endpoint.add_plugin client plugin;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true "pong"));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[ "org.test.observer" ]
  in
  let counters = ref None in
  conn.Pquic.Connection.on_message <-
    (fun m ->
      if String.length m >= 16 then
        counters := Some (String.get_int64_le m 0, String.get_int64_le m 8));
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "ping");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin -> if fin then Pquic.Connection.close conn ~reason:"done");
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  match !counters with
  | Some (pre, post) ->
    check Alcotest.bool "pre fired" true (pre > 0L);
    check Alcotest.int64 "pre and post fire equally" pre post;
    check Alcotest.int64 "counts match engine stats"
      (Int64.of_int (Pquic.Connection.stats conn).Pquic.Connection.pkts_sent)
      pre
  | None -> Alcotest.fail "observer export missing"

(* replace anchor really overrides the default: a pluglet replacing
   update_rtt that drops the sample leaves srtt at its default *)
let rtt_muzzle =
  {
    Pluginop.Plugin.name = "org.test.rtt-muzzle";
    pluglets =
      [
        pluglet ~op:Pluginop.Protoop.update_rtt ~anchor:Pluginop.Protoop.Replace
          (func "muzzle" [ "sample"; "path" ] [ Return (i 0) ]);
      ];
  }

let test_replace_overrides_default () =
  match
    run_transfer ~plugins:[ rtt_muzzle ] ~to_inject:[ "org.test.rtt-muzzle" ] ()
  with
  | Some r ->
    let conn = r.Exp.Runner.client_conn in
    let srtt = Quic.Rtt.samples conn.Pquic.Connection.paths.(0).Pquic.Connection.rtt in
    check Alcotest.int "no RTT sample ever recorded" 0 srtt
  | None -> Alcotest.fail "transfer failed"

(* a plugin defining a brand-new protocol operation, called from an
   external operation through run_protoop — the Figure 2 noparam_op2 case *)
let op_square = 130
let op_entry_point = 131

let composing_plugin =
  {
    Pluginop.Plugin.name = "org.test.composer";
    pluglets =
      [
        pluglet ~op:op_square ~anchor:Pluginop.Protoop.Replace
          (func "square" [ "x" ] [ Return (Var "x" *: Var "x") ]);
        pluglet ~op:op_entry_point ~anchor:Pluginop.Protoop.External
          (func "entry" [ "x" ]
             [
               Return
                 (Call
                    ( "run_protoop",
                      [ i op_square; Const (-1L); Var "x"; i 0; i 0 ] )
                  +: i 1);
             ]);
      ];
  }

let test_plugin_defined_operation_composition () =
  match
    run_transfer ~plugins:[ composing_plugin ] ~to_inject:[ "org.test.composer" ] ()
  with
  | Some r ->
    let conn = r.Exp.Runner.client_conn in
    (match
       Pquic.Connection.call_external conn op_entry_point
         [| Pquic.Connection.I 7L |]
     with
    | Some v -> check Alcotest.int64 "7*7 + 1 through two plugin ops" 50L v
    | None -> Alcotest.fail "external operation missing");
    (* the inner operation is also reachable by the app directly? No: it
       was registered at the replace anchor, not external *)
    check Alcotest.bool "replace-anchored op is not an external op" true
      (Pquic.Connection.call_external conn op_square [| Pquic.Connection.I 3L |]
       = None)
  | None -> Alcotest.fail "transfer failed"

let test_external_op_without_plugin () =
  match run_transfer ~plugins:[] ~to_inject:[] () with
  | Some r ->
    check Alcotest.bool "no plugin, no external op" true
      (Pquic.Connection.call_external r.Exp.Runner.client_conn op_entry_point
         [| Pquic.Connection.I 1L |]
       = None)
  | None -> Alcotest.fail "transfer failed"

let tests =
  [
    ("anchors", [
      Alcotest.test_case "passive cannot write" `Quick
        test_passive_pluglets_cannot_write_buffers;
      Alcotest.test_case "pre+post fire" `Quick test_pre_and_post_both_fire;
      Alcotest.test_case "replace overrides" `Quick test_replace_overrides_default;
      Alcotest.test_case "plugin ops compose" `Quick
        test_plugin_defined_operation_composition;
      Alcotest.test_case "external op absent" `Quick test_external_op_without_plugin;
    ]);
  ]
