(* Transport hardening under adversarial network faults: end-to-end
   transfers through faulty links (duplication, corruption, blackouts,
   short flaps) asserting the engine's chaos invariants — duplicate
   packet-number rejection, corrupted-packet discard, blackouts ending in
   a clean idle-timeout close with bounded retransmissions, and the
   trapping-pluglet fallback to built-in behaviour with state rollback.
   The full seed × profile sweep lives in bin/chaos.ml; these are the
   deterministic single-seed anchors. *)

module Sim = Netsim.Sim
module Fault = Netsim.Fault
module Topology = Netsim.Topology
module TP = Quic.Transport_params
module C = Pquic.Connection

let check = Alcotest.check

type outcome = {
  completed : bool;          (* fin seen on the client stream *)
  intact : bool;             (* delivered bytes match the request *)
  client : C.t;
  server : C.t option;
  end_time : Sim.time;
}

let transfer_size = 100_000

(* One GET-a-file transfer over a single faulty path, driven until the
   transfer resolves or the connection leaves the open states. *)
let faulty_transfer ?(seed = 7L) ?(idle_ms = 3_000) faults =
  let topo =
    Topology.single_path ~faults ~seed
      { Topology.d_ms = 10.; bw_mbps = 5.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let tweak tp = { tp with TP.idle_timeout_ms = idle_ms } in
  let server_ep =
    Pquic.Endpoint.create ~tweak_params:tweak ~sim ~net
      ~addr:topo.Topology.server_addr ~seed:0x5EedL ()
  in
  let client_ep =
    Pquic.Endpoint.create ~tweak_params:tweak ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs) ~seed:0xC11e47L ()
  in
  Pquic.Endpoint.listen server_ep;
  Pquic.Endpoint.listen client_ep;
  let server_conn = ref None in
  server_ep.Pquic.Endpoint.on_connection <-
    (fun c ->
      server_conn := Some c;
      c.C.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            C.write_stream c ~id ~fin:true (String.make transfer_size 'x')));
  let conn =
    Pquic.Endpoint.connect client_ep ~remote_addr:topo.Topology.server_addr
  in
  let buf = Buffer.create transfer_size in
  let fin_seen = ref false in
  conn.C.on_established <-
    (fun () -> C.write_stream conn ~id:0 ~fin:true "GET /file");
  conn.C.on_stream_data <-
    (fun _ data ~fin ->
      Buffer.add_string buf data;
      if fin then fin_seen := true);
  let rec drive () =
    if !fin_seen || not (C.is_open conn) then ()
    else if Sim.to_sec (Sim.now sim) > 120. then ()
    else if Sim.pending sim = 0 then ()
    else begin
      ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_sec 1.)) sim);
      drive ()
    end
  in
  drive ();
  let data = Buffer.contents buf in
  {
    completed = !fin_seen;
    intact =
      !fin_seen
      && String.length data = transfer_size
      && String.for_all (fun ch -> ch = 'x') data;
    client = conn;
    server = !server_conn;
    end_time = Sim.now sim;
  }

let server_exn r =
  match r.server with Some c -> c | None -> Alcotest.fail "no server connection"

(* a duplicating link: every copy the engine sees twice must be rejected
   by packet number, and the payload must still arrive intact *)
let test_duplicate_rejection () =
  let r = faulty_transfer { Fault.none with Fault.duplicate = 0.2 } in
  check Alcotest.bool "transfer intact" true r.intact;
  let dups =
    (C.stats r.client).C.pkts_dup_rejected
    + (C.stats (server_exn r)).C.pkts_dup_rejected
  in
  check Alcotest.bool "duplicates rejected by packet number" true (dups > 0);
  check Alcotest.bool "client ack ranges coherent" true
    (Quic.Ackranges.check_coherent r.client.C.acks = Ok ());
  check Alcotest.bool "server ack ranges coherent" true
    (Quic.Ackranges.check_coherent (server_exn r).C.acks = Ok ())

(* a corrupting link: damaged packets must fail authentication and be
   discarded cleanly — the transfer recovers via retransmission *)
let test_corrupt_discard () =
  let r = faulty_transfer { Fault.none with Fault.corrupt = 0.1 } in
  check Alcotest.bool "transfer intact despite corruption" true r.intact;
  let discarded =
    (C.stats r.client).C.pkts_corrupt_discarded
    + (C.stats (server_exn r)).C.pkts_corrupt_discarded
  in
  check Alcotest.bool "corrupted packets discarded" true (discarded > 0);
  check Alcotest.bool "no plugin blamed for network damage" true
    ((C.stats r.client).C.plugin_sanctions = 0
    && (C.stats (server_exn r)).C.plugin_sanctions = 0)

(* a blackout longer than the idle timeout: the connection must end in a
   clean idle-timeout close — capped PTO backoff, no retransmission storm,
   no livelock — instead of probing forever into a dead link *)
let test_blackout_idle_timeout () =
  let blackout = (Sim.of_ms 100., Sim.of_ms 4_100.) in
  let r =
    faulty_transfer ~idle_ms:3_000
      { Fault.none with Fault.blackouts = [ blackout ] }
  in
  check Alcotest.bool "transfer did not complete" false r.completed;
  check Alcotest.bool "connection left the open states" false
    (C.is_open r.client);
  check Alcotest.string "client close reason" "idle timeout"
    r.client.C.close_reason;
  check Alcotest.string "server close reason" "idle timeout"
    (server_exn r).C.close_reason;
  (* the close lands one idle period into the blackout, not at the sim cap *)
  check Alcotest.bool "closed promptly" true
    (Sim.to_sec r.end_time < Sim.to_sec (fst blackout) +. 3.5);
  (* capped exponential backoff: a bounded number of probes into the dead
     link from the bulk sender, not a retransmission storm *)
  let retx =
    (C.stats r.client).C.pkts_retransmitted
    + (C.stats (server_exn r)).C.pkts_retransmitted
  in
  check Alcotest.bool "retransmissions bounded" true (retx > 0 && retx < 200);
  (* the loss span crossed 3*(PTO + ack delay): congestion state collapsed *)
  let pc =
    (C.stats r.client).C.persistent_congestion_events
    + (C.stats (server_exn r)).C.persistent_congestion_events
  in
  check Alcotest.bool "persistent congestion detected" true (pc > 0)

(* a mid-transfer flap shorter than the idle timeout: the connection must
   ride it out and finish the transfer *)
let test_short_flap_survived () =
  let r =
    faulty_transfer ~idle_ms:3_000
      { Fault.none with Fault.blackouts = [ (Sim.of_sec 0.2, Sim.of_sec 0.7) ] }
  in
  check Alcotest.bool "transfer intact across the flap" true r.intact;
  check Alcotest.string "no close reason" "" r.client.C.close_reason;
  (* the flap actually bit: the sender had to recover lost packets *)
  check Alcotest.bool "losses recovered" true
    ((C.stats (server_exn r)).C.pkts_retransmitted > 0)

(* ------------------- trapping replace pluglet ----------------------- *)

let make_conn () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  C.create ~sim:topo.Topology.sim ~net:topo.Topology.net
    ~cfg:C.default_config ~role:C.Client
    ~local_addr:(List.hd topo.Topology.client_addrs)
    ~remote_addr:topo.Topology.server_addr ~local_cid:1L ~remote_cid:2L
    ~local_params:Quic.Transport_params.default ()

(* writes into its writable argument buffer, then traps on a wild load;
   [lead] integer parameters come before the buffer *)
let trapping_replace_plugin ?(lead = []) op =
  let open Plc.Ast in
  {
    Pluginop.Plugin.name = "org.test.trap-replace";
    pluglets =
      [
        {
          Pluginop.Plugin.op;
          param = None;
          anchor = Pluginop.Protoop.Replace;
          code =
            Pluginop.Plugin.Source
              {
                name = "scribble_then_trap";
                params = lead @ [ "buf" ];
                body =
                  List.map (fun p -> Store (Ebpf.Insn.W8, Var "buf" +: Var p, Const 0xFFL)) lead
                  @ [
                    Store (Ebpf.Insn.W8, Var "buf", Const 0xFFL);
                    Return (Load (Ebpf.Insn.W64, Const 0xDEAD_0000L));
                  ];
              };
        };
      ];
  }

(* a replace pluglet that traps mid-operation: its writes are rolled back,
   the built-in default serves the operation, and only then does the
   existing sanction (plugin removal + connection failure) fire *)
let test_trap_falls_back_to_builtin () =
  let op = 150 (* plugin id range, clear of built-ins *) in
  let c = make_conn () in
  let plugin = trapping_replace_plugin op in
  let inst = C.build_instance (C.prepare plugin) in
  ignore (C.attach_instance c inst);
  check Alcotest.bool "attached" true (C.has_plugin c plugin.Pluginop.Plugin.name);
  let buf = Bytes.make 8 'a' in
  let default_ran = ref false in
  let default _ args =
    default_ran := true;
    (* the builtin must see the pre-pluglet buffer contents *)
    (match args.(0) with
    | C.Buf (b, _) ->
      check Alcotest.string "builtin sees rolled-back buffer" "aaaaaaaa"
        (Bytes.to_string b)
    | _ -> Alcotest.fail "unexpected arg shape");
    7L
  in
  let v = C.run_op c op ~default [| C.Buf (buf, `Rw) |] in
  check Alcotest.int64 "builtin result returned" 7L v;
  check Alcotest.bool "builtin ran" true !default_ran;
  check Alcotest.string "pluglet write rolled back" "aaaaaaaa"
    (Bytes.to_string buf);
  check Alcotest.int "one fallback counted" 1 (C.stats c).C.plugin_fallbacks;
  check Alcotest.int "one sanction counted" 1 (C.stats c).C.plugin_sanctions;
  check Alcotest.bool "plugin removed" false
    (C.has_plugin c plugin.Pluginop.Plugin.name);
  (match c.C.state with
  | C.Failed _ -> ()
  | _ -> Alcotest.fail "connection not failed by the sanction")

(* the same rollback when the writable buffer follows an integer argument:
   the snapshot is taken by argument shape, not position *)
let test_trap_rolls_back_buffer_after_int () =
  let op = 150 in
  let c = make_conn () in
  let plugin = trapping_replace_plugin ~lead:[ "n" ] op in
  ignore (C.attach_instance c (C.build_instance (C.prepare plugin)));
  let buf = Bytes.make 8 'a' in
  let seen = ref "" in
  let default _ args =
    (match args.(1) with C.Buf (b, _) -> seen := Bytes.to_string b | _ -> ());
    7L
  in
  let v = C.run_op c op ~default [| C.I 3L; C.Buf (buf, `Rw) |] in
  check Alcotest.int64 "builtin result returned" 7L v;
  check Alcotest.string "builtin sees rolled-back buffer" "aaaaaaaa" !seen;
  check Alcotest.string "both pluglet writes rolled back" "aaaaaaaa"
    (Bytes.to_string buf);
  check Alcotest.int "one fallback counted" 1 (C.stats c).C.plugin_fallbacks

let tests =
  [
    ("faults", [
      Alcotest.test_case "duplicate rejection" `Quick test_duplicate_rejection;
      Alcotest.test_case "corrupt discard" `Quick test_corrupt_discard;
      Alcotest.test_case "blackout idle timeout" `Quick test_blackout_idle_timeout;
      Alcotest.test_case "short flap survived" `Quick test_short_flap_survived;
    ]);
    ("sanction", [
      Alcotest.test_case "trap falls back to builtin" `Quick
        test_trap_falls_back_to_builtin;
      Alcotest.test_case "rw buffer after an int rolled back" `Quick
        test_trap_rolls_back_buffer_after_int;
    ]);
  ]
