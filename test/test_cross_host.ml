(* Cross-host differential tests for the transport-neutral pluginop
   library: the same plugin bytecode attaches to the PQUIC connection host
   and to the tcpsim sender host and observes identical Table 1 field
   semantics — values, floors, error handling and sanctions. The hosts are
   aligned (same 1252-byte mss, same initial window, both RTT estimators
   at the [Quic.Rtt] defaults) so any divergence is a semantic bug in one
   host's field mapping, not a configuration artifact. *)

module Topology = Netsim.Topology
module Sim = Netsim.Sim
module Net = Netsim.Net
module C = Pquic.Connection
module Tcp = Tcpsim.Tcp
module Api = Pluginop.Api

let check = Alcotest.check

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* aligned hosts: PQUIC's initial window is brought down to tcpsim's
   10 segments of 1252 bytes; everything else already matches *)
let mss = 1252
let initial_window = 10 * mss

let make_quic () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  C.create ~sim:topo.Topology.sim ~net:topo.Topology.net
    ~cfg:{ C.default_config with initial_window }
    ~role:C.Client
    ~local_addr:(List.hd topo.Topology.client_addrs)
    ~remote_addr:topo.Topology.server_addr ~local_cid:1L ~remote_cid:2L
    ~local_params:Quic.Transport_params.default ()

let make_tcp () =
  let sim = Sim.create () in
  Tcp.create_sender ~mss ~sim
    ~transport:(fun _ -> ())
    ~total:1_000_000
    ~on_done:(fun () -> ())
    ()

(* ------------------- generated get/set programs ----------------------- *)

(* The differential subset: writable fields, and readable fields whose
   value is determined by the get/set history on both hosts. *)
type dop =
  | Set_cwnd of int
  | Set_rtt of int
  | Set_spin of bool
  | Set_active of bool
  | Get_field of int

let readable =
  [
    Api.f_cwnd; Api.f_ssthresh; Api.f_srtt; Api.f_rtt_var; Api.f_rtt_min;
    Api.f_latest_rtt; Api.f_spin_bit; Api.f_path_active; Api.f_nb_paths;
  ]

let gen_dop =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun v -> Set_cwnd v) (int_range 1 100_000));
        (2, map (fun v -> Set_rtt v) (int_range 1 400_000_000));
        (1, map (fun b -> Set_spin b) bool);
        (1, map (fun b -> Set_active b) bool);
        (4, map (fun f -> Get_field f) (oneofl readable));
      ])

let gen_prog = QCheck2.Gen.(list_size (int_range 0 40) gen_dop)

let op_probe = 150

(* Compile a program to one Replace pluglet on a plugin-range op: sets are
   performed, every get is folded into a hash accumulator in plugin state,
   and the hash is the pluglet's return value. Identical hashes mean the
   two hosts returned identical values for every get in sequence. *)
let plugin_of prog : Pluginop.Plugin.t =
  let open Plugins.Dsl in
  let stmt = function
    | Set_cwnd vv -> set Api.f_cwnd (i 0) (i vv)
    | Set_rtt s -> set Api.f_rtt_sample (i 0) (i s)
    | Set_spin b -> set Api.f_spin_bit (i 0) (i (if b then 1 else 0))
    | Set_active b -> set Api.f_path_active (i 0) (i (if b then 1 else 0))
    | Get_field f -> set_fld 0 ((fld 0 *: i 31) +: get f (i 0))
  in
  {
    Pluginop.Plugin.name = "org.test.probe";
    pluglets =
      [
        pluglet ~op:op_probe ~anchor:Pluginop.Protoop.Replace
          (func "probe" []
             (with_state ~id:2 ~size:16
                (List.map stmt prog @ [ ret (fld 0) ])));
      ];
  }

let inject_exn inject host plugin =
  match inject host plugin with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("injection failed: " ^ e)

(* Run the program's pluglet on a host and snapshot what it observed:
   the hash, a direct read of every aligned field afterwards, and whether
   the host survived. *)
let observe_quic prog =
  let c = make_quic () in
  inject_exn Pquic.Connection.inject_plugin c (plugin_of prog);
  let r = C.run_op c op_probe [||] in
  let fields = List.map (fun f -> Pquic.Host_api.get_field c f 0) readable in
  let alive = match C.state c with C.Failed _ -> false | _ -> true in
  (r, fields, alive, C.has_plugin c "org.test.probe")

let observe_tcp prog =
  let t = make_tcp () in
  inject_exn Tcp.inject_plugin t (plugin_of prog);
  let r = Tcp.run_op t op_probe [||] in
  let fields = List.map (fun f -> Tcp.get_field t f 0) readable in
  (r, fields, Tcp.failure t = None, Tcp.has_plugin t "org.test.probe")

let prop_differential prog =
  let rq, fq, aq, pq = observe_quic prog in
  let rt, ft, at, pt = observe_tcp prog in
  rq = rt && fq = ft && aq && at && pq && pt

(* ------------------------- sanction parity ----------------------------- *)

(* A write to a read-only field is the same policy violation on both
   hosts: the plugin is killed and the host fails. *)
let test_readonly_write_sanction () =
  let bad : Pluginop.Plugin.t =
    let open Plugins.Dsl in
    {
      Pluginop.Plugin.name = "org.test.rogue";
      pluglets =
        [
          pluglet ~op:op_probe ~anchor:Pluginop.Protoop.Replace
            (func "rogue" [] [ set Api.f_pkts_sent (i 0) (i 99); ret0 ]);
        ];
    }
  in
  let c = make_quic () in
  inject_exn Pquic.Connection.inject_plugin c bad;
  ignore (C.run_op c op_probe [||]);
  check Alcotest.bool "pquic: plugin killed" false (C.has_plugin c "org.test.rogue");
  check Alcotest.bool "pquic: connection failed" true
    (match C.state c with C.Failed _ -> true | _ -> false);
  check Alcotest.int "pquic: sanction counted" 1 (C.stats c).C.plugin_sanctions;
  let t = make_tcp () in
  inject_exn Tcp.inject_plugin t bad;
  ignore (Tcp.run_op t op_probe [||]);
  check Alcotest.bool "tcpsim: plugin killed" false (Tcp.has_plugin t "org.test.rogue");
  check Alcotest.bool "tcpsim: transfer failed" true (Tcp.failure t <> None);
  check Alcotest.int "tcpsim: sanction counted" 1 (Tcp.plugin_sanctions t)

(* An unknown field id raises the same API violation on both hosts. *)
let test_unknown_field_sanction () =
  let prog = [ Get_field 999 ] in
  let c = make_quic () in
  inject_exn Pquic.Connection.inject_plugin c (plugin_of prog);
  ignore (C.run_op c op_probe [||]);
  let t = make_tcp () in
  inject_exn Tcp.inject_plugin t (plugin_of prog);
  ignore (Tcp.run_op t op_probe [||]);
  check Alcotest.bool "pquic: sanctioned" true
    (match C.state c with C.Failed _ -> true | _ -> false);
  check Alcotest.bool "tcpsim: sanctioned" true (Tcp.failure t <> None);
  check Alcotest.bool "same fate on both hosts" true
    (C.has_plugin c "org.test.probe" = Tcp.has_plugin t "org.test.probe")

(* A bad path index on a (path) field reads as -1 on both hosts. *)
let test_bad_index_reads_minus_one () =
  let c = make_quic () and t = make_tcp () in
  List.iter
    (fun f ->
      check Alcotest.bool
        (Printf.sprintf "field %d index 7 reads -1 on both" f)
        true
        (Pquic.Host_api.get_field c f 7 = -1L && Tcp.get_field t f 7 = -1L))
    [ Api.f_cwnd; Api.f_srtt; Api.f_ssthresh; Api.f_path_active ]

(* ------------- real plugins attach unmodified to tcpsim ---------------- *)

(* The tentpole claim end to end: the monitoring plugin and the pluggable
   AIMD congestion controller — written for PQUIC, byte-for-byte the same
   [Pluginop.Plugin.t] values — attach to a TCP transfer, the transfer
   completes, and the exported PI block matches the sender's own view. *)
let test_monitoring_and_aimd_on_tcp () =
  let topo =
    Topology.single_path ~seed:11L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0.01 }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let client_addr = List.hd topo.Topology.client_addrs in
  let server_addr = topo.Topology.server_addr in
  let send ~src ~dst pkt =
    Net.send net
      { Net.src; dst; size = String.length pkt; payload = Net.Raw pkt }
  in
  let completed = ref false in
  let receiver =
    Tcp.create_receiver
      ~transport:(send ~src:client_addr ~dst:server_addr)
      ~on_complete:(fun () -> completed := true)
      ()
  in
  let sender =
    Tcp.create_sender ~sim ~mss
      ~transport:(send ~src:server_addr ~dst:client_addr)
      ~total:300_000
      ~on_done:(fun () -> ())
      ()
  in
  Net.attach net client_addr (fun dg ->
      match dg.Net.payload with
      | Net.Raw pkt -> Tcp.receiver_receive receiver pkt
      | _ -> ());
  Net.attach net server_addr (fun dg ->
      match dg.Net.payload with
      | Net.Raw pkt -> Tcp.sender_receive sender pkt
      | _ -> ());
  let report = ref None in
  Tcp.set_on_message sender (fun msg ->
      report := Plugins.Monitoring.decode_report msg);
  inject_exn Tcp.inject_plugin sender Plugins.Monitoring.plugin;
  inject_exn Tcp.inject_plugin sender Plugins.Extras.Aimd.plugin;
  Tcp.start_sender sender;
  ignore (Sim.run sim);
  check Alcotest.bool "transfer completed" true !completed;
  check Alcotest.bool "no sanction" true (Tcp.failure sender = None);
  check Alcotest.int "receiver got every byte" 300_001
    (Tcp.received_bytes receiver);
  match !report with
  | None -> Alcotest.fail "monitoring plugin exported no PI block"
  | Some r ->
    let open Plugins.Monitoring in
    check Alcotest.bool "established recorded" true r.established;
    check Alcotest.int64 "pkts_sent matches the sender"
      (Int64.of_int sender.Tcp.segments_sent) r.pkts_sent;
    check Alcotest.int64 "pkts_received matches the sender"
      (Int64.of_int sender.Tcp.acks_received) r.pkts_received;
    check Alcotest.bool "rtt was sampled" true (r.rtt_samples > 0L);
    check Alcotest.bool "handshake time recorded" true
      (r.handshake_time_ns > 0L)

(* AIMD actually drives the window: after injection, a loss event must
   halve f_cwnd instead of applying Cubic's beta = 0.7. *)
let test_aimd_replaces_cubic_on_tcp () =
  let t = make_tcp () in
  inject_exn Tcp.inject_plugin t Plugins.Extras.Aimd.plugin;
  Tcp.set_field t Api.f_cwnd 0 100_000L;
  ignore
    (Tcp.run_op t Pluginop.Protoop.cc_on_packet_lost
       ~default:(fun _ _ -> Alcotest.fail "builtin ran despite replace")
       [| I 0L; I (Int64.of_int mss); I 0L |]);
  check Alcotest.int64 "AIMD halved the window" 50_000L
    (Tcp.get_field t Api.f_cwnd 0)

let tests =
  [
    ( "cross_host",
      [
        qcheck "same bytecode observes identical fields on both hosts"
          gen_prog prop_differential;
        Alcotest.test_case "read-only write sanction parity" `Quick
          test_readonly_write_sanction;
        Alcotest.test_case "unknown field sanction parity" `Quick
          test_unknown_field_sanction;
        Alcotest.test_case "bad path index parity" `Quick
          test_bad_index_reads_minus_one;
        Alcotest.test_case "monitoring + AIMD attach to tcpsim" `Quick
          test_monitoring_and_aimd_on_tcp;
        Alcotest.test_case "AIMD replaces Cubic on tcpsim" `Quick
          test_aimd_replaces_cubic_on_tcp;
      ] );
  ]
