(* Aggregated test entry point: `dune runtest` runs every suite. *)

let prefixed prefix suites =
  List.map (fun (name, cases) -> (prefix ^ "." ^ name, cases)) suites

let () =
  Alcotest.run "pquic-repro"
    (prefixed "ebpf" Test_ebpf.tests
    @ prefixed "plc" Test_plc.tests
    @ prefixed "netsim" Test_netsim.tests
    @ prefixed "quic" Test_quic.tests
    @ prefixed "pquic" Test_pquic.tests
    @ prefixed "pluginop" Test_pluginop.tests
    @ prefixed "core" Test_core.tests
    @ prefixed "plugins" Test_plugins.tests
    @ prefixed "trust" Test_trust.tests
    @ prefixed "tcpsim" Test_tcpsim.tests
    @ prefixed "cross_host" Test_cross_host.tests
    @ prefixed "misc" Test_misc.tests
    @ prefixed "gf" Test_gf.tests
    @ prefixed "dispatch" Test_dispatch.tests
    @ prefixed "extras" Test_extras.tests
    @ prefixed "anchors" Test_anchors.tests
    @ prefixed "engine" Test_engine.tests
    @ prefixed "datapath" Test_datapath.tests
    @ prefixed "chaos" Test_chaos.tests
    @ prefixed "recovery" Test_recovery.tests
    @ prefixed "server" Test_server_engine.tests)
