(* End-to-end walk through the secure plugin management system (Section 3)
   and the in-connection plugin exchange (Section 3.4):

   1. a developer publishes the FEC plugin on the Plugin Repository;
   2. three Plugin Validators validate it, build their Merkle prefix trees
      and publish signed tree roots (STRs);
   3. a client that has never seen the plugin requires "PV1&(PV2|PV3)",
      receives the plugin over the QUIC connection with authentication
      paths, verifies the proofs against the STRs and stores it in its
      local cache;
   4. a second connection then injects it locally, and the transfer
      benefits from FEC on a lossy link;
   5. the developer lookup detects a spurious binding, and the repository
      flags an equivocating validator. *)

let pf = Printf.printf

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Info);
  (* --- the distributed trust system --------------------------------- *)
  let repo = Trust.Repository.create () in
  let pvs =
    List.map
      (fun id ->
        let v = Trust.Validator.create ~id ~signing_key:("key-" ^ id) () in
        Trust.Repository.register_pv repo ~id ~key:("key-" ^ id);
        (id, v))
      [ "PV1"; "PV2"; "PV3" ]
  in
  let system = Trust.Pvsystem.create ~repo ~validators:pvs () in
  let plugin = Plugins.Fec.rlc_eos in
  let results =
    Trust.Pvsystem.publish_and_validate system ~developer:"uclouvain" plugin
  in
  List.iter
    (fun (id, r) ->
      pf "%s validation: %s\n" id
        (match r with Ok () -> "ok" | Error e -> "REFUSED: " ^ e))
    results;
  Trust.Pvsystem.publish_epoch system;

  (* --- first connection: the client fetches the plugin remotely ------ *)
  let p = { Netsim.Topology.d_ms = 20.; bw_mbps = 10.; loss = 0.02 } in
  let topo = Netsim.Topology.single_path ~seed:42L p in
  let sim = topo.Netsim.Topology.sim and net = topo.Netsim.Topology.net in
  let formula = "PV1&(PV2|PV3)" in
  let cfg = { Pquic.Connection.default_config with trust_formula = formula } in
  let server =
    Pquic.Endpoint.create ~cfg ~sim ~net ~addr:topo.Netsim.Topology.server_addr
      ~seed:1L ()
  in
  let client =
    Pquic.Endpoint.create ~cfg ~sim ~net
      ~addr:(List.hd topo.Netsim.Topology.client_addrs)
      ~seed:2L ()
  in
  (* the server holds the plugin and can prove its validity; the client
     only trusts what satisfies its formula *)
  Pquic.Endpoint.add_plugin server plugin;
  server.Pquic.Endpoint.prover <-
    (fun ~name ~formula -> Trust.Pvsystem.prover system ~name ~formula);
  client.Pquic.Endpoint.verifier <- Trust.Pvsystem.verifier system ~formula;
  (* the server wants FEC active on its connections *)
  server.Pquic.Endpoint.plugins_to_inject <- [ plugin.Pluginop.Plugin.name ];
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let conn1 =
    Pquic.Endpoint.connect client ~remote_addr:topo.Netsim.Topology.server_addr
  in
  conn1.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn1 ~id:0 ~fin:true "GET /");
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            Pquic.Connection.write_stream c ~id ~fin:true
              (String.make 100_000 'x')));
  ignore (Netsim.Sim.run ~until:(Netsim.Sim.of_sec 30.) sim);
  pf "\nAfter connection 1:\n";
  pf "  client cached the plugin: %b\n"
    (Pquic.Endpoint.has_plugin client plugin.Pluginop.Plugin.name);
  pf "  plugin active on connection 1 (must be false; Section 3.4 only\n";
  pf "  offers remote plugins to subsequent connections): %b\n"
    (Pquic.Connection.has_plugin conn1 plugin.Pluginop.Plugin.name);

  (* --- second connection: the plugin is local now -------------------- *)
  let conn2 =
    Pquic.Endpoint.connect client ~remote_addr:topo.Netsim.Topology.server_addr
  in
  let recovered = ref 0 in
  conn2.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn2 ~id:0 ~fin:true "GET /");
  conn2.Pquic.Connection.on_stream_data <-
    (fun _ _ ~fin ->
      if fin then
        recovered := (Pquic.Connection.stats conn2).Pquic.Connection.frames_recovered);
  ignore (Netsim.Sim.run ~until:(Netsim.Sim.of_sec 60.) sim);
  pf "\nAfter connection 2:\n";
  pf "  plugin active on connection 2: %b\n"
    (Pquic.Connection.has_plugin conn2 plugin.Pluginop.Plugin.name);
  pf "  packets recovered by FEC on the lossy link: %d\n" !recovered;

  (* --- the security properties of Appendix B ------------------------- *)
  pf "\nSecurity checks:\n";
  let pv1 = List.assoc "PV1" pvs in
  (* developer lookup before tampering *)
  let verdict =
    Trust.Validator.developer_check pv1 ~name:plugin.Pluginop.Plugin.name
      ~code:(Pluginop.Plugin.serialize plugin)
  in
  pf "  developer lookup (clean tree): %s\n"
    (match verdict with
    | Trust.Validator.Clean -> "clean"
    | Trust.Validator.Spurious _ -> "SPURIOUS"
    | Trust.Validator.Tampered -> "TAMPERED");
  (* a malicious PV injects a spurious binding under the developer's name *)
  Trust.Validator.inject_spurious pv1 ~name:plugin.Pluginop.Plugin.name
    ~code:"malicious bytecode";
  ignore (Trust.Validator.publish pv1);
  let verdict =
    Trust.Validator.developer_check pv1 ~name:plugin.Pluginop.Plugin.name
      ~code:(Pluginop.Plugin.serialize plugin)
  in
  pf "  developer lookup after spurious injection: %s\n"
    (match verdict with
    | Trust.Validator.Clean -> "clean (BAD!)"
    | Trust.Validator.Spurious _ -> "spurious binding detected"
    | Trust.Validator.Tampered -> "tampering detected");
  (* equivocation: two different STRs for the same epoch *)
  let pv2 = List.assoc "PV2" pvs in
  let str_a = Trust.Validator.publish pv2 in
  (match Trust.Repository.record_str repo str_a with
  | Ok () -> ()
  | Error e -> pf "  unexpected: %s\n" e);
  Trust.Validator.inject_spurious pv2 ~name:"evil.plugin" ~code:"evil";
  pv2.Trust.Validator.epoch <- pv2.Trust.Validator.epoch - 1;
  let str_b = Trust.Validator.publish pv2 in
  (match Trust.Repository.record_str repo str_b with
  | Ok () -> pf "  equivocation NOT detected (BAD!)\n"
  | Error _ -> pf "  equivocation detected and alerted at the repository\n");
  pf "  repository alerts: %d\n" (List.length (Trust.Repository.alerts repo));
  pf "  STR log hash chain intact: %b\n" (Trust.Repository.audit_log repo "PV2")
