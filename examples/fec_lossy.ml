(* Forward Erasure Correction plugin (Section 4.4) on a lossy, high-delay
   path (the paper's In-Flight Communications use case): the download runs
   without FEC, with the XOR code and with the Random Linear Code, in both
   the end-of-stream and whole-stream protection modes. Repair symbols let
   the receiver resurrect lost packets without waiting a retransmission
   round-trip; whole-stream protection costs bandwidth, as in Figure 10. *)

let p = { Netsim.Topology.d_ms = 200.; bw_mbps = 2.; loss = 0.04 }

let run ~plugin ~size =
  let topo = Netsim.Topology.single_path ~seed:17L p in
  let plugins, to_inject =
    match plugin with
    | Some (pl : Pluginop.Plugin.t) -> ([ pl ], [ pl.Pluginop.Plugin.name ])
    | None -> ([], [])
  in
  match Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size () with
  | Some r ->
    (r.Exp.Runner.dct,
     r.Exp.Runner.client_stats.Pquic.Connection.frames_recovered)
  | None -> (nan, 0)

let () =
  Printf.printf
    "FEC plugin on an in-flight-like path: %.0f ms one-way, %.1f Mbps, %.0f%% loss\n\n"
    p.Netsim.Topology.d_ms p.Netsim.Topology.bw_mbps
    (100. *. p.Netsim.Topology.loss);
  let size = 300_000 in
  Printf.printf "download size: %d kB\n\n" (size / 1000);
  Printf.printf "%-24s %10s %12s %8s\n" "configuration" "DCT" "recovered" "ratio";
  let base, _ = run ~plugin:None ~size in
  List.iter
    (fun (label, plugin) ->
      let dct, recovered = run ~plugin ~size in
      Printf.printf "%-24s %8.3f s %12d %8.3f\n" label dct recovered (dct /. base))
    [
      ("no FEC", None);
      ("XOR, end of stream", Some Plugins.Fec.xor_eos);
      ("XOR, whole stream", Some Plugins.Fec.xor_full);
      ("RLC, end of stream", Some Plugins.Fec.rlc_eos);
      ("RLC, whole stream", Some Plugins.Fec.rlc_full);
    ];
  Printf.printf
    "\nXOR recovers at most one loss per window; RLC solves a linear system\n\
     over GF(256) and recovers several. Whole-stream protection spends 5/30\n\
     of the bandwidth on repair symbols; end-of-stream only protects tails.\n"
