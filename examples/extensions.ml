(* The Section 4 opener — "with less than 100 lines of C code a PQUIC
   plugin can add the equivalent of Tail Loss Probe in TCP, or support for
   Explicit Congestion Notification" — plus Section 6's sketch of a
   congestion controller as a plugin. Three tiny plugins, measured:

   - TLP shortens the retransmission timer for stream tails;
   - ECN reacts to router marks before the queue overflows;
   - AIMD replaces the congestion-control protocol operations outright. *)

module Topology = Netsim.Topology

let pf = Printf.printf

let dct ?(ecn_threshold = 0) ?(loss = 0.) ?(size = 500_000) ~plugins () =
  let topo =
    Topology.single_path ~ecn_threshold ~seed:21L
      { Topology.d_ms = 20.; bw_mbps = 10.; loss }
  in
  let to_inject = List.map (fun (p : Pluginop.Plugin.t) -> p.name) plugins in
  match Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size () with
  | Some r -> (r.Exp.Runner.dct, topo)
  | None -> failwith "transfer failed"

let () =
  pf "Plugin sizes (the paper's <100-LoC claim):\n";
  List.iter
    (fun (p : Pluginop.Plugin.t) ->
      let s = Pluginop.Plugin.stats p in
      pf "  %-20s %3d LoC, %d pluglets, %d proven terminating\n"
        s.Pluginop.Plugin.name s.Pluginop.Plugin.loc s.Pluginop.Plugin.pluglet_count
        s.Pluginop.Plugin.proven_terminating)
    [ Plugins.Extras.Tlp.plugin; Plugins.Extras.Ecn.plugin;
      Plugins.Extras.Aimd.plugin ];

  pf "\nTail Loss Probe on a 6%% lossy path (12 kB transfers, 40 seeds):\n";
  let tail_dct plugins seed =
    let topo =
      Topology.single_path ~seed { Topology.d_ms = 20.; bw_mbps = 10.; loss = 0.06 }
    in
    let to_inject = List.map (fun (p : Pluginop.Plugin.t) -> p.name) plugins in
    match Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size:12_000 () with
    | Some r -> r.Exp.Runner.dct
    | None -> nan
  in
  let seeds = List.init 40 (fun k -> Int64.of_int (k + 1)) in
  let sum f = List.fold_left (fun a s -> a +. f s) 0. seeds in
  let faster =
    List.length
      (List.filter
         (fun s -> tail_dct [ Plugins.Extras.Tlp.plugin ] s < tail_dct [] s -. 1e-6)
         seeds)
  in
  let base = sum (tail_dct []) and tlp = sum (tail_dct [ Plugins.Extras.Tlp.plugin ]) in
  pf "  total DCT without TLP: %.3f s, with TLP: %.3f s (%.1f%% faster overall)\n"
    base tlp (100. *. (base -. tlp) /. base);
  pf "  transfers that hit a tail loss finish earlier in %d of 40 seeds\n" faster;

  pf "\nECN on a congested bottleneck (3 MB, shallow 30 kB router queue):\n";
  let run plugins =
    let topo =
      Topology.single_path ~buffer:30_000 ~ecn_threshold:12_000 ~seed:31L
        { Topology.d_ms = 20.; bw_mbps = 10.; loss = 0. }
    in
    let to_inject = List.map (fun (p : Pluginop.Plugin.t) -> p.name) plugins in
    match Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size:3_000_000 () with
    | Some r ->
      let _, down = List.hd topo.Topology.mid_links in
      (r.Exp.Runner.dct, (Netsim.Link.stats down).Netsim.Link.queue_drops,
       (Netsim.Link.stats down).Netsim.Link.ce_marked)
    | None -> failwith "transfer failed"
  in
  let d0, drops0, _ = run [] in
  let d1, drops1, marks = run [ Plugins.Extras.Ecn.plugin ] in
  pf "  without ECN: DCT %.2f s, %d packets dropped at the router\n" d0 drops0;
  pf "  with ECN:    DCT %.2f s, %d dropped, %d CE-marked instead\n" d1 drops1 marks;

  pf "\nAIMD congestion-control plugin (1 MB, clean 10 Mbps path):\n";
  let reno, _ = dct ~plugins:[] () in
  let aimd, _ = dct ~plugins:[ Plugins.Extras.Aimd.plugin ] ~size:500_000 () in
  pf "  built-in NewReno: %.2f s; plugin AIMD (no slow start): %.2f s\n" reno aimd;
  pf
    "\nAll three replace or observe protocol operations through the same\n\
     get/set API and run as verified, monitored eBPF bytecode.\n"
