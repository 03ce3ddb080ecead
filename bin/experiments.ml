(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 4). Each subcommand prints the series/rows the paper
   reports; EXPERIMENTS.md records paper-vs-measured.

     table2  plugin statistics (LoC, pluglets, termination, sizes)
     fig8    CDF of DCT ratios, TCP in/out the single-path datagram VPN
     fig9    multipath speedup ratio vs file size (plugin vs mp-quic-like)
     fig10   CDF of DCT ratios with/without FEC (EOS vs whole stream)
     fig11   CDF of DCT ratios, TCP in/out the multipath VPN
     table3  goodput + plugin load time benchmark

   --points N subsamples the WSP designs (default 139, as in the paper);
   --size-cap excludes the largest file sizes for quick runs. *)

module Topology = Netsim.Topology

let pf = Printf.printf

let sizes_all = [ 1_500; 10_000; 50_000; 1_000_000; 10_000_000 ]

let human_size n =
  if n >= 1_000_000 then Printf.sprintf "%dMB" (n / 1_000_000)
  else if n >= 1_000 then Printf.sprintf "%dkB" (n / 1_000)
  else Printf.sprintf "%dB" n

let seed_of_point i = Int64.of_int ((i * 7919) + 13)

(* ------------------------------------------------------------------ *)

let table2 () =
  pf "Table 2: statistics for each implemented plugin\n";
  pf "%-28s %6s %9s %7s %10s %12s\n" "Plugin" "LoC" "Pluglets"
    "Proven" "ELF size" "Compressed";
  let row (p : Pluginop.Plugin.t) =
    let s = Pluginop.Plugin.stats p in
    let serialized = Pluginop.Plugin.serialize p in
    let compressed = Compress.Lzss.compress serialized in
    pf "%-28s %6d %9d %7d %9dB %11dB\n" s.Pluginop.Plugin.name
      s.Pluginop.Plugin.loc s.Pluginop.Plugin.pluglet_count
      s.Pluginop.Plugin.proven_terminating s.Pluginop.Plugin.elf_size
      (String.length compressed)
  in
  row Plugins.Monitoring.plugin;
  row Plugins.Datagram.plugin;
  row Plugins.Multipath.plugin;
  row Plugins.Multipath.plugin_lowest_rtt;
  row Plugins.Fec.xor_full;
  row Plugins.Fec.xor_eos;
  row Plugins.Fec.rlc_full;
  row Plugins.Fec.rlc_eos;
  (* the paper's FEC row sums the framework with both ECCs and both modes *)
  let fec_all =
    [ Plugins.Fec.xor_full; Plugins.Fec.xor_eos; Plugins.Fec.rlc_full;
      Plugins.Fec.rlc_eos ]
  in
  let loc, pl, pr, elf, comp =
    List.fold_left
      (fun (loc, pl, pr, elf, comp) p ->
        let s = Pluginop.Plugin.stats p in
        ( loc + s.Pluginop.Plugin.loc,
          pl + s.Pluginop.Plugin.pluglet_count,
          pr + s.Pluginop.Plugin.proven_terminating,
          elf + s.Pluginop.Plugin.elf_size,
          comp + String.length (Compress.Lzss.compress (Pluginop.Plugin.serialize p)) ))
      (0, 0, 0, 0, 0) fec_all
  in
  pf "%-28s %6d %9d %7d %9dB %11dB\n" "FEC (all variants summed)" loc pl pr
    elf comp;
  pf "\nProtocol operations in the engine: %d (4 parameterized)\n"
    Pluginop.Protoop.count

(* ------------------------------------------------------------------ *)

let fig8 ~points ~cdf ~sizes () =
  pf "Figure 8: DCT ratio of TCP inside/outside a single-path PQUIC tunnel\n";
  pf "(datagram plugin VPN; WSP design over d1 in [2.5,25]ms, bw1 in [5,50]Mbps, no loss)\n\n";
  let design = Exp.Runner.default_points ~count:points () in
  List.iter
    (fun size ->
      let ratios =
        List.filteri (fun _ _ -> true) design
        |> List.mapi (fun i p ->
               let seed = seed_of_point i in
               let t_out =
                 Exp.Runner.tcp_direct ~topo:(Topology.single_path ~seed p)
                   ~size ()
               in
               let t_in =
                 Exp.Runner.tcp_vpn ~topo:(Topology.single_path ~seed p) ~size ()
               in
               match (t_in, t_out) with
               | Some i, Some o when o > 0. -> Some (i /. o)
               | _ -> None)
        |> List.filter_map Fun.id
      in
      Exp.Stats.summarize ~label:(Printf.sprintf "DCT in/out %s" (human_size size)) ratios;
      if cdf then Exp.Stats.print_cdf ~label:(human_size size) ratios)
    sizes

(* ------------------------------------------------------------------ *)

let fig9 ~points ~sizes () =
  pf "Figure 9: multipath speedup over two symmetric paths\n";
  pf "(speedup = single-path DCT / multipath DCT; PQUIC plugin IW=16kB,\n";
  pf " mp-quic-like baseline IW=32kB as inherited from quic-go)\n\n";
  let design = Exp.Runner.default_points ~count:points () in
  let run ~iw ~multipath ~seed p size =
    let cfg = { Pquic.Connection.default_config with initial_window = iw } in
    let topo =
      if multipath then Topology.dual_path ~seed p p
      else Topology.single_path ~seed p
    in
    let plugins, to_inject =
      if multipath then
        ([ Plugins.Multipath.plugin ], [ Plugins.Multipath.name ])
      else ([], [])
    in
    match
      Exp.Runner.quic_transfer ~cfg ~plugins ~to_inject ~multipath ~topo ~size ()
    with
    | Some r -> Some r.Exp.Runner.dct
    | None -> None
  in
  List.iter
    (fun size ->
      let plugin_speedups = ref [] and mpquic_speedups = ref [] in
      List.iteri
        (fun i p ->
          let seed = seed_of_point i in
          (match (run ~iw:16384 ~multipath:false ~seed p size,
                  run ~iw:16384 ~multipath:true ~seed p size) with
          | Some s, Some m when m > 0. ->
            plugin_speedups := (s /. m) :: !plugin_speedups
          | _ -> ());
          match (run ~iw:32768 ~multipath:false ~seed p size,
                 run ~iw:32768 ~multipath:true ~seed p size) with
          | Some s, Some m when m > 0. ->
            mpquic_speedups := (s /. m) :: !mpquic_speedups
          | _ -> ())
        design;
      Exp.Stats.summarize
        ~label:(Printf.sprintf "plugin speedup %s" (human_size size))
        !plugin_speedups;
      Exp.Stats.summarize
        ~label:(Printf.sprintf "mp-quic speedup %s" (human_size size))
        !mpquic_speedups)
    sizes

(* ------------------------------------------------------------------ *)

let fig10 ~points ~cdf ~sizes () =
  pf "Figure 10: DCT ratio between PQUIC with and without the FEC plugin\n";
  pf "(in-flight ranges: d in [100,400]ms, bw in [0.3,10]Mbps, loss in [1,8]%%;\n";
  pf " RLC sliding-window code, 5 repair per 25 source symbols)\n\n";
  let design = Exp.Runner.inflight_points ~count:points () in
  let run ~plugin ~seed p size =
    let topo = Topology.single_path ~seed p in
    let plugins, to_inject =
      match plugin with
      | Some (pl : Pluginop.Plugin.t) -> ([ pl ], [ pl.name ])
      | None -> ([], [])
    in
    match Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size () with
    | Some r -> Some r.Exp.Runner.dct
    | None -> None
  in
  List.iter
    (fun size ->
      let eos = ref [] and full = ref [] in
      List.iteri
        (fun i p ->
          let seed = seed_of_point i in
          match run ~plugin:None ~seed p size with
          | None -> ()
          | Some base when base > 0. ->
            (match run ~plugin:(Some Plugins.Fec.rlc_eos) ~seed p size with
            | Some t -> eos := (t /. base) :: !eos
            | None -> ());
            (match run ~plugin:(Some Plugins.Fec.rlc_full) ~seed p size with
            | Some t -> full := (t /. base) :: !full
            | None -> ())
          | Some _ -> ())
        design;
      Exp.Stats.summarize
        ~label:(Printf.sprintf "EOS-only %s" (human_size size))
        !eos;
      Exp.Stats.summarize
        ~label:(Printf.sprintf "whole-stream %s" (human_size size))
        !full;
      if cdf then begin
        Exp.Stats.print_cdf ~label:("eos-" ^ human_size size) !eos;
        Exp.Stats.print_cdf ~label:("full-" ^ human_size size) !full
      end)
    sizes

(* ------------------------------------------------------------------ *)

let fig11 ~points ~cdf ~sizes () =
  pf "Figure 11: DCT ratio of TCP inside/outside a multipath PQUIC tunnel\n";
  pf "(datagram + multipath plugins combined over two symmetric paths)\n\n";
  let design = Exp.Runner.default_points ~count:points () in
  List.iter
    (fun size ->
      let ratios =
        List.mapi
          (fun i p ->
            let seed = seed_of_point i in
            let t_out =
              Exp.Runner.tcp_direct ~topo:(Topology.single_path ~seed p) ~size ()
            in
            let t_in =
              Exp.Runner.tcp_vpn ~multipath:true
                ~topo:(Topology.dual_path ~seed p p) ~size ()
            in
            match (t_in, t_out) with
            | Some i, Some o when o > 0. -> Some (i /. o)
            | _ -> None)
          design
        |> List.filter_map Fun.id
      in
      Exp.Stats.summarize
        ~label:(Printf.sprintf "DCT in/out %s" (human_size size))
        ratios;
      if cdf then Exp.Stats.print_cdf ~label:(human_size size) ratios)
    sizes

(* ------------------------------------------------------------------ *)

let table3 ~runs ~size () =
  pf "Table 3: benchmarking plugins over a fast link (%d runs, %s transfer)\n"
    runs (human_size size);
  pf "(the paper's goodput is CPU-bound on 10Gbps NICs; here goodput is\n";
  pf " bytes moved per CPU second of single-threaded execution, so PRE\n";
  pf " execution costs show up exactly like the paper's overhead)\n\n";
  let configs =
    [
      ("PQUIC, no plugin", [], []);
      ("Monitoring (a)", [ Plugins.Monitoring.plugin ], [ Plugins.Monitoring.name ]);
      ("Multipath 1-path (b)", [ Plugins.Multipath.plugin ], [ Plugins.Multipath.name ]);
      ( "a and b",
        [ Plugins.Monitoring.plugin; Plugins.Multipath.plugin ],
        [ Plugins.Monitoring.name; Plugins.Multipath.name ] );
      ("FEC XOR EOS", [ Plugins.Fec.xor_eos ],
       [ Plugins.Fec.xor_eos.Pluginop.Plugin.name ]);
      ("FEC RLC EOS", [ Plugins.Fec.rlc_eos ],
       [ Plugins.Fec.rlc_eos.Pluginop.Plugin.name ]);
      ("FEC XOR", [ Plugins.Fec.xor_full ],
       [ Plugins.Fec.xor_full.Pluginop.Plugin.name ]);
      ("FEC RLC", [ Plugins.Fec.rlc_full ],
       [ Plugins.Fec.rlc_full.Pluginop.Plugin.name ]);
    ]
  in
  pf "%-22s %14s %8s %14s %14s\n" "Plugin" "x~ Goodput" "sigma/x~"
    "Load (fresh)" "Load (cached)";
  List.iter
    (fun (label, plugins, to_inject) ->
      (* identical (seeded) workload for every repetition: like the paper,
         runs differ only in measurement noise. CPU time, not wall time,
         so other processes on the machine do not count against a row. *)
      let one_run () =
        let topo = Topology.fast_link ~seed:1000L in
        let t0 = Sys.time () in
        match Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size () with
        | Some _ ->
          let cpu = Sys.time () -. t0 in
          Some (float_of_int size *. 8. /. cpu /. 1e6)
        | None -> None
      in
      ignore (one_run ()) (* warmup *);
      let goodputs = List.init runs (fun _ -> one_run ()) |> List.filter_map Fun.id in
      (* plugin loading time: verified+compiled fresh instance vs the
         Section 2.5 cache reusing PREs as-is *)
      let fresh_us, cached_us =
        match plugins with
        | [] -> (0., 0.)
        | _ ->
          let topo = Topology.fast_link ~seed:77L in
          let sim = topo.Topology.sim and net = topo.Topology.net in
          let ep =
            Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr
              ~seed:3L ()
          in
          List.iter (Pquic.Endpoint.add_plugin ep) plugins;
          Pquic.Endpoint.listen ep;
          let conn ign =
            ignore ign;
            Pquic.Endpoint.connect ep ~remote_addr:topo.Topology.server_addr
          in
          let time f =
            let t0 = Unix.gettimeofday () in
            f ();
            (Unix.gettimeofday () -. t0) *. 1e6
          in
          let fresh_samples =
            List.init 7 (fun k ->
                let c = conn k in
                time (fun () ->
                    List.iter
                      (fun p ->
                        ignore
                          (Pquic.Connection.attach_instance c
                             Pquic.Connection.(build_instance (prepare p))))
                      plugins))
          in
          let cached_samples =
            List.init 7 (fun k ->
                let c = conn k in
                let insts =
                  List.map
                    Pquic.Connection.(fun p -> build_instance (prepare p))
                    plugins
                in
                (* simulate the cache hit: PREs exist, heap is wiped and the
                   helpers rebound on attach *)
                time (fun () ->
                    List.iter
                      (fun inst ->
                        ignore (Pquic.Connection.attach_instance c inst))
                      insts))
          in
          (Exp.Stats.median fresh_samples, Exp.Stats.median cached_samples)
      in
      let med = Exp.Stats.median goodputs in
      let rel = Exp.Stats.stddev goodputs /. med *. 100. in
      pf "%-22s %10.1f Mbps %7.1f%% %11.1f us %11.1f us\n" label med rel
        fresh_us cached_us)
    configs

(* ------------------------------------------------------------------ *)

let ablations () =
  pf "Ablations over the design choices DESIGN.md calls out\n\n";
  (* The ids A2-A4 are those EXPERIMENTS.md cites. *)
  (* 2. FEC code rate (Section 4.4): window size k and repair count r *)
  pf "A2. FEC code rate k/r (RLC whole-stream, same path)\n";
  pf "%8s %10s %11s %9s\n" "k/r" "DCT" "recovered" "rate";
  List.iter
    (fun (k, r) ->
      let plugin = Plugins.Fec.build ~k ~r ~code:Plugins.Fec.Rlc ~mode:Plugins.Fec.Full () in
      let topo =
        Topology.single_path ~seed:77L
          { Topology.d_ms = 100.; bw_mbps = 4.; loss = 0.05 }
      in
      match
        Exp.Runner.quic_transfer ~plugins:[ plugin ]
          ~to_inject:[ plugin.Pluginop.Plugin.name ] ~topo ~size:400_000 ()
      with
      | Some res ->
        pf "%5d/%-2d %8.3f s %11d %8.2f\n" k r res.Exp.Runner.dct
          res.Exp.Runner.client_stats.Pquic.Connection.frames_recovered
          (float_of_int k /. float_of_int (k + r))
      | None -> pf "%5d/%-2d %10s\n" k r "failed")
    [ (10, 2); (25, 2); (25, 5); (50, 5) ];
  (* 3. initial congestion window (the Figure 9 quic-go/PQUIC discrepancy) *)
  pf "\nA3. initial window vs short-transfer DCT (20 Mbps, 10 ms)\n";
  pf "%8s %12s %12s\n" "IW" "50 kB" "1 MB";
  List.iter
    (fun iw ->
      let cfg = { Pquic.Connection.default_config with initial_window = iw } in
      let dct size =
        let topo =
          Topology.single_path ~seed:77L
            { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
        in
        match Exp.Runner.quic_transfer ~cfg ~topo ~size () with
        | Some r -> r.Exp.Runner.dct
        | None -> nan
      in
      pf "%6dk %10.3f s %10.3f s\n" (iw / 1024) (dct 50_000) (dct 1_000_000))
    [ 8192; 16384; 32768; 65536 ];
  (* 4. reordering tolerance of per-path loss detection: multipath over
     asymmetric paths with shared vs per-path packet thresholds is baked
     in; report the spurious-retransmission rate as evidence *)
  pf "\nA4. multipath loss detection: spurious retransmits on asymmetric paths\n";
  let p1 = { Topology.d_ms = 5.; bw_mbps = 20.; loss = 0. } in
  let p2 = { Topology.d_ms = 25.; bw_mbps = 20.; loss = 0. } in
  let topo = Topology.dual_path ~seed:88L p1 p2 in
  (match
     Exp.Runner.quic_transfer ~plugins:[ Plugins.Multipath.plugin ]
       ~to_inject:[ Plugins.Multipath.name ] ~multipath:true ~topo
       ~size:2_000_000 ()
   with
  | Some r -> (
    match r.Exp.Runner.server_stats with
    | Some st ->
      pf "  server retransmissions: %d of %d packets (%.2f%%)\n"
        st.Pquic.Connection.pkts_retransmitted st.Pquic.Connection.pkts_sent
        (100.
         *. float_of_int st.Pquic.Connection.pkts_retransmitted
         /. float_of_int (max 1 st.Pquic.Connection.pkts_sent))
    | None -> ())
  | None -> pf "  failed\n")

open Cmdliner

let points_t =
  Arg.(value & opt int 139 & info [ "points" ] ~doc:"WSP design points")

let cdf_t = Arg.(value & flag & info [ "cdf" ] ~doc:"print full CDF series")

let runs_t = Arg.(value & opt int 9 & info [ "runs" ] ~doc:"repetitions (table3)")

let size_cap_t =
  Arg.(value & opt int max_int & info [ "size-cap" ] ~doc:"largest file size")

let table3_size_t =
  Arg.(value & opt int 20_000_000 & info [ "transfer" ] ~doc:"table3 bytes")

let sizes ~cap = List.filter (fun s -> s <= cap) sizes_all

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) f

let table2_cmd = cmd "table2" "Plugin statistics (Table 2)" Term.(const table2 $ const ())

let fig8_cmd =
  cmd "fig8" "Single-path VPN DCT ratios (Figure 8)"
    Term.(
      const (fun points cdf cap -> fig8 ~points ~cdf ~sizes:(sizes ~cap) ())
      $ points_t $ cdf_t $ size_cap_t)

let fig9_cmd =
  cmd "fig9" "Multipath speedup (Figure 9)"
    Term.(
      const (fun points cap ->
          fig9 ~points
            ~sizes:(List.filter (fun s -> s >= 10_000 && s <= cap) sizes_all)
            ())
      $ points_t $ size_cap_t)

let fig10_cmd =
  cmd "fig10" "FEC DCT ratios (Figure 10)"
    Term.(
      const (fun points cdf cap ->
          fig10 ~points ~cdf
            ~sizes:(List.filter (fun s -> s <= min cap 1_000_000) sizes_all)
            ())
      $ points_t $ cdf_t $ size_cap_t)

let fig11_cmd =
  cmd "fig11" "Multipath VPN DCT ratios (Figure 11)"
    Term.(
      const (fun points cdf cap -> fig11 ~points ~cdf ~sizes:(sizes ~cap) ())
      $ points_t $ cdf_t $ size_cap_t)

let ablations_cmd =
  cmd "ablations" "Design-choice ablations (FEC rate, IW, multipath loss detection)"
    Term.(const ablations $ const ())

let table3_cmd =
  cmd "table3" "Plugin goodput benchmark (Table 3)"
    Term.(const (fun runs size -> table3 ~runs ~size ()) $ runs_t $ table3_size_t)

let all_cmd =
  cmd "all" "Run everything (use --points to shrink)"
    Term.(
      const (fun points runs cap tsize ->
          table2 ();
          pf "\n";
          fig8 ~points ~cdf:false ~sizes:(sizes ~cap) ();
          pf "\n";
          fig9 ~points ~sizes:(List.filter (fun s -> s >= 10_000 && s <= cap) sizes_all) ();
          pf "\n";
          fig10 ~points ~cdf:false
            ~sizes:(List.filter (fun s -> s <= min cap 1_000_000) sizes_all) ();
          pf "\n";
          fig11 ~points ~cdf:false ~sizes:(sizes ~cap) ();
          pf "\n";
          table3 ~runs ~size:tsize ())
      $ points_t $ runs_t $ size_cap_t $ table3_size_t)

let () =
  let info = Cmd.info "experiments" ~doc:"PQUIC paper experiment harness" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ table2_cmd; fig8_cmd; fig9_cmd; fig10_cmd; fig11_cmd; table3_cmd;
            ablations_cmd; all_cmd ]))
