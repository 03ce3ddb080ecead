(* Tests for the Section 4 "less than 100 lines" extension plugins: Tail
   Loss Probe, ECN, and the pluggable AIMD congestion controller, plus the
   ECN marking path through the simulator. *)

module Topology = Netsim.Topology
module Sim = Netsim.Sim
module Net = Netsim.Net

let check = Alcotest.check

(* ------------------------- substrate: CE marking ----------------------- *)

let test_link_ce_marking () =
  let sim = Sim.create () in
  let link =
    Netsim.Link.create ~sim ~delay_ms:1. ~rate_mbps:8. ~loss:0.
      ~rng:(Netsim.Rng.create 1L) ~buffer:20_000 ~ecn_threshold:2_000 ()
  in
  let marked = ref 0 and clean = ref 0 in
  for _ = 1 to 10 do
    Netsim.Link.send_ecn link ~size:1000 (fun ~ce ->
        if ce then incr marked else incr clean)
  done;
  ignore (Sim.run sim);
  check Alcotest.bool "deep queue gets marked" true (!marked > 0);
  check Alcotest.bool "shallow queue stays clean" true (!clean > 0);
  check Alcotest.int "stats agree" !marked (Netsim.Link.stats link).Netsim.Link.ce_marked

let test_net_ce_propagates () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let rng = Netsim.Rng.create 1L in
  let congested =
    Netsim.Link.create ~sim ~delay_ms:1. ~rate_mbps:8. ~loss:0. ~rng
      ~buffer:20_000 ~ecn_threshold:1 ()
  in
  Net.add_route net ~src:1 ~dst:2 [ congested ];
  let got_ce = ref false in
  Net.attach net 2 (fun dg ->
      match dg.Net.payload with Net.Ce _ -> got_ce := true | _ -> ());
  (* the second packet queues behind the first and gets marked *)
  Net.send net { Net.src = 1; dst = 2; size = 1000; payload = Net.Raw "a" };
  Net.send net { Net.src = 1; dst = 2; size = 1000; payload = Net.Raw "b" };
  ignore (Sim.run sim);
  check Alcotest.bool "CE wrapper delivered" true !got_ce

(* ----------------------------- table 2 rows ---------------------------- *)

let test_extras_are_tiny () =
  (* the paper's claim: these extensions are well under 100 lines *)
  List.iter
    (fun (p : Pluginop.Plugin.t) ->
      let s = Pluginop.Plugin.stats p in
      check Alcotest.bool
        (Printf.sprintf "%s is %d LoC (< 100)" s.Pluginop.Plugin.name s.Pluginop.Plugin.loc)
        true (s.Pluginop.Plugin.loc < 100))
    [ Plugins.Extras.Tlp.plugin; Plugins.Extras.Ecn.plugin;
      Plugins.Extras.Aimd.plugin ];
  List.iter
    (fun (p : Pluginop.Plugin.t) ->
      let s = Pluginop.Plugin.stats p in
      check Alcotest.int
        (Printf.sprintf "%s fully proven" s.Pluginop.Plugin.name)
        s.Pluginop.Plugin.pluglet_count s.Pluginop.Plugin.proven_terminating)
    [ Plugins.Extras.Tlp.plugin; Plugins.Extras.Ecn.plugin;
      Plugins.Extras.Aimd.plugin ]

(* ------------------------------ behaviour ------------------------------ *)

let transfer ?(ecn_threshold = 0) ?(loss = 0.) ?(bw = 10.) ?(size = 500_000)
    ?(seed = 21L) ~plugins ~to_inject () =
  let topo =
    Topology.single_path ~ecn_threshold ~seed
      { Topology.d_ms = 20.; bw_mbps = bw; loss }
  in
  Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size ()

let test_tlp_speeds_up_tail_loss () =
  (* small lossy transfers: when the tail is lost only the timer can save
     it, and the shortened TLP timer must win on aggregate and in several
     individual seeds *)
  let dct plugins to_inject seed =
    match transfer ~loss:0.06 ~size:12_000 ~seed ~plugins ~to_inject () with
    | Some r -> r.Exp.Runner.dct
    | None -> Alcotest.fail "transfer failed"
  in
  let seeds = List.init 40 (fun k -> Int64.of_int (k + 1)) in
  let base = List.map (dct [] []) seeds in
  let tlp =
    List.map
      (dct [ Plugins.Extras.Tlp.plugin ] [ Plugins.Extras.Tlp.name ])
      seeds
  in
  let sum = List.fold_left ( +. ) 0. in
  let faster =
    List.length (List.filter (fun (t, b) -> t < b -. 1e-6) (List.combine tlp base))
  in
  check Alcotest.bool
    (Printf.sprintf "TLP faster on aggregate (%.3f vs %.3f)" (sum tlp) (sum base))
    true
    (sum tlp < sum base);
  check Alcotest.bool
    (Printf.sprintf "TLP wins individual tail-loss seeds (%d)" faster)
    true (faster >= 3)

let test_ecn_reduces_queue_drops () =
  (* with DCTAP-style marking, the sender backs off before the drop-tail
     queue overflows: queue drops shrink vs the no-ECN run *)
  let run plugins to_inject =
    let topo =
      Topology.single_path ~buffer:30_000 ~ecn_threshold:12_000 ~seed:31L
        { Topology.d_ms = 20.; bw_mbps = 10.; loss = 0. }
    in
    match Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size:3_000_000 () with
    | Some r ->
      let up, down = List.hd topo.Topology.mid_links in
      ignore up;
      ((Netsim.Link.stats down).Netsim.Link.queue_drops, r.Exp.Runner.dct)
    | None -> Alcotest.fail "transfer failed"
  in
  let drops_plain, _ = run [] [] in
  let drops_ecn, _ =
    run [ Plugins.Extras.Ecn.plugin ] [ Plugins.Extras.Ecn.name ]
  in
  check Alcotest.bool
    (Printf.sprintf "ECN cuts congestion drops (%d -> %d)" drops_plain drops_ecn)
    true
    (drops_ecn < drops_plain)

let test_aimd_controls_window () =
  (* replacing the cc operations still completes transfers, and without
     slow start the early window stays small *)
  match
    transfer ~size:1_000_000
      ~plugins:[ Plugins.Extras.Aimd.plugin ]
      ~to_inject:[ Plugins.Extras.Aimd.name ] ()
  with
  | Some r ->
    check Alcotest.bool "completes with the plugin CC" true (r.Exp.Runner.dct > 0.);
    (match r.Exp.Runner.server_conn with
    | Some sconn ->
      (* additive increase only: the window grew past the initial 16 kB but
         far less than slow start would have *)
      let cwnd = Quic.Cc.cwnd sconn.Pquic.Connection.paths.(0).Pquic.Connection.cc in
      check Alcotest.bool (Printf.sprintf "AIMD window %d" cwnd) true
        (cwnd > 16_384)
    | None -> Alcotest.fail "no server conn")
  | None -> Alcotest.fail "transfer failed"

let test_aimd_slower_than_newreno_in_slow_start_phase () =
  let dct plugins to_inject =
    match transfer ~bw:50. ~size:2_000_000 ~plugins ~to_inject () with
    | Some r -> r.Exp.Runner.dct
    | None -> Alcotest.fail "transfer failed"
  in
  let reno = dct [] [] in
  let aimd = dct [ Plugins.Extras.Aimd.plugin ] [ Plugins.Extras.Aimd.name ] in
  check Alcotest.bool
    (Printf.sprintf "no slow start costs time (%.2f vs %.2f)" aimd reno)
    true (aimd > reno)

let test_tlp_with_fec_combination () =
  (* orthogonal plugins compose: TLP (timer policy) + FEC (redundancy) *)
  match
    transfer ~loss:0.05
      ~plugins:[ Plugins.Extras.Tlp.plugin; Plugins.Fec.rlc_full ]
      ~to_inject:
        [ Plugins.Extras.Tlp.name;
          Plugins.Fec.rlc_full.Pluginop.Plugin.name ]
      ()
  with
  | Some r ->
    check Alcotest.bool "combination recovers" true
      (r.Exp.Runner.client_stats.Pquic.Connection.frames_recovered > 0)
  | None -> Alcotest.fail "combined transfer failed"

let tests =
  [
    ("ecn_substrate", [
      Alcotest.test_case "link CE marking" `Quick test_link_ce_marking;
      Alcotest.test_case "CE propagates" `Quick test_net_ce_propagates;
    ]);
    ("extras", [
      Alcotest.test_case "under 100 LoC" `Quick test_extras_are_tiny;
      Alcotest.test_case "TLP tail losses" `Quick test_tlp_speeds_up_tail_loss;
      Alcotest.test_case "ECN backs off early" `Quick test_ecn_reduces_queue_drops;
      Alcotest.test_case "AIMD plugin CC" `Quick test_aimd_controls_window;
      Alcotest.test_case "AIMD vs built-in" `Quick test_aimd_slower_than_newreno_in_slow_start_phase;
      Alcotest.test_case "TLP + FEC compose" `Quick test_tlp_with_fec_combination;
    ]);
  ]
