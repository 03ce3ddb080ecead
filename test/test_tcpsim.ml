(* TCP baseline tests: segment codec, Cubic behaviour, transfers under
   loss, SACK recovery and reordering tolerance, plus the VPN tunnel. *)

module Sim = Netsim.Sim
module Net = Netsim.Net
module Topology = Netsim.Topology
module Tcp = Tcpsim.Tcp

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let segment_roundtrip =
  qtest ~count:200 "segment serialize/deserialize roundtrip"
    QCheck2.Gen.(
      tup5 (int_range 0 65535) (int_range 0 1000000) (int_range 0 1000000)
        (int_range 0 7)
        (pair (int_range 0 1000)
           (list_size (int_range 0 3)
              (map (fun (a, b) -> (min a b, max a b + 1))
                 (pair (int_range 0 10000) (int_range 0 10000))))))
    (fun (conn_id, seq, ack, flags, (len, sacks)) ->
      let seg = { Tcp.conn_id; seq; ack; flags; len; sacks } in
      match Tcp.deserialize (Tcp.serialize seg) with
      | Some got ->
        got.Tcp.conn_id = conn_id && got.Tcp.seq = seq && got.Tcp.ack = ack
        && got.Tcp.flags = flags && got.Tcp.len = len
        && got.Tcp.sacks = List.filteri (fun i _ -> i < 3) sacks
      | None -> false)

let test_garbage_segment () =
  check Alcotest.bool "garbage rejected" true (Tcp.deserialize "XYZ" = None)

(* ------------------------------- cubic -------------------------------- *)

let test_cubic_slow_start_doubles () =
  let c = Tcpsim.Cubic.create ~mss:1000 ~initial_window_segments:10 () in
  let before = Tcpsim.Cubic.cwnd c in
  (* an RTT worth of acks in slow start roughly doubles the window *)
  for _ = 1 to 10 do
    Tcpsim.Cubic.on_ack c ~now:0.1 ~acked_bytes:1000 ~rtt:0.05
  done;
  check Alcotest.bool "doubled" true (Tcpsim.Cubic.cwnd c >= 2 * before - 1000)

let test_cubic_loss_reduces () =
  let c = Tcpsim.Cubic.create ~mss:1000 () in
  for _ = 1 to 50 do
    Tcpsim.Cubic.on_ack c ~now:0.1 ~acked_bytes:1000 ~rtt:0.05
  done;
  let before = Tcpsim.Cubic.cwnd c in
  Tcpsim.Cubic.on_loss c ~now:0.2;
  let after = Tcpsim.Cubic.cwnd c in
  check Alcotest.bool "beta = 0.7 decrease" true
    (float_of_int after >= 0.65 *. float_of_int before
     && float_of_int after <= 0.75 *. float_of_int before)

let test_cubic_rto_collapses () =
  let c = Tcpsim.Cubic.create ~mss:1000 () in
  Tcpsim.Cubic.on_rto c;
  check Alcotest.int "one segment after RTO" 1000 (Tcpsim.Cubic.cwnd c)

let test_cubic_recovers_toward_wmax () =
  let c = Tcpsim.Cubic.create ~mss:1000 () in
  for _ = 1 to 100 do
    Tcpsim.Cubic.on_ack c ~now:0.1 ~acked_bytes:1000 ~rtt:0.05
  done;
  let wmax = Tcpsim.Cubic.cwnd c in
  Tcpsim.Cubic.on_loss c ~now:1.0;
  (* drive acks with advancing time: the cubic function climbs back *)
  let t = ref 1.0 in
  for _ = 1 to 400 do
    t := !t +. 0.01;
    Tcpsim.Cubic.on_ack c ~now:!t ~acked_bytes:1000 ~rtt:0.05
  done;
  check Alcotest.bool "window climbed back near w_max" true
    (Tcpsim.Cubic.cwnd c > (wmax * 8) / 10)

(* ------------------------------ transfers ------------------------------ *)

let direct_transfer ?(loss = 0.) ?(d_ms = 10.) ?(bw = 20.) ?(seed = 5L) ~size () =
  let topo = Topology.single_path ~seed { Topology.d_ms; bw_mbps = bw; loss } in
  Exp.Runner.tcp_direct ~topo ~size ()

let test_transfer_completes () =
  match direct_transfer ~size:1_000_000 () with
  | Some dct ->
    (* ideal is ~0.45 s at 20 Mbps: allow generous slack, catch disasters *)
    check Alcotest.bool (Printf.sprintf "reasonable DCT (%.3f)" dct) true (dct < 1.5)
  | None -> Alcotest.fail "transfer did not complete"

let test_transfer_near_link_rate () =
  match direct_transfer ~size:10_000_000 () with
  | Some dct ->
    let goodput = 10_000_000. *. 8. /. dct /. 1e6 in
    check Alcotest.bool
      (Printf.sprintf "goodput %.1f Mbps of 20" goodput)
      true
      (goodput > 15.)
  | None -> Alcotest.fail "transfer did not complete"

let lossy_transfers =
  qtest ~count:8 "transfers complete under random loss"
    QCheck2.Gen.(pair (map Int64.of_int (int_range 1 1000)) (int_range 1 8))
    (fun (seed, loss_pct) ->
      direct_transfer ~seed ~loss:(float_of_int loss_pct /. 100.) ~size:300_000 ()
      <> None)

let test_sack_beats_tail_drop () =
  (* 3%% random loss in both directions: SACK-based recovery must keep the
     transfer moving (an RTO-only sender would crawl) *)
  match direct_transfer ~loss:0.03 ~size:2_000_000 ~seed:42L () with
  | Some dct ->
    check Alcotest.bool (Printf.sprintf "completes at 3%%%% loss (%.1fs)" dct)
      true (dct < 25.)
  | None -> Alcotest.fail "transfer did not complete"

let test_tiny_transfer () =
  match direct_transfer ~size:1 () with
  | Some _ -> ()
  | None -> Alcotest.fail "1-byte transfer failed"

let test_reordering_tolerance () =
  (* deliver segments through two alternating links of different delay:
     persistent 2-packet reordering must not collapse throughput *)
  let sim = Sim.create () in
  let net = Net.create sim in
  let rng = Netsim.Rng.create 1L in
  let l1 = Netsim.Link.create ~sim ~delay_ms:10. ~rate_mbps:50. ~loss:0. ~rng () in
  let l2 = Netsim.Link.create ~sim ~delay_ms:13. ~rate_mbps:50. ~loss:0. ~rng () in
  let back = Netsim.Link.create ~sim ~delay_ms:10. ~rate_mbps:50. ~loss:0. ~rng () in
  let flip = ref false in
  let completed = ref false in
  let receiver_tx = ref (fun _ -> ()) in
  let receiver =
    Tcp.create_receiver ~transport:(fun pkt -> !receiver_tx pkt)
      ~on_complete:(fun () -> completed := true) ()
  in
  let sender =
    Tcp.create_sender ~sim
      ~transport:(fun pkt ->
        flip := not !flip;
        let l = if !flip then l1 else l2 in
        Netsim.Link.send l ~size:(String.length pkt) (fun () ->
            Tcp.receiver_receive receiver pkt))
      ~total:2_000_000
      ~on_done:(fun () -> ())
      ()
  in
  receiver_tx :=
    (fun pkt ->
      Netsim.Link.send back ~size:(String.length pkt) (fun () ->
          Tcp.sender_receive sender pkt));
  ignore net;
  Tcp.start_sender sender;
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "completed despite reordering" true !completed;
  (* throughput must stay healthy: persistent reordering without the RACK
     window would collapse the window to nothing *)
  check Alcotest.bool
    (Printf.sprintf "good throughput despite reordering (%.2fs)"
       (Sim.to_sec (Sim.now sim)))
    true
    (Sim.to_sec (Sim.now sim) < 3.);
  check Alcotest.bool
    (Printf.sprintf "bounded spurious retransmissions (%d)" sender.Tcp.retransmissions)
    true
    (sender.Tcp.retransmissions < 400)

(* ------------------------------- tunnel -------------------------------- *)

let test_vpn_overhead_bounded () =
  let p = { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. } in
  let t_out = Exp.Runner.tcp_direct ~topo:(Topology.single_path ~seed:11L p) ~size:2_000_000 () in
  let t_in = Exp.Runner.tcp_vpn ~topo:(Topology.single_path ~seed:11L p) ~size:2_000_000 () in
  match (t_out, t_in) with
  | Some o, Some i ->
    let ratio = i /. o in
    check Alcotest.bool (Printf.sprintf "ratio %.3f in [1.0, 1.3]" ratio) true
      (ratio > 1.0 && ratio < 1.3)
  | _ -> Alcotest.fail "vpn transfer failed"

let test_multipath_vpn_beats_single () =
  let p = { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. } in
  let t_single = Exp.Runner.tcp_vpn ~topo:(Topology.single_path ~seed:11L p) ~size:5_000_000 () in
  let t_multi =
    Exp.Runner.tcp_vpn ~multipath:true ~topo:(Topology.dual_path ~seed:11L p p)
      ~size:5_000_000 ()
  in
  match (t_single, t_multi) with
  | Some s, Some m ->
    check Alcotest.bool (Printf.sprintf "multipath faster (%.2f vs %.2f)" m s)
      true (m < s)
  | _ -> Alcotest.fail "vpn transfer failed"

let tests =
  [
    ("segments", [
      Alcotest.test_case "garbage" `Quick test_garbage_segment;
      segment_roundtrip;
    ]);
    ("cubic", [
      Alcotest.test_case "slow start" `Quick test_cubic_slow_start_doubles;
      Alcotest.test_case "loss decrease" `Quick test_cubic_loss_reduces;
      Alcotest.test_case "rto collapse" `Quick test_cubic_rto_collapses;
      Alcotest.test_case "cubic recovery" `Quick test_cubic_recovers_toward_wmax;
    ]);
    ("transfer", [
      Alcotest.test_case "completes" `Quick test_transfer_completes;
      Alcotest.test_case "near link rate" `Quick test_transfer_near_link_rate;
      Alcotest.test_case "sack recovery" `Quick test_sack_beats_tail_drop;
      Alcotest.test_case "tiny transfer" `Quick test_tiny_transfer;
      Alcotest.test_case "reordering tolerance" `Quick test_reordering_tolerance;
      lossy_transfers;
    ]);
    ("vpn", [
      Alcotest.test_case "overhead bounded" `Quick test_vpn_overhead_bounded;
      Alcotest.test_case "multipath vpn faster" `Quick test_multipath_vpn_beats_single;
    ]);
  ]
