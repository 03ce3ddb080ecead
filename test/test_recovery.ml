(* Loss-recovery bookkeeping. The built-in loss timer and loss detector
   answer from the heads of the per-path send-order FIFOs
   ([Connection.inflight]) and fold over the whole in-flight table only
   when the heads show the fold could decide differently. The
   differential suite steps lossy single- and dual-path transfers one
   simulator event at a time and, after every event, checks on both
   endpoints that the FIFOs are in send order and that the heads answer
   as the fold does. The last group bounds the retained send-time
   history of a sender whose packet-number boundaries carry only ACKs. *)

module Sim = Netsim.Sim
module Topology = Netsim.Topology
module C = Pquic.Connection
module R = Pquic.Recovery

let check = Alcotest.check

(* ----------------------- index vs whole-table fold ------------------- *)

type tally = {
  mutable may_lose : int; (* inspections where a head met a loss condition *)
  mutable ties : int; (* inspections where heads of two paths tied *)
  mutable diff : string option; (* the first disagreement found *)
}

(* The premise of the shortcuts: each path's FIFO holds that path's
   in-flight packets in send order — [path_seq] increasing, [sent_at]
   never decreasing — and every in-flight packet is in a FIFO. *)
let in_send_order (c : C.t) =
  let live (sp : C.sent_packet) =
    match Hashtbl.find_opt c.C.sent sp.C.pn with
    | Some x -> x == sp
    | None -> false
  in
  let indexed = ref 0 and ordered = ref true in
  Array.iteri
    (fun path q ->
      let prev = ref None in
      Queue.iter
        (fun (sp : C.sent_packet) ->
          if live sp then begin
            incr indexed;
            if sp.C.path_id <> path then ordered := false;
            (match !prev with
            | Some (p : C.sent_packet)
              when p.C.path_seq >= sp.C.path_seq || p.C.sent_at > sp.C.sent_at ->
              ordered := false
            | _ -> ());
            prev := Some sp
          end)
        q)
    c.C.inflight;
  !ordered && !indexed = Hashtbl.length c.C.sent

let show_packet (sp : C.sent_packet) =
  Printf.sprintf "(sent_at %Ld, path %d)" sp.C.sent_at sp.C.path_id

(* Compare the heads' answers with the fold over [sent], now. *)
let inspect t (c : C.t) =
  let now = Sim.now c.C.sim in
  let index_lose = R.index_may_lose c ~now in
  let fold_lose =
    Hashtbl.fold (fun _ sp acc -> acc || R.meets_loss c ~now sp) c.C.sent false
  in
  let index_oldest = R.indexed_oldest c in
  let fold_oldest = R.oldest_in_flight c in
  let oldest_agrees =
    match (index_oldest, fold_oldest) with
    | R.No_packet, None -> true
    | R.Head sp, Some o ->
      sp.C.sent_at = o.C.sent_at && sp.C.path_id = o.C.path_id
    | R.Tied sp, Some o -> sp.C.sent_at = o.C.sent_at
    | _ -> false
  in
  if index_lose then t.may_lose <- t.may_lose + 1;
  (match index_oldest with R.Tied _ -> t.ties <- t.ties + 1 | _ -> ());
  let diff =
    if not (in_send_order c) then
      Some "FIFOs out of send order or missing an in-flight packet"
    else if index_lose <> fold_lose || not oldest_agrees then
      Some
        (Printf.sprintf "index may_lose=%b oldest=%s; fold may_lose=%b oldest=%s"
           index_lose
           (match index_oldest with
           | R.No_packet -> "none"
           | R.Head sp -> show_packet sp
           | R.Tied sp -> "tie " ^ show_packet sp)
           fold_lose
           (match fold_oldest with None -> "none" | Some sp -> show_packet sp))
    else None
  in
  match (t.diff, diff) with
  | None, Some d -> t.diff <- Some (Printf.sprintf "at %Ldns: %s" now d)
  | _ -> ()

let transfer_size = 100_000

(* One GET over a lossy single path, or over two symmetric lossy paths
   with the multipath plugin on both peers, stepped one simulator event
   at a time with both endpoints inspected after each, and inside events
   too, just before each loss-detection pass — the one moment a head can
   meet a loss condition, since the pass declares it lost. *)
let checked_transfer ~seed ~dual ~loss =
  let t = { may_lose = 0; ties = 0; diff = None } in
  let inspect_before_detection c =
    (Pquic.Dispatch.entry c Pquic.Protoop.detect_lost_packets None).C.pre <-
      [ C.Native ("index-vs-fold", fun c _ -> inspect t c; 0L) ]
  in
  let p = { Topology.d_ms = 10.; bw_mbps = 5.; loss } in
  let topo =
    if dual then Topology.dual_path ~seed p p else Topology.single_path ~seed p
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server_ep =
    Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr
      ~seed:0x5EedL ()
  in
  let client_ep =
    Pquic.Endpoint.create ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs)
      ~extra_addrs:(List.tl topo.Topology.client_addrs)
      ~seed:0xC11e47L ()
  in
  if dual then begin
    Pquic.Endpoint.add_plugin server_ep Plugins.Multipath.plugin;
    Pquic.Endpoint.add_plugin client_ep Plugins.Multipath.plugin
  end;
  Pquic.Endpoint.listen server_ep;
  Pquic.Endpoint.listen client_ep;
  let server = ref None in
  server_ep.Pquic.Endpoint.on_connection <-
    (fun c ->
      if Option.is_none !server then server := Some c;
      inspect_before_detection c;
      c.C.on_stream_data <-
        (fun id _ ~fin ->
          if fin then
            C.write_stream c ~id ~fin:true (String.make transfer_size 'x')));
  let conn =
    Pquic.Endpoint.connect client_ep ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:(if dual then [ Plugins.Multipath.name ] else [])
  in
  inspect_before_detection conn;
  let fin = ref false in
  conn.C.on_established <-
    (fun () -> C.write_stream conn ~id:0 ~fin:true "GET /file");
  conn.C.on_stream_data <- (fun _ _ ~fin:last -> if last then fin := true);
  let cap = Sim.of_sec 60. in
  while
    Option.is_none t.diff && (not !fin) && C.is_open conn
    && Sim.now sim < cap
    && Sim.run ~max_events:1 sim > 0
  do
    inspect t conn;
    Option.iter (inspect t) !server
  done;
  t

let index_agrees_with_fold =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:16
       ~name:"index heads answer as the whole-table fold, every event"
       QCheck2.Gen.(triple (int_range 1 1_000_000) bool (int_range 1 5))
       (fun (seed, dual, loss_pct) ->
         let t =
           checked_transfer ~seed:(Int64.of_int seed) ~dual
             ~loss:(float_of_int loss_pct /. 100.)
         in
         match t.diff with
         | None -> true
         | Some d ->
           QCheck2.Test.fail_reportf "seed %d, %s, %d%% loss: %s" seed
             (if dual then "dual_path + multipath" else "single_path")
             loss_pct d))

(* The property means something only if the runs reach both sides of
   each shortcut: heads meeting a loss condition (the fold runs) and
   heads of two paths tied on the earliest send time (the timer falls
   back to the fold). *)
let test_shortcuts_exercised () =
  let single = checked_transfer ~seed:11L ~dual:false ~loss:0.03 in
  let dual = checked_transfer ~seed:11L ~dual:true ~loss:0.03 in
  check (Alcotest.option Alcotest.string) "single path agrees" None single.diff;
  check (Alcotest.option Alcotest.string) "dual path agrees" None dual.diff;
  check Alcotest.bool "losses seen at the heads" true
    (single.may_lose > 0 && dual.may_lose > 0);
  check Alcotest.bool "cross-path ties seen" true (dual.ties > 0)

(* ----------------------- retained send times ------------------------ *)

(* A sender whose every packet-number boundary (a multiple of 4096)
   carries only an ACK: even pns are ACK-only, odd pns carry a PING that
   is acked at once so the congestion window never closes. The history
   must stay bounded — at most the ack-eliciting pns among the 12288 up
   to the newest — while every ack-eliciting pn among the last 8192
   still answers. *)
let test_sent_times_bounded () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let c =
    C.create ~sim:topo.Topology.sim ~net:topo.Topology.net
      ~cfg:C.default_config ~role:C.Client
      ~local_addr:(List.hd topo.Topology.client_addrs)
      ~remote_addr:topo.Topology.server_addr ~local_cid:1L ~remote_cid:2L
      ~local_params:Quic.Transport_params.default ()
  in
  let pairs = 20_000 in
  for k = 1 to pairs do
    Quic.Ackranges.add c.C.acks (Int64.of_int k);
    c.C.ack_needed <- true;
    ignore (Pquic.Sender.build_and_send_packet c);
    Queue.push Quic.Frame.Ping c.C.ctrl;
    ignore (Pquic.Sender.build_and_send_packet c);
    let pn = Int64.pred c.C.next_pn in
    R.process_ack c
      { Quic.Frame.largest = pn; delay_us = 0L; ranges = [ (pn, pn) ] }
  done;
  let newest = Int64.pred c.C.next_pn in
  check Alcotest.int64 "one pn per packet" (Int64.of_int ((2 * pairs) - 1))
    newest;
  let retained = Hashtbl.length c.C.sent_times in
  check Alcotest.bool
    (Printf.sprintf "history bounded (%d entries)" retained)
    true
    (retained <= ((8192 + 4096) / 2) + 1);
  let recent_missing = ref 0 and ack_only_kept = ref 0 in
  for i = 0 to 8192 do
    let pn = Int64.sub newest (Int64.of_int i) in
    let kept = Hashtbl.mem c.C.sent_times pn in
    if Int64.rem pn 2L = 1L then (if not kept then incr recent_missing)
    else if kept then incr ack_only_kept
  done;
  check Alcotest.int "recent ack-eliciting pns answer" 0 !recent_missing;
  check Alcotest.int "ACK-only pns never recorded" 0 !ack_only_kept

let tests =
  [
    ( "index",
      [
        index_agrees_with_fold;
        Alcotest.test_case "shortcuts exercised" `Quick test_shortcuts_exercised;
      ] );
    ( "sent_times",
      [
        Alcotest.test_case "bounded when boundaries are ACK-only" `Quick
          test_sent_times_bounded;
      ] );
  ]
