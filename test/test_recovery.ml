(* Loss-recovery bookkeeping. The built-in loss timer and loss detector
   answer from the heads of the per-path send-order FIFOs
   ([Connection.inflight]) and fold over the whole in-flight table only
   when the heads show the fold could decide differently. The
   differential suite steps lossy single- and dual-path transfers one
   simulator event at a time and, after every event, checks on both
   endpoints that the FIFOs are in send order and that the heads answer
   as the fold does. The next group bounds the retained send-time
   history of a sender whose packet-number boundaries carry only ACKs,
   drives the send-time ring against the swept hashtable it replaced
   ([Sent_times_ref]) and checks that a sparse sender keeps a small
   ring; then the in-flight table's iteration order is checked against
   a generic [Hashtbl]'s; the last group checks that ACK processing,
   which stops walking ranges at the lowest live packet number, credits
   exactly what a full walk would and still rejects truncated ACKs. *)

module Sim = Netsim.Sim
module Topology = Netsim.Topology
module C = Pquic.Connection
module R = Pquic.Recovery

let check = Alcotest.check

(* Feed [ack] to [c] the way the receive path does: encoded, parsed as a
   view, then processed off the wire bytes. *)
let process_ack c (ack : Quic.Frame.ack) =
  let s = Quic.Frame.to_string (Quic.Frame.Ack ack) in
  let r = Quic.Reader.create () in
  Quic.Reader.reset r s ~pos:0 ~limit:(String.length s);
  match Quic.Frame.parse_view r with
  | Quic.Frame.V_ack { largest; delay_us; first_len; count; off; len = _ } ->
    R.process_ack c s ~largest ~delay_us ~first_len ~count ~off
  | _ -> Alcotest.fail "not parsed as an ACK view"

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
    match C.Pn_table.find_opt c.C.sent sp.C.pn with
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
  !ordered && !indexed = C.Pn_table.length c.C.sent

let show_packet (sp : C.sent_packet) =
  Printf.sprintf "(sent_at %Ld, path %d)" sp.C.sent_at sp.C.path_id

(* Compare the heads' answers with the fold over [sent], now. *)
let inspect t (c : C.t) =
  let now = Sim.now c.C.sim in
  let index_lose = R.index_may_lose c ~now in
  let fold_lose =
    C.Pn_table.fold (fun _ sp acc -> acc || R.meets_loss c ~now sp) c.C.sent false
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
    (Pluginop.Dispatch.entry c.C.po Pluginop.Protoop.detect_lost_packets None).C.pre <-
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

(* A client connection on a lossless path, never started: packets are
   built and acknowledged by hand. *)
let fresh_sender () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  C.create ~owner:C.standalone ~sim:topo.Topology.sim ~net:topo.Topology.net
    ~cfg:C.default_config ~role:C.Client
    ~local_addr:(List.hd topo.Topology.client_addrs)
    ~remote_addr:topo.Topology.server_addr ~local_cid:1L ~remote_cid:2L
    ~local_params:Quic.Transport_params.default ()

(* A sender whose every packet-number boundary (a multiple of 4096)
   carries only an ACK: even pns are ACK-only, odd pns carry a PING that
   is acked at once so the congestion window never closes. The history
   must stay bounded — at most the ack-eliciting pns among the 12288 up
   to the newest — while every ack-eliciting pn among the last 8192
   still answers. *)
let test_sent_times_bounded () =
  let c = fresh_sender () in
  let pairs = 20_000 in
  for k = 1 to pairs do
    Quic.Ackranges.add c.C.acks (Int64.of_int k);
    c.C.ack_needed <- true;
    ignore (Pquic.Sender.build_and_send_packet c);
    Queue.push Quic.Frame.Ping c.C.ctrl;
    ignore (Pquic.Sender.build_and_send_packet c);
    let pn = Int64.pred c.C.next_pn in
    process_ack c
      { Quic.Frame.largest = pn; delay_us = 0L; ranges = [ (pn, pn) ] }
  done;
  let newest = Int64.pred c.C.next_pn in
  check Alcotest.int64 "one pn per packet" (Int64.of_int ((2 * pairs) - 1))
    newest;
  let retained = C.Sent_times.length c.C.sent_times in
  check Alcotest.bool
    (Printf.sprintf "history bounded (%d entries)" retained)
    true
    (retained <= ((8192 + 4096) / 2) + 1);
  let recent_missing = ref 0 and ack_only_kept = ref 0 in
  for i = 0 to 8192 do
    let pn = Int64.sub newest (Int64.of_int i) in
    let kept = C.Sent_times.find c.C.sent_times pn >= 0L in
    if Int64.rem pn 2L = 1L then (if not kept then incr recent_missing)
    else if kept then incr ack_only_kept
  done;
  check Alcotest.int "recent ack-eliciting pns answer" 0 !recent_missing;
  check Alcotest.int "ACK-only pns never recorded" 0 !ack_only_kept

(* Differential test against [Sent_times_ref], the hashtable swept once
   per 4096 pns: random runs of ack-eliciting sends, of ACK-only pns
   (which take a pn and record nothing) and of sends spaced apart by
   ACK-only pns, long enough to cross several 4096 boundaries, with
   queries of arbitrary int64s — negative, past the int range, future,
   swept and recent — after every run. Both must answer every query and
   count their entries alike; the ring must stay within 16,384 slots and
   within twice the retained window. *)
type st_query = Q_at of int64 | Q_back of int (* newest pn minus this *)

type st_step =
  | St_send of int (* that many ack-eliciting sends, one pn each *)
  | St_skip of int (* that many ACK-only pns *)
  | St_spaced of int * int (* that many sends, each after that many ACK-only pns *)
  | St_query of st_query list

let st_step_to_string = function
  | St_send n -> Printf.sprintf "send %d" n
  | St_skip n -> Printf.sprintf "skip %d" n
  | St_spaced (n, gap) -> Printf.sprintf "spaced %dx%d" n gap
  | St_query qs ->
    "query "
    ^ String.concat ","
        (List.map
           (function
             | Q_at v -> Int64.to_string v
             | Q_back k -> Printf.sprintf "newest-%d" k)
           qs)

let gen_st_query =
  QCheck2.Gen.(
    frequency
      [
        ( 1,
          map (fun v -> Q_at v)
            (oneofl
               [ -1L; Int64.min_int; Int64.max_int; 0x4000_0000_0000_0000L;
                 Int64.neg 0x4000_0000_0000_0001L; Int64.of_int max_int;
                 0L ]) );
        (1, map (fun v -> Q_at v) int64);
        (1, map (fun v -> Q_at (Int64.of_int v)) (int_range (-10) 60_000));
        (4, map (fun k -> Q_back k) (int_range (-20) 14_000));
      ])

let gen_st_step =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun n -> St_send n) (int_range 1 3_000));
        (2, map (fun n -> St_send n) (int_range 1 8));
        (2, map (fun n -> St_skip n) (int_range 1 6_000));
        (2, map (fun n -> St_skip n) (int_range 1 8));
        (2, map2 (fun n gap -> St_spaced (n, gap)) (int_range 1 60) (int_range 1 700));
        (3, map (fun qs -> St_query qs) (list_size (int_range 1 30) gen_st_query));
      ])

let ring_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"ring answers as the swept table"
       ~print:(fun steps -> String.concat "; " (List.map st_step_to_string steps))
       QCheck2.Gen.(list_size (int_range 0 40) gen_st_step)
       (fun steps ->
         let ring = C.Sent_times.create () and m = Sent_times_ref.create () in
         let next = ref 0 in
         let fail fmt = Printf.ksprintf (fun s -> QCheck2.Test.fail_report s) fmt in
         let query pn =
           let a = C.Sent_times.find ring pn and b = Sent_times_ref.find m pn in
           if a <> b then fail "pn %Ld: ring %Ld, reference %Ld" pn a b
         in
         let send () =
           let pn = Int64.of_int !next in
           let at = Int64.of_int ((3 * !next) + 11) in
           C.Sent_times.record ring pn at;
           Sent_times_ref.record m pn at;
           incr next
         in
         let step = function
           | St_send n ->
             for _ = 1 to n do
               send ()
             done
           | St_skip n -> next := !next + n
           | St_spaced (n, gap) ->
             for _ = 1 to n do
               next := !next + gap;
               send ()
             done
           | St_query qs ->
             List.iter
               (function
                 | Q_at v -> query v
                 | Q_back k -> query (Int64.of_int (!next - 1 - k)))
               qs
         in
         List.iter
           (fun s ->
             step s;
             let n = C.Sent_times.length ring and n' = Sent_times_ref.length m in
             if n <> n' then fail "ring holds %d pns, reference %d" n n';
             let cap = C.Sent_times.capacity ring
             and window = Sent_times_ref.window m in
             if cap > 16_384 || cap > max 4 (2 * window) then
               fail "capacity %d for a window of %d pns" cap window)
           steps;
         (* every pn up to the newest answers alike *)
         for pn = 0 to !next - 1 do
           query (Int64.of_int pn)
         done;
         true))

(* A sender whose ack-eliciting packets are sparse — one every 500 pns,
   as a receiver's occasional MAX_DATA among its ACKs — keeps ~25 pns
   answering across a 12,000-pn window. The ring grows only when two of
   them would share a slot, so it stays far below the 16,384 slots that
   window would take densely. *)
let test_sparse_sender_small_ring () =
  let t = C.Sent_times.create () in
  let last = 40_000 in
  for k = 0 to last / 500 do
    C.Sent_times.record t (Int64.of_int (500 * k)) (Int64.of_int k)
  done;
  let cap = C.Sent_times.capacity t in
  check Alcotest.bool (Printf.sprintf "small ring (%d slots)" cap) true (cap <= 256);
  let horizon = (last - (last mod 4096)) - 8192 in
  for k = 0 to last / 500 do
    let expect = if 500 * k >= horizon then Int64.of_int k else -1L in
    check Alcotest.int64
      (Printf.sprintf "pn %d" (500 * k))
      expect
      (C.Sent_times.find t (Int64.of_int (500 * k)))
  done

(* [Pn_table] keeps the iteration order of a generic [Hashtbl] under the
   same operations, resizes included: the property the loss detector's
   folds, and through them the recorded experiments, rely on. *)
type pn_op = Pn_replace of int64 | Pn_remove of int64

let gen_pn_key =
  QCheck2.Gen.(
    frequency
      [
        (4, map Int64.of_int (int_range 0 5_000));
        (1, int64);
      ])

let pn_table_order_matches_hashtbl =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"Pn_table folds in Hashtbl order"
       ~print:(fun (size, ops) ->
         Printf.sprintf "create %d; %d ops: %s" size (List.length ops)
           (String.concat "; "
              (List.map
                 (function
                   | Pn_replace k -> "replace " ^ Int64.to_string k
                   | Pn_remove k -> "remove " ^ Int64.to_string k)
                 ops)))
       QCheck2.Gen.(
         pair (oneofl [ 1; 8; 16; 512 ])
           (list_size (int_range 0 3_000)
              (frequency
                 [
                   (3, map (fun k -> Pn_replace k) gen_pn_key);
                   (1, map (fun k -> Pn_remove k) gen_pn_key);
                 ])))
       (fun (size, ops) ->
         let t = C.Pn_table.create size and h = Hashtbl.create size in
         let agree () =
           let a = C.Pn_table.fold (fun k v acc -> (k, v) :: acc) t []
           and b = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
           if a <> b then QCheck2.Test.fail_report "fold orders differ"
         in
         List.iteri
           (fun i op ->
             (match op with
             | Pn_replace k ->
               C.Pn_table.replace t k i;
               Hashtbl.replace h k i
             | Pn_remove k ->
               C.Pn_table.remove t k;
               Hashtbl.remove h k);
             if i mod 97 = 0 then agree ())
           ops;
         agree ();
         true))

(* ------------------------ the watermark stop ------------------------ *)

(* Send [n] PING-only packets; returns the pns acked from here on, in the
   order [packet_acknowledged] reports them. *)
let send_pings c n =
  let acked = ref [] in
  (Pluginop.Dispatch.entry c.C.po Pluginop.Protoop.packet_acknowledged None).C.pre <-
    [ C.Native
        ( "record-acked",
          fun _ args ->
            (match args.(0) with C.I pn -> acked := pn :: !acked | _ -> ());
            0L ) ];
  for _ = 1 to n do
    Queue.push Quic.Frame.Ping c.C.ctrl;
    ignore (Pquic.Sender.build_and_send_packet c)
  done;
  fun () -> List.rev !acked

let observed c acked =
  let p = c.C.paths.(0) in
  ( acked (),
    Quic.Cc.cwnd p.C.cc,
    Quic.Cc.bytes_in_flight p.C.cc,
    c.C.largest_acked,
    C.Pn_table.length c.C.sent,
    c.C.stats )

(* pns 0..149 acked in one range, 150..199 still in flight: the next ACK
   moves the watermark to 150. Its 63 older single-pn ranges (148, 146,
   ..., 24) all lie below, so the walk stops after the newest range and
   must leave exactly what the ACK without them leaves. *)
let test_watermark_stop_exact () =
  let run ranges =
    let c = fresh_sender () in
    let acked = send_pings c 200 in
    process_ack c { Quic.Frame.largest = 149L; delay_us = 0L;
                    ranges = [ (0L, 149L) ] };
    process_ack c { Quic.Frame.largest = 199L; delay_us = 25L; ranges };
    check Alcotest.int64 "watermark reached the newest range" 150L
      c.C.ack_watermark;
    observed c acked
  in
  let older = List.init 63 (fun k -> let pn = Int64.of_int (148 - (2 * k)) in (pn, pn)) in
  let full = run ((150L, 199L) :: older) in
  let trimmed = run [ (150L, 199L) ] in
  let pns (l, _, _, _, _, _) = l in
  check Alcotest.int "64 ranges on the wire" 64 (1 + List.length older);
  check Alcotest.(list int64) "same packets, same order" (pns trimmed) (pns full);
  check Alcotest.(list int64) "ascending pn order"
    (List.init 200 Int64.of_int) (pns full);
  check Alcotest.bool "same cwnd, flight, largest acked, table and stats" true
    (full = trimmed)

(* The stop must not come early: older ranges at or above the watermark
   are walked — down to one ending exactly on it — and their packets
   credited below the newest range's. *)
let test_older_live_ranges_walked () =
  let c = fresh_sender () in
  let acked = send_pings c 20 in
  process_ack c
    { Quic.Frame.largest = 19L; delay_us = 0L;
      ranges = [ (15L, 19L); (11L, 13L); (6L, 8L); (2L, 3L); (0L, 0L) ] };
  check Alcotest.(list int64) "every range credited, ascending"
    [ 0L; 2L; 3L; 6L; 7L; 8L; 11L; 12L; 13L; 15L; 16L; 17L; 18L; 19L ]
    (acked ())

(* A lost span settles on the send buffer it came from, and only an
   application stream's counts as a retransmission: a packet of CRYPTO
   data, then one of STREAM data, both declared lost by the loss alarm
   (tail probe, then full timeout). *)
let test_only_stream_spans_retransmitted () =
  let c = fresh_sender () in
  Quic.Sendbuf.write c.C.crypto_send (String.make 300 'h');
  check Alcotest.bool "crypto packet sent" true (Pquic.Sender.build_and_send_packet c);
  C.write_stream c ~id:0 (String.make 300 's');
  check Alcotest.bool "stream packet sent" true (Pquic.Sender.build_and_send_packet c);
  Pquic.Recovery.on_loss_alarm ~reprobe:ignore c;
  Pquic.Recovery.on_loss_alarm ~reprobe:ignore c;
  let st = c.C.stats in
  check Alcotest.int "both packets lost" 2 st.C.pkts_lost;
  check Alcotest.int "one stream span retransmitted" 1 st.C.pkts_retransmitted;
  check Alcotest.bool "crypto span requeued on the crypto buffer" true
    (Quic.Sendbuf.has_retransmissions c.C.crypto_send);
  check Alcotest.bool "stream span requeued on the stream buffer" true
    (Quic.Sendbuf.has_retransmissions (Hashtbl.find c.C.streams 0).C.sendb)

(* A cut-off ACK still fails the connection as malformed: the parser
   bounds-checks every range varint it skips. Each prefix arrives as an
   authenticated packet on the normal receive path. *)
let test_truncated_ack_fails () =
  let wire =
    Quic.Frame.to_string
      (Quic.Frame.Ack
         { largest = 100L; delay_us = 0L;
           ranges = [ (90L, 100L); (50L, 80L); (10L, 40L) ] })
  in
  for cut = 1 to String.length wire - 1 do
    let c = fresh_sender () in
    let header =
      { Quic.Packet.ptype = Quic.Packet.One_rtt; spin = false; dcid = 1L;
        scid = 2L; pn = 0L }
    in
    let payload = String.sub wire 0 cut in
    let packet = Quic.Packet.protect ~key:c.C.key { Quic.Packet.header; payload } in
    let p = c.C.paths.(0) in
    Pquic.Connection.receive_datagram c
      { Netsim.Net.src = p.C.remote_addr; dst = p.C.local_addr;
        size = String.length packet; payload = C.Quic_packet packet };
    check Alcotest.string
      (Printf.sprintf "cut at %d of %d" cut (String.length wire))
      "malformed frame" c.C.close_reason
  done

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
        ring_matches_reference;
        Alcotest.test_case "sparse sender keeps a small ring" `Quick
          test_sparse_sender_small_ring;
      ] );
    ("pn_table", [ pn_table_order_matches_hashtbl ]);
    ( "watermark",
      [
        Alcotest.test_case "stop below the watermark is exact" `Quick
          test_watermark_stop_exact;
        Alcotest.test_case "older live ranges are walked" `Quick
          test_older_live_ranges_walked;
        Alcotest.test_case "truncated ACK fails the connection" `Quick
          test_truncated_ack_fails;
      ] );
    ( "spans",
      [
        Alcotest.test_case "only stream spans count as retransmitted" `Quick
          test_only_stream_spans_retransmitted;
      ] );
  ]
