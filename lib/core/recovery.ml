(* Loss recovery: RTT estimation, ACK-range processing, loss detection and
   the PTO/loss-timer machinery. Every decision point dispatches through a
   protocol operation so retransmission-policy plugins (e.g. Tail Loss
   Probe) can reshape the behaviour. *)

module F = Quic.Frame
module Sim = Netsim.Sim
module Protoop = Pluginop.Protoop
open Conn_types

(* The oldest in-flight packet by [sent_at], ties going to the first one
   [Pn_table.iter] meets: a fold over the whole in-flight table. A burst
   leaves the send loop at one simulated instant, so ties are common, and
   the probe in [on_loss_alarm] retransmits exactly the packet picked
   here — only the fold reproduces the tie-break the recorded experiments
   ran with. The loss timer needs just this packet's send time and path,
   and reads them from the send-order index ([oldest_for_timer]). *)
let oldest_in_flight c =
  let best = ref None in
  Pn_table.iter
    (fun _ sp ->
      match !best with
      | None -> best := Some sp
      | Some b -> if sp.sent_at < b.sent_at then best := Some sp)
    c.sent;
  !best

(* ------------------------------------------------------------------ *)
(* Send-order index ([c.inflight])                                     *)
(* ------------------------------------------------------------------ *)

(* An index entry is live while [c.sent] still maps its pn to that very
   record; any other entry is left over from an ack or a loss. *)
let is_live c sp =
  match Pn_table.find c.sent sp.pn with
  | found -> found == sp
  | exception Not_found -> false

(* The oldest live packet sent on [path], dropping dead heads on the way. *)
let rec live_head c path =
  let q = c.inflight.(path) in
  match Queue.peek_opt q with
  | Some sp when not (is_live c sp) ->
    ignore (Queue.take q);
    live_head c path
  | head -> head

let track_sent c sp =
  let n = Array.length c.inflight in
  if sp.path_id >= n then
    c.inflight <-
      Array.init (sp.path_id + 1) (fun i ->
          if i < n then c.inflight.(i) else Queue.create ());
  (* pruning here as well keeps the FIFO short even when plugins replace
     both operations that read it *)
  ignore (live_head c sp.path_id);
  Queue.push sp c.inflight.(sp.path_id)

type oldest = No_packet | Head of sent_packet | Tied of sent_packet

let indexed_oldest c =
  let best = ref No_packet in
  for path = 0 to Array.length c.inflight - 1 do
    match (live_head c path, !best) with
    | None, _ -> ()
    | Some sp, No_packet -> best := Head sp
    | Some sp, (Head b | Tied b) ->
      if sp.sent_at < b.sent_at then best := Head sp
      else if sp.sent_at = b.sent_at then best := Tied b
  done;
  !best

(* The packet the loss timer is armed from. The timer reads only its send
   time and path, which a head holding the earliest send time alone
   provides; when heads of several paths tie, the fold decides which path
   [Pn_table.iter] meets first. *)
let oldest_for_timer c =
  match indexed_oldest c with
  | No_packet -> None
  | Head sp -> Some sp
  | Tied _ -> oldest_in_flight c

let set_loss_alarm c =
  let default c _ =
    Engine.Timer_wheel.cancel c.wheel c.loss_alarm;
    (match oldest_for_timer c with
    | None -> ()
    | Some sp ->
      let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
      let pto = Quic.Rtt.pto p.rtt in
      let base_timeout =
        Int64.add
          (Int64.mul pto (Int64.of_int (1 lsl min c.pto_backoff 6)))
          max_ack_delay
      in
      (* retransmission-policy plugins (e.g. Tail Loss Probe) replace this
         operation to shorten or reshape the timer *)
      let timeout =
        let v =
          run_op c Protoop.get_retransmission_delay
            ~default:(fun _ args -> match args.(0) with I v -> v | _ -> 0L)
            [| I base_timeout; I (i64 sp.path_id) |]
        in
        if v > 0L then v else base_timeout
      in
      let fire_at =
        Int64.max
          (Int64.add sp.sent_at timeout)
          (Int64.add (Sim.now c.sim) 1_000_000L)
      in
      Engine.Timer_wheel.arm c.wheel c.loss_alarm ~at:fire_at);
    0L
  in
  ignore (run_op c Protoop.set_loss_timer ~default [||])

(* ------------------------------------------------------------------ *)
(* Frame acknowledgment / loss notifications                            *)
(* ------------------------------------------------------------------ *)

let notify_frame_fate c (fr : frame_record) ~acked =
  let lost = not acked in
  match fr with
  | R_span { buf; offset; len; fin; app } ->
    if acked then Quic.Sendbuf.on_acked buf ~offset ~len ~fin
    else begin
      Quic.Sendbuf.on_lost buf ~offset ~len ~fin;
      if app then c.stats.pkts_retransmitted <- c.stats.pkts_retransmitted + 1
    end
  | R_frame (F.Max_data _, _) -> if lost then c.max_data_frame_pending <- true
  | R_frame
      ( (( F.Plugin_validate _ | F.Plugin_proof _ | F.Handshake_done
         | F.Path_response _ | F.New_connection_id _
         | F.Retire_connection_id _ ) as f),
        _ ) ->
    if lost then Queue.push f c.ctrl
  | R_frame (F.Unknown { ftype; raw }, Some r) ->
    let args =
      [|
        I (if acked then 1L else 0L);
        I r.Scheduler.cookie;
        (* Ro regions are unwritable by both the monitor and every native
           path, so aliasing the immutable string is safe — no copy per
           notification *)
        Buf (Bytes.unsafe_of_string raw, `Ro);
      |]
    in
    ignore (run_op c Protoop.notify_frame ~param:ftype args)
  | R_frame _ -> ()

(* Persistent congestion (RFC 9002 §7.6): when the send-time span of a
   run of consecutive ack-eliciting losses — unbroken by any ack — exceeds
   3 × (PTO + max_ack_delay), the network was effectively dead for that
   period; the window collapses to the minimum and slow start restarts.
   The span accumulates in [declare_lost] and any newly acked packet on
   the path resets it ([process_ack]). Requires at least one RTT sample so
   the default-PTO guess cannot trigger a spurious collapse. *)
let note_persistent_congestion c p sp =
  if sp.ack_eliciting then begin
    if not p.lost_span_valid then begin
      p.lost_span_valid <- true;
      p.lost_span_start <- sp.sent_at;
      p.lost_span_end <- sp.sent_at
    end
    else begin
      if sp.sent_at < p.lost_span_start then p.lost_span_start <- sp.sent_at;
      if sp.sent_at > p.lost_span_end then p.lost_span_end <- sp.sent_at
    end;
    let duration =
      Int64.mul 3L
        (Int64.add (Quic.Rtt.pto p.rtt) max_ack_delay)
    in
    if
      Quic.Rtt.samples p.rtt > 0
      && Int64.sub p.lost_span_end p.lost_span_start > duration
    then begin
      p.lost_span_valid <- false;
      c.stats.persistent_congestion_events <-
        c.stats.persistent_congestion_events + 1;
      Log.info (fun m ->
          m "persistent congestion on path %d (span %Ldns)" p.path_id
            (Int64.sub p.lost_span_end p.lost_span_start));
      let default _ _ =
        Quic.Cc.collapse p.cc;
        0L
      in
      ignore
        (run_op c Protoop.cc_on_rto ~default [| I (i64 p.path_id) |])
    end
  end

let declare_lost c sp =
  Pn_table.remove c.sent sp.pn;
  let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
  Quic.Cc.forget_in_flight p.cc ~size:sp.size;
  let default c _ =
    Quic.Cc.shrink_on_loss p.cc ~pn:sp.pn ~largest_sent:(Int64.sub c.next_pn 1L);
    0L
  in
  ignore
    (run_op c Protoop.cc_on_packet_lost ~default
       [| I sp.pn; I (i64 sp.size); I (i64 sp.path_id) |]);
  c.stats.pkts_lost <- c.stats.pkts_lost + 1;
  note_persistent_congestion c p sp;
  c.cur_pn <- sp.pn;
  ignore (run_op c Protoop.packet_lost [| I sp.pn; I (i64 sp.path_id) |]);
  List.iter (fun fr -> notify_frame_fate c fr ~acked:false) sp.records;
  ignore (run_op c Protoop.after_packet_lost [| I sp.pn |])

(* Packet- or time-threshold loss of one in-flight packet. Loss detection
   is per path, on per-path send order: with a shared packet-number
   space, cross-path reordering must not be mistaken for loss (kSkipped
   packets on the other path are not gaps). *)
let meets_loss c ~now sp =
  let path_largest =
    if sp.path_id < Array.length c.largest_acked_per_path then
      c.largest_acked_per_path.(sp.path_id)
    else -1L
  in
  sp.path_seq < path_largest
  && (Int64.sub path_largest sp.path_seq >= 3L
     ||
     let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
     (* time threshold: 9/8 * (srtt + 4*rttvar) absorbs the queueing
        variance that plain 9/8*srtt mistakes for loss under
        bufferbloat *)
     let window =
       Int64.add (Quic.Rtt.smoothed p.rtt)
         (Int64.mul 4L (Quic.Rtt.variance p.rtt))
     in
     sp.sent_at <= Int64.sub now (Int64.div (Int64.mul window 9L) 8L))

(* Both conditions of [meets_loss] are monotone in a path's send order — a
   later packet on the path has a larger [path_seq] and no earlier
   [sent_at] — so when a path's oldest live packet meets neither, no
   packet on that path does. *)
let index_may_lose c ~now =
  let rec from path =
    path < Array.length c.inflight
    && ((match live_head c path with
        | Some sp -> meets_loss c ~now sp
        | None -> false)
       || from (path + 1))
  in
  from 0

let detect_losses c =
  let default c _ =
    let now = Sim.now c.sim in
    (* the fold picks the lost packets and their order — [Pn_table.iter]
       order, observable through each [declare_lost] — so it stays; the
       heads only tell when it would find nothing *)
    if not (index_may_lose c ~now) then 0L
    else begin
      let lost = ref [] in
      Pn_table.iter
        (fun _pn sp -> if meets_loss c ~now sp then lost := sp :: !lost)
        c.sent;
      List.iter (declare_lost c) !lost;
      i64 (List.length !lost)
    end
  in
  ignore (run_op c Protoop.detect_lost_packets ~default [||])

(* Process an ACK frame parsed as a view ([F.V_ack]): the first range
   is [largest - first_len, largest], and [count] (gap, length) varint
   pairs follow at [off] of [buf], already bounds-checked by the parser.

   Ranges are decoded one at a time, newest first, and clipped to the
   live window [ack_watermark, next_pn). The gap encoding makes them
   strictly descending (each [last] is at least 2 below the previous
   [first]), so once a range reaches down to the watermark no later one
   can hold a live packet and the walk stops — exactly the packets the
   full walk would find. Walking descending and prepending leaves
   [newly] in ascending pn order with no sort; the first packet found
   is the largest. *)
let process_ack c buf ~largest ~delay_us ~first_len ~count ~off =
  let now = Sim.now c.sim in
  (* Advance the lowest-live-pn watermark: a pn below next_pn that is
     not in [sent] can never reappear there, so each pn is crossed at
     most once over the connection's lifetime. Unclipped, the first range
     eventually spans every pn since the start of the connection and ack
     processing goes quadratic in transfer length. *)
  while
    c.ack_watermark < c.next_pn && not (Pn_table.mem c.sent c.ack_watermark)
  do
    c.ack_watermark <- Int64.add c.ack_watermark 1L
  done;
  let watermark = Int64.to_int c.ack_watermark in
  let top = Int64.to_int c.next_pn - 1 in
  let newly = ref [] and largest_newly = ref None in
  let collect ~first ~last =
    let pn = ref (min last top) in
    while !pn >= first do
      (match Pn_table.find_opt c.sent (Int64.of_int !pn) with
      | Some sp ->
        if Option.is_none !largest_newly then largest_newly := Some sp;
        newly := sp :: !newly
      | None -> ());
      decr pn
    done
  in
  let first = largest - first_len in
  collect ~first:(max first watermark) ~last:largest;
  let rec walk k pos prev_first =
    if k < count && prev_first > watermark then begin
      let gap = Quic.Varint.get_int buf pos in
      let pos = pos + Quic.Varint.width_at buf pos in
      let len = Quic.Varint.get_int buf pos in
      let pos = pos + Quic.Varint.width_at buf pos in
      let last = prev_first - gap - 2 in
      if last >= watermark then begin
        let first = last - len in
        collect ~first:(max first watermark) ~last;
        walk (k + 1) pos first
      end
    end
  in
  walk 0 off first;
  let newly = !newly in
  match !largest_newly with
  | None -> ()
  | Some largest_newly ->
    if largest_newly.pn > c.largest_acked then c.largest_acked <- largest_newly.pn;
    (* RTT sample from the largest newly acked, if ack-eliciting *)
    if largest_newly.ack_eliciting && largest_newly.pn = Int64.of_int largest
    then begin
      let sample =
        Int64.sub (Int64.sub now largest_newly.sent_at)
          (Int64.mul (Int64.of_int delay_us) 1000L)
      in
      let p = c.paths.(min largest_newly.path_id (Array.length c.paths - 1)) in
      let default _ _ =
        Quic.Rtt.update p.rtt ~sample;
        0L
      in
      ignore
        (run_op c Protoop.update_rtt ~default
           [| I sample; I (i64 largest_newly.path_id) |])
    end;
    List.iter
      (fun sp ->
        Pn_table.remove c.sent sp.pn;
        if sp.path_id < Array.length c.largest_acked_per_path
           && sp.path_seq > c.largest_acked_per_path.(sp.path_id)
        then c.largest_acked_per_path.(sp.path_id) <- sp.path_seq;
        let p = c.paths.(min sp.path_id (Array.length c.paths - 1)) in
        (* an ack breaks the run of consecutive losses: the persistent-
           congestion span restarts from scratch (RFC 9002 §7.6.2) *)
        p.lost_span_valid <- false;
        Quic.Cc.forget_in_flight p.cc ~size:sp.size;
        let default _ _ =
          Quic.Cc.grow_on_ack p.cc ~pn:sp.pn ~size:sp.size;
          0L
        in
        ignore
          (run_op c Protoop.cc_on_packet_acked ~default
             [| I sp.pn; I (i64 sp.size); I (i64 sp.path_id) |]);
        List.iter (fun fr -> notify_frame_fate c fr ~acked:true) sp.records;
        ignore (run_op c Protoop.packet_acknowledged [| I sp.pn |]))
      newly;
    c.pto_backoff <- 0;
    detect_losses c;
    set_loss_alarm c;
    wake c

(* ------------------------------------------------------------------ *)
(* Loss alarm behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let on_loss_alarm ~reprobe c =
  let default c _ =
    if Pn_table.length c.sent > 0 then begin
      (* cap the exponent: the timer already clamps its multiplier at
         2^6, so growing the counter further only risks overflow — the
         idle alarm, not unbounded backoff, is what ends a dead
         connection *)
      c.pto_backoff <- min (c.pto_backoff + 1) 6;
      if c.pto_backoff <= 1 then begin
        (* tail-probe style: retransmit the oldest in-flight packet *)
        ignore (run_op c Protoop.send_probe [||]);
        match oldest_in_flight c with
        | Some sp -> declare_lost c sp
        | None -> ()
      end
      else begin
        (* full retransmission timeout *)
        ignore (run_op c Protoop.retransmission_timeout [||]);
        let all = Pn_table.fold (fun _ sp acc -> sp :: acc) c.sent [] in
        List.iter (declare_lost c) all;
        Array.iter
          (fun p ->
            let default _ _ =
              Quic.Cc.on_retransmission_timeout p.cc;
              0L
            in
            ignore (run_op c Protoop.cc_on_rto ~default [| I (i64 p.path_id) |]))
          c.paths;
        (* repeated timeouts can mean the 4-tuple itself died (NAT
           rebinding behind a stateful middlebox): a client with spare
           CIDs rotates and revalidates the path (no-op with
           cid_pool = 0 — see [Sender.rotate_and_reprobe]) *)
        reprobe c
      end;
      set_loss_alarm c;
      wake c
    end;
    0L
  in
  ignore (run_op c Protoop.on_loss_timer ~default [||])
