(* The send path: stream table, packet building blocks, and the packet
   assembly loop that fills each packet from acknowledgments, control
   frames, crypto data, plugin transfers, plugin-reserved frames and
   stream data under the Section 2.3 scheduler guarantees. *)

module F = Quic.Frame
module Sim = Netsim.Sim
module Net = Netsim.Net
module Protoop = Pluginop.Protoop
open Conn_types

(* ------------------------------------------------------------------ *)
(* Packet building blocks                                              *)
(* ------------------------------------------------------------------ *)

let header_overhead c =
  ignore c;
  (* short header + tag; long headers add 8, accounted when used *)
  1 + 8 + 4 + Quic.Packet.tag_len

let payload_capacity c ~long =
  c.cfg.mtu - header_overhead c - (if long then 8 else 0)

(* ACK frames carry at most this many ranges on the wire; the receiver
   tracks more internally (losses leave permanent holes since
   retransmissions take fresh packet numbers). Too small a cap starves the
   sender of ack information during burst-loss episodes and produces
   spurious retransmissions. *)
let max_wire_ack_ranges = 64

(* How long we sat on the largest packet before acknowledging it, so the
   peer's RTT sample excludes our delayed-ack timer. *)
let ack_delay_us c =
  let default c _ =
    Int64.div (Int64.sub (Sim.now c.sim) c.largest_recv_at) 1000L
  in
  Int64.to_int (Int64.max 0L (run_op c Protoop.compute_ack_delay ~default [||]))

let stream_has_pending c =
  Hashtbl.fold (fun _ s acc -> acc || Quic.Sendbuf.has_pending s.sendb) c.streams false

let plugin_chunks_pending c =
  Hashtbl.fold (fun _ sb acc -> acc || Quic.Sendbuf.has_pending sb) c.plugin_out false

let something_to_send c =
  c.ack_needed
  || stream_has_pending c
  || Quic.Sendbuf.has_pending c.crypto_send
  || plugin_chunks_pending c
  || (not (Queue.is_empty c.ctrl))
  || c.max_data_frame_pending
  || Scheduler.has_pending c.sched

(* ------------------------------------------------------------------ *)
(* Stream table                                                        *)
(* ------------------------------------------------------------------ *)

let get_stream c id =
  match Hashtbl.find_opt c.streams id with
  | Some s -> s
  | None ->
    let s =
      {
        stream_id = id;
        sendb = Quic.Sendbuf.create ();
        recvb = Quic.Recvbuf.create ();
        fin_delivered = false;
        flow_sent = 0;
      }
    in
    Hashtbl.replace c.streams id s;
    Queue.push id c.stream_rr;
    ignore (run_op c Protoop.stream_opened [| I (i64 id) |]);
    s

(* ------------------------------------------------------------------ *)
(* Built-in send policies                                              *)
(* ------------------------------------------------------------------ *)

let native_select_path c _ =
  (* lowest-id active path with congestion window available, else path 0 *)
  let n = Array.length c.paths in
  let rec find k =
    if k >= n then 0
    else
      let p = c.paths.(k) in
      if p.active && Quic.Cc.available p.cc > header_overhead c then k
      else find (k + 1)
  in
  i64 (find 0)

let conn_flow_allowance c = Int64.to_int (Int64.sub c.max_data_remote c.data_sent)

let native_schedule_next_stream c _ =
  let allowed_new = conn_flow_allowance c > 0 in
  let eligible id =
    match Hashtbl.find_opt c.streams id with
    | None -> false
    | Some s ->
      Quic.Sendbuf.has_retransmissions s.sendb
      || (Quic.Sendbuf.has_new s.sendb && allowed_new)
  in
  (* Rotate the queue at most once around: a chosen stream ends up at the
     back (it just got its turn) and a fruitless full rotation restores
     the original order — the same fairness as rotating a list, without
     its O(n²) appends. *)
  let n = Queue.length c.stream_rr in
  let rec rotate k =
    if k >= n then -1
    else begin
      let id = Queue.pop c.stream_rr in
      Queue.push id c.stream_rr;
      if eligible id then id else rotate (k + 1)
    end
  in
  i64 (rotate 0)

let native_set_spin_bit c _ =
  (* client inverts the last received spin value, server echoes it — the
     Spin Bit of [Trammell & Kuehlewind] that monitoring boxes observe *)
  (match c.role with
  | Client -> c.spin <- not c.last_spin_received
  | Server -> c.spin <- c.last_spin_received);
  0L

(* Stream frame wire overhead estimate: type + id + offset + length. *)
let stream_frame_overhead = 14

(* ------------------------------------------------------------------ *)
(* Packet assembly                                                     *)
(* ------------------------------------------------------------------ *)

let build_and_send_packet c =
  let pid = to_i (run_op c Protoop.select_path ~default:native_select_path [||]) in
  let p =
    match path c pid with Some p when p.active -> p | _ -> default_path c
  in
  let long = c.state = Handshaking in
  let capacity = payload_capacity c ~long in
  let overhead = header_overhead c + if long then 8 else 0 in
  let cc_room = Quic.Cc.available p.cc - overhead in
  (* Avoid runt packets: when the congestion window has less than a full
     packet of room and more data than that is waiting, hold ack-eliciting
     data until acknowledgments free window space. *)
  let pending_bytes =
    Hashtbl.fold
      (fun _ s acc -> acc + Quic.Sendbuf.pending_bytes s.sendb)
      c.streams
      (Quic.Sendbuf.pending_bytes c.crypto_send)
  in
  let ae_room =
    if cc_room >= capacity || pending_bytes <= max 0 cc_room then
      min capacity (max 0 cc_room)
    else 0
  in
  (* The packet is encoded as it is assembled: frames are written
     straight into a pooled wire buffer behind reserved header room, and
     stream/crypto/plugin payloads are blitted from their send buffers —
     no intermediate frame strings or payload Buffer. The wire image is
     byte-identical to [Packet.protect] of the concatenated frames
     (differentially tested in test_datapath). *)
  let ptype = if long then Quic.Packet.Initial else Quic.Packet.One_rtt in
  let w = Quic.Writer.acquire () in
  Fun.protect ~finally:(fun () -> Quic.Writer.release w) @@ fun () ->
  let hoff =
    Quic.Packet.reserve_header w
      { Quic.Packet.ptype; spin = false; dcid = 0L; scid = 0L; pn = 0L }
  in
  let room = ref capacity in
  let room_ae = ref ae_room in
  let records = ref [] in
  let nframes = ref 0 in
  let any_ae = ref false in
  let account ~ae sz =
    incr nframes;
    room := !room - sz;
    if ae then begin
      room_ae := !room_ae - sz;
      any_ae := true
    end
  in
  let add ?reservation frame =
    F.write w frame;
    records := R_frame (frame, reservation) :: !records;
    let ae =
      match reservation with
      | Some r -> r.Scheduler.ack_eliciting
      | None -> F.is_ack_eliciting frame
    in
    account ~ae (F.size frame)
  in
  c.cur_has_stream <- false;
  ignore (run_op c Protoop.before_sending_packet [||]);
  (* acknowledgments ride along whenever owed *)
  let ack_included = ref false in
  if c.ack_needed && not (Quic.Ackranges.is_empty c.acks) then begin
    (* encoded in place from the range set, then rolled back if it
       overruns the packet: the write is its own size check *)
    let start = Quic.Writer.length w in
    F.write_ack w c.acks ~max_ranges:max_wire_ack_ranges
      ~delay_us:(ack_delay_us c);
    let sz = Quic.Writer.length w - start in
    if sz <= !room then begin
      account ~ae:false sz;
      ack_included := true
    end
    else Quic.Writer.truncate w start
  end;
  (* control frames *)
  let rec drain_ctrl () =
    if not (Queue.is_empty c.ctrl) then begin
      let f = Queue.peek c.ctrl in
      let sz = F.size f in
      let fits =
        if F.is_ack_eliciting f then sz <= !room_ae && sz <= !room
        else sz <= !room
      in
      if fits then begin
        ignore (Queue.pop c.ctrl);
        add f;
        drain_ctrl ()
      end
    end
  in
  drain_ctrl ();
  (* handshake data *)
  let rec drain_crypto () =
    if !room_ae > 16 && Quic.Sendbuf.has_pending c.crypto_send then begin
      match Quic.Sendbuf.next_span c.crypto_send ~max_len:(!room_ae - 12) with
      | Some (off, len, _fin) ->
        let offset = i64 off in
        F.write_crypto_header w ~offset ~len;
        let buf, dst_off = Quic.Writer.alloc w len in
        Quic.Sendbuf.blit c.crypto_send ~off ~len buf ~dst_off;
        records := R_crypto { offset = off; len } :: !records;
        account ~ae:true (F.crypto_header_size ~offset ~len + len);
        drain_crypto ()
      | None -> ()
    end
  in
  drain_crypto ();
  if c.max_data_frame_pending && !room_ae > 12 then begin
    add (F.Max_data c.max_data_local);
    c.max_data_frame_pending <- false
  end;
  (* plugin bytecode transfer (PLUGIN frames) *)
  let drain_plugin_chunks () =
    Hashtbl.iter
      (fun name sb ->
        let continue = ref true in
        while !continue && !room_ae > 64 && Quic.Sendbuf.has_pending sb do
          match
            Quic.Sendbuf.next_span sb
              ~max_len:(!room_ae - 32 - String.length name)
          with
          | Some (off, len, fin) ->
            let offset = i64 off in
            F.write_plugin_chunk_header w ~plugin:name ~offset ~fin ~len;
            let buf, dst_off = Quic.Writer.alloc w len in
            Quic.Sendbuf.blit sb ~off ~len buf ~dst_off;
            records :=
              R_plugin_data { plugin = name; offset = off; len; fin }
              :: !records;
            account ~ae:true
              (F.plugin_chunk_header_size ~plugin:name ~offset + len)
          | None -> continue := false
        done)
      c.plugin_out
  in
  drain_plugin_chunks ();
  (* plugin-reserved frames and stream data share each packet: plugins
     fill first on their turn ([plugin_turn]) or when no stream data
     waits, stream data fills what is left, and the other side fills
     after it. The turn stays set while both sides wait, so a standing
     plugin backlog leaves stream data the tail of every packet: slowed,
     never starved. *)
  let fill_plugins () =
    let budget = min !room !room_ae in
    if budget > 0 && Scheduler.has_pending c.sched then
      let taken = Scheduler.take c.sched ~max_frame:capacity ~budget in
      List.iter
        (fun (r : Scheduler.reservation) ->
          let out = Bytes.make r.size '\000' in
          let written =
            to_i
              (run_op c Protoop.write_frame ~param:r.ftype
                 [| Buf (out, `Rw); I (i64 r.size); I r.cookie |])
          in
          Log.debug (fun m ->
              m "write_frame 0x%x wrote %d of %d" r.Scheduler.ftype written
                r.Scheduler.size);
          if written > 0 && written <= r.size then
            add ~reservation:r
              (F.Unknown { ftype = r.ftype; raw = Bytes.sub_string out 0 written }))
        taken
  in
  let fill_streams () =
    let continue = ref true in
    while !continue && !room_ae > stream_frame_overhead + 1 do
      let sid =
        to_i
          (run_op c Protoop.schedule_next_stream ~default:native_schedule_next_stream
             [||])
      in
      if sid < 0 then continue := false
      else begin
        let s = get_stream c sid in
        let cap = !room_ae - stream_frame_overhead in
        let cap =
          to_i
            (run_op c Protoop.stream_bytes_max
               ~default:(fun _ args -> match args.(0) with I v -> v | _ -> 0L)
               [| I (i64 cap) |])
        in
        let cap =
          if Quic.Sendbuf.has_retransmissions s.sendb then cap
          else min cap (conn_flow_allowance c)
        in
        if cap <= 0 then begin
          if conn_flow_allowance c <= 0 then
            ignore (run_op c Protoop.stream_data_blocked [| I (i64 sid) |]);
          continue := false
        end
        else
          match Quic.Sendbuf.next_span s.sendb ~max_len:cap with
          | None -> continue := false
          | Some (off, len, fin) ->
            let offset = i64 off in
            F.write_stream_header w ~id:sid ~offset ~fin ~len;
            let buf, dst_off = Quic.Writer.alloc w len in
            Quic.Sendbuf.blit s.sendb ~off ~len buf ~dst_off;
            records := R_stream { id = sid; offset = off; len; fin } :: !records;
            account ~ae:true (F.stream_header_size ~id:sid ~offset ~len + len);
            c.cur_has_stream <- true;
            let sent_end = off + len in
            if sent_end > s.flow_sent then begin
              c.data_sent <-
                Int64.add c.data_sent (i64 (sent_end - s.flow_sent));
              s.flow_sent <- sent_end
            end;
            if len = 0 && not fin then continue := false
      end
    done
  in
  let plugin_pending = Scheduler.has_pending c.sched in
  let core_data = stream_has_pending c in
  if plugin_pending && (c.plugin_turn || not core_data) then begin
    fill_plugins ();
    c.plugin_turn <- false
  end;
  fill_streams ();
  if Scheduler.has_pending c.sched then begin
    if core_data then c.plugin_turn <- true;
    fill_plugins ()
  end;
  if !nframes = 0 then false
  else begin
    let pn = c.next_pn in
    c.next_pn <- Int64.add c.next_pn 1L;
    ignore (run_op c Protoop.set_spin_bit ~default:native_set_spin_bit [||]);
    ignore (run_op c Protoop.header_prepared [| I pn |]);
    let header =
      { Quic.Packet.ptype; spin = c.spin; dcid = c.remote_cid;
        scid = c.local_cid; pn }
    in
    let key = if long then c.initial_key else c.key in
    Quic.Packet.patch_header w ~off:hoff header;
    let hsize = Quic.Packet.header_size header in
    let payload_len = Quic.Writer.length w - hsize in
    Quic.Packet.seal ~key w;
    let wire = Quic.Writer.contents w in
    let size = String.length wire in
    c.cur_pn <- pn;
    c.cur_path <- p.path_id;
    c.cur_size <- size;
    c.cur_wire <- wire;
    c.cur_payload_off <- hsize;
    c.cur_payload_len <- payload_len;
    c.stats.pkts_sent <- c.stats.pkts_sent + 1;
    c.stats.bytes_sent <- c.stats.bytes_sent + size;
    let ack_eliciting = !any_ae in
    (* RFC 9000 §10.1: the idle clock restarts on the *first* ack-eliciting
       send since the last receive, not on every send — otherwise PTO
       retransmissions into a dead link would keep the connection alive
       forever and a blackout would livelock instead of closing idle. *)
    if ack_eliciting && not c.ae_sent_since_recv then begin
      c.ae_sent_since_recv <- true;
      c.last_activity <- Sim.now c.sim
    end;
    if ack_eliciting then begin
      Hashtbl.replace c.sent_times pn (Sim.now c.sim);
      if pn >= c.sent_times_sweep_at then begin
        (* bound the retained history once per 4096 pns, on the first
           ack-eliciting send at or past each boundary (the boundary pn
           itself may carry only an ACK); collect then remove, without
           copying the whole table *)
        let boundary = Int64.sub pn (Int64.rem pn 4096L) in
        c.sent_times_sweep_at <- Int64.add boundary 4096L;
        let horizon = Int64.sub boundary 8192L in
        let stale =
          Hashtbl.fold
            (fun k _ acc -> if k < horizon then k :: acc else acc)
            c.sent_times []
        in
        List.iter (Hashtbl.remove c.sent_times) stale
      end;
      let path_seq =
        if p.path_id < Array.length c.next_path_seq then begin
          let s = c.next_path_seq.(p.path_id) in
          c.next_path_seq.(p.path_id) <- Int64.add s 1L;
          s
        end
        else pn
      in
      let sp =
        {
          pn;
          sent_at = Sim.now c.sim;
          size;
          records = List.rev !records;
          path_id = p.path_id;
          path_seq;
          ack_eliciting;
        }
      in
      Hashtbl.replace c.sent pn sp;
      Recovery.track_sent c sp;
      let default _ _ =
        Quic.Cc.on_packet_sent p.cc ~size;
        0L
      in
      ignore (run_op c Protoop.cc_on_packet_sent ~default [| I (i64 size) |]);
      Recovery.set_loss_alarm c
    end;
    if !ack_included then begin
      c.ack_needed <- false;
      c.ae_since_ack <- 0;
      Engine.Timer_wheel.cancel c.wheel c.ack_alarm
    end;
    (* I6 tripwire: the normal send loop must never target an address
       still under §9 validation — candidates only ever receive dedicated
       probes (send_path_probe), so this stays 0 by construction *)
    (match c.candidate with
    | Some cand when cand.cand_addr = p.remote_addr ->
      c.stats.unvalidated_tx <- c.stats.unvalidated_tx + 1
    | _ -> ());
    Net.send c.net
      {
        Net.src = p.local_addr;
        dst = p.remote_addr;
        size = size + ip_udp_overhead;
        payload = Quic_packet wire;
      };
    ignore
      (run_op c Protoop.packet_was_sent
         [| I pn; I (i64 p.path_id); I (i64 size) |]);
    true
  end

let send_pending c =
  if is_open c then begin
    let budget = ref 512 in
    while !budget > 0 && is_open c && build_and_send_packet c do
      decr budget
    done
  end

(* ------------------------------------------------------------------ *)
(* Path validation probes (RFC 9000 §9)                                *)
(* ------------------------------------------------------------------ *)

(* Build and send one dedicated probe packet, outside the normal send
   loop: not congestion-controlled, not recorded for retransmission (a
   lost probe is simply re-sent on the next trigger) and not counted
   against the idle clock — probes into a dead path must not keep the
   connection alive (§10.1). Returns the datagram size incl. overhead. *)
let send_probe_packet c ~ptype ~dcid ~scid ~dst frames =
  let w = Quic.Writer.acquire () in
  Fun.protect ~finally:(fun () -> Quic.Writer.release w) @@ fun () ->
  let pn = c.next_pn in
  c.next_pn <- Int64.add pn 1L;
  let header = { Quic.Packet.ptype; spin = c.spin; dcid; scid; pn } in
  let hoff = Quic.Packet.reserve_header w header in
  List.iter (F.write w) frames;
  Quic.Packet.patch_header w ~off:hoff header;
  let key = if ptype = Quic.Packet.One_rtt then c.key else c.initial_key in
  Quic.Packet.seal ~key w;
  let wire = Quic.Writer.contents w in
  c.stats.pkts_sent <- c.stats.pkts_sent + 1;
  c.stats.bytes_sent <- c.stats.bytes_sent + String.length wire;
  c.stats.path_probes <- c.stats.path_probes + 1;
  let size = String.length wire + ip_udp_overhead in
  Net.send c.net
    { Net.src = (default_path c).local_addr; dst; size;
      payload = Quic_packet wire };
  size

(* Pull owed PATH_RESPONSEs out of the control queue: §9.3 requires a
   response to return to the address its challenge came from, which for
   a candidate is not the current path. *)
let drain_path_responses c =
  let keep = Queue.create () in
  let resp = ref [] in
  Queue.iter
    (fun f ->
      match f with
      | F.Path_response _ -> resp := f :: !resp
      | f -> Queue.push f keep)
    c.ctrl;
  Queue.clear c.ctrl;
  Queue.transfer keep c.ctrl;
  List.rev !resp

(* Probe an unvalidated candidate address: PATH_CHALLENGE (plus any owed
   PATH_RESPONSEs) in a dedicated short-header packet, addressed with the
   spare CID earmarked for rotation. Clamped by §8.1 anti-amplification:
   at most 3× the bytes the candidate has sent us. *)
let send_path_probe c (cand : path_candidate) =
  let responses = drain_path_responses c in
  let frames = F.Path_challenge cand.challenge :: responses in
  let est =
    List.fold_left
      (fun acc f -> acc + F.size f)
      (13 + Quic.Packet.tag_len + ip_udp_overhead)
      frames
  in
  if cand.cand_tx + est > 3 * cand.cand_rx then
    (* out of amplification credit: hold the responses for the next
       trigger, once the candidate has sent us more bytes *)
    List.iter (fun f -> Queue.push f c.ctrl) responses
  else begin
    let dcid =
      match cand.rotate_to with Some (_, cid) -> cid | None -> c.remote_cid
    in
    let size =
      send_probe_packet c ~ptype:Quic.Packet.One_rtt ~dcid ~scid:c.local_cid
        ~dst:cand.cand_addr frames
    in
    cand.cand_tx <- cand.cand_tx + size;
    cand.last_probe_at <- Sim.now c.sim
  end

(* Client-side stall escape: consecutive PTOs with the migration
   machinery enabled suggest the 4-tuple died under us — a NAT silently
   rebound behind a stateful firewall that now blackholes our short
   headers. Rotate to a spare CID (at most once per stall episode, §9.5)
   and revalidate with a long-header PATH_CHALLENGE: the long header
   re-opens stateful-firewall pinholes and names the CID pair of the new
   flow. Rotation is best-effort: with the spare pool momentarily drained
   (replenishment frames may themselves be stuck behind the stall) the
   probe still goes out under the current CID — going dark would turn a
   rebinding into a death sentence. *)
let rotate_and_reprobe c =
  if
    c.role = Client && c.cfg.cid_pool > 0
    && (c.state = Established || c.state = Handshaking)
  then begin
    let now = Sim.now c.sim in
    let pto = Quic.Rtt.pto (default_path c).rtt in
    if Int64.sub now c.last_reprobe_at >= pto then begin
      (* at most one rotation per stall episode (§9.5) *)
      if c.last_rotate_at < c.last_activity then begin
        (match adoptable_spare c with
        | None -> ()
        | Some pair -> adopt_remote_cid c pair);
        c.last_rotate_at <- now
      end;
      c.last_reprobe_at <- now;
      let scid =
        match c.local_cids with (_, cid) :: _ -> cid | [] -> c.local_cid
      in
      Log.debug (fun m ->
          m "reprobe dcid=%Lx scid=%Lx" c.remote_cid scid);
      ignore
        (send_probe_packet c ~ptype:Quic.Packet.Handshake ~dcid:c.remote_cid
           ~scid ~dst:(default_path c).remote_addr
           [ F.Path_challenge (next_challenge c) ])
    end
  end
