(* The PQUIC connection engine — orchestration core.

   A QUIC connection whose workflow is expressed as a succession of
   protocol operations ([Pluginop.Protoop]); each operation dispatches
   through the connection's registry ([Pluginop.Dispatch], reached through
   [Conn_types.run_op]) where protocol plugins may have replaced the
   default behaviour or attached passive pre/post pluglets. The engine is
   layered: [Conn_types] owns the shared records and the two registry
   calls, [Host_api] the PRE↔host helper boundary, [Recovery]
   RTT/ACK/loss handling, [Plugin_host] the plugin exchange and
   negotiation, [Sender] the packet assembly loop. This module wires the
   layers together: construction, handshake, the receive path and the
   application interface. It re-exports the shared types and the plugin
   entry points, so external code addresses the whole engine as
   [Pquic.Connection].

   Simplifications versus draft-14 are documented in DESIGN.md; the main
   one is a single packet-number space shared by all paths (per-path
   congestion control and RTT are kept, which is what the multipath
   evaluation exercises). *)

module F = Quic.Frame
module TP = Quic.Transport_params
module Sim = Netsim.Sim
module Net = Netsim.Net

module Protoop = Pluginop.Protoop
module D = Pluginop.Dispatch

include Conn_types

(* The plugin lifecycle is transport-neutral: bound here once, over the
   connection's plugin state [c.po]. *)
module PH = Pluginop.Plugin_host

exception Injection_failed = PH.Injection_failed

let prepare = PH.prepare
let build_instance = PH.build_instance
let attach_instance c inst = PH.attach_instance c.po c inst
let inject_plugin c plugin = PH.inject_plugin c.po c plugin
let remove_plugin c name = D.remove_plugin c.po c name
let kill_plugin c name reason = D.kill_plugin c.po c name reason
let inject_local_plugins = Plugin_host.inject_local_plugins

(* ------------------------------------------------------------------ *)
(* Idle timeout                                                        *)
(* ------------------------------------------------------------------ *)

module TW = Engine.Timer_wheel

(* Idle timeout (the idle_timeout transport parameter): the connection
   closes silently when nothing authenticated arrives for the negotiated
   period. Activity rearms lazily: the alarm checks the last-activity
   stamp when it fires rather than being rescheduled per packet. Armed
   from connection creation so that a peer that never answers — or a
   blackout swallowing every packet — still terminates the connection:
   per RFC 9000 §10.1 the clock restarts on receipt and on the first
   ack-eliciting send after receiving, NOT on every retransmission, so
   capped PTO probes cannot keep a dead connection alive forever. *)
let arm_idle_alarm c =
  if (not (TW.is_armed c.idle_alarm)) && is_open c then begin
    let period =
      let ours = c.local_params.TP.idle_timeout_ms in
      let theirs =
        match c.peer_params with
        | Some p -> p.TP.idle_timeout_ms
        | None -> ours
      in
      Sim.of_ms (float_of_int (min ours theirs))
    in
    if period > 0L then begin
      c.idle_period <- period;
      TW.arm c.wheel c.idle_alarm ~at:(Int64.add c.last_activity period)
    end
  end

(* Fire callback, bound once at creation (the period the old per-arm
   closure captured lives in [c.idle_period]). *)
let on_idle_alarm c =
  if is_open c then
    if Int64.sub (Sim.now c.sim) c.last_activity >= c.idle_period then begin
      ignore (run_op c Protoop.idle_timeout_event [||]);
      c.state <- Closed;
      c.close_reason <- "idle timeout";
      TW.cancel c.wheel c.loss_alarm;
      TW.cancel c.wheel c.ack_alarm;
      ignore (run_op c Protoop.connection_closed [||]);
      c.on_closed ()
    end
    else arm_idle_alarm c

(* Downlink-stall watchdog (client with spare CIDs only): a pure receiver
   has nothing in flight, so a middlebox silently blackholing the return
   path never trips the PTO machinery — the connection would ride
   straight into the idle timeout. Watch for receive silence a few PTOs
   long and escalate to the same rotate-and-reprobe escape the RTO path
   uses. Armed while Handshaking too (RFC 9002 §6.2.2.1 in spirit): a
   client whose crypto is fully acked is a pure receiver mid-handshake,
   and behind a short-lived NAT binding the server's reply can only get
   through if the client keeps sending. Never armed with cid_pool = 0,
   so legacy runs see no new events. *)
let arm_stall_alarm c =
  if
    c.cfg.cid_pool > 0 && c.role = Client
    && (not (TW.is_armed c.stall_alarm))
    && (c.state = Established || c.state = Handshaking)
  then begin
    let pto = Quic.Rtt.pto (default_path c).rtt in
    let period = Int64.mul 3L pto in
    let at =
      let target = Int64.add c.last_activity period in
      (* re-arms during an ongoing stall must not busy-loop on the stale
         activity clock *)
      let floor = Int64.add (Sim.now c.sim) pto in
      if target > floor then target else floor
    in
    c.stall_period <- period;
    TW.arm c.wheel c.stall_alarm ~at
  end

let on_stall_alarm c =
  if c.state = Established || c.state = Handshaking then begin
    if Int64.sub (Sim.now c.sim) c.last_activity >= c.stall_period then
      Sender.rotate_and_reprobe c;
    arm_stall_alarm c
  end

(* ------------------------------------------------------------------ *)
(* CID issuance (RFC 9000 §5.1.1)                                      *)
(* ------------------------------------------------------------------ *)

(* Mint a spare CID for the peer: register it locally (and with the
   endpoint demux via [on_cid_issued]) and queue the NEW_CONNECTION_ID
   announcement. *)
let issue_new_cid c =
  let seq = c.cid_seq in
  c.cid_seq <- Int64.add c.cid_seq 1L;
  let cid = c.gen_cid () in
  c.local_cids <- (seq, cid) :: c.local_cids;
  c.stats.cids_issued <- c.stats.cids_issued + 1;
  c.on_cid_issued cid;
  Queue.push (F.New_connection_id { seq; cid }) c.ctrl;
  ignore (run_op c Protoop.new_connection_id [| I seq; I cid |])

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

let establish c =
  if c.state = Handshaking then begin
    c.state <- Established;
    c.established_at <- Some (Sim.now c.sim);
    ignore (run_op c Protoop.handshake_complete [||]);
    ignore (run_op c Protoop.connection_established [||]);
    Plugin_host.negotiate_plugins c;
    c.on_established ();
    for _ = 1 to c.cfg.cid_pool do issue_new_cid c done;
    arm_stall_alarm c;
    wake c
  end

let encode_params params =
  let blob = TP.encode params in
  let buf = Buffer.create (String.length blob + 2) in
  Buffer.add_uint16_be buf (String.length blob);
  Buffer.add_string buf blob;
  Buffer.contents buf

let try_handshake_progress c =
  if not c.crypto_done then begin
    let blob = c.crypto_acc ^ Quic.Recvbuf.read c.crypto_recv in
    c.crypto_acc <- blob;
    begin
      if String.length blob >= 2 then begin
        let len = String.get_uint16_be blob 0 in
        if String.length blob >= 2 + len then begin
          let params = TP.decode (String.sub blob 2 len) in
          c.peer_params <- Some params;
          c.crypto_done <- true;
          c.crypto_acc <- "";
          c.max_data_remote <- params.TP.initial_max_data;
          ignore (run_op c Protoop.process_transport_params [||]);
          match c.role with
          | Server ->
            (* answer with our transport parameters and HANDSHAKE_DONE *)
            let blob = encode_params c.local_params in
            ignore (run_op c Protoop.write_transport_params [||]);
            Quic.Sendbuf.write c.crypto_send blob;
            Queue.push F.Handshake_done c.ctrl;
            establish c
          | Client -> Plugin_host.negotiate_plugins c
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Frame processing                                                     *)
(* ------------------------------------------------------------------ *)

(* Deliver [data] (already drained from the reassembly buffer, or handed
   straight through by the in-order fast path) to the application, with
   the data_received / stream_closed protoop anchors around it. *)
let deliver_stream_payload c s data =
  let finished = Quic.Recvbuf.is_finished s.recvb && not s.fin_delivered in
  if data <> "" || finished then begin
    if finished then s.fin_delivered <- true;
    ignore
      (run_op c Protoop.data_received
         [| I (i64 s.stream_id); I (i64 (String.length data)) |]);
    c.on_stream_data s.stream_id data ~fin:finished;
    if finished then
      ignore (run_op c Protoop.stream_closed [| I (i64 s.stream_id) |])
  end

let deliver_stream_data c s =
  deliver_stream_payload c s (Quic.Recvbuf.read s.recvb)

let maybe_update_max_data c =
  if Int64.to_float c.data_received > 0.5 *. Int64.to_float c.max_data_local
  then begin
    let default c _ =
      c.max_data_local <-
        Int64.add c.max_data_local c.local_params.TP.initial_max_data;
      c.max_data_frame_pending <- true;
      0L
    in
    ignore (run_op c Protoop.update_max_data ~default [||]);
    wake c
  end

(* PATH_RESPONSE matched the candidate's challenge: the new address is
   validated (RFC 9000 §9.3) — move the default path there and, when a
   spare CID was earmarked, rotate the CID we address the peer with
   (§9.5) while retiring the old one. If another path already covers the
   address (multipath created it meanwhile), just drop the candidate. *)
let commit_candidate c cand =
  let already =
    Array.exists (fun p -> p.remote_addr = cand.cand_addr) c.paths
  in
  if not already then begin
    Log.info (fun m ->
        m "path validated: %d -> %d" (default_path c).remote_addr
          cand.cand_addr);
    (default_path c).remote_addr <- cand.cand_addr;
    match cand.rotate_to with
    | Some (seq, cid) when cid <> c.remote_cid && seq > c.remote_cid_seq ->
      adopt_remote_cid c (seq, cid)
    | _ -> ()
  end;
  c.candidate <- None;
  c.stats.paths_validated <- c.stats.paths_validated + 1;
  (* §9.4: the path changed under us — a backed-off loss timer aimed at
     the dead 4-tuple must not outlive it, or retransmissions fire long
     after the fresh NAT binding has expired again *)
  c.pto_backoff <- 0;
  Recovery.set_loss_alarm c;
  ignore (run_op c Protoop.validate_path [| I (i64 cand.cand_addr) |]);
  wake c

let process_core_frame c frame =
  match frame with
  | F.Padding _ | F.Ping -> ()
  | F.Max_stream_data _ | F.Plugin_proof _ ->
    (* no stream-level flow control (only connection-level MAX_DATA is
       enforced), and a proof travels with the plugin on its plugin
       stream: both are no-ops, so a peer grows no state with them *)
    ()
  | F.Max_data v -> if v > c.max_data_remote then c.max_data_remote <- v
  | F.Connection_close { reason; _ } ->
    if c.state <> Closed then begin
      c.state <- Closed;
      c.close_reason <- reason;
      TW.cancel c.wheel c.loss_alarm;
      TW.cancel c.wheel c.ack_alarm;
      ignore (run_op c Protoop.connection_closed [||]);
      c.on_closed ()
    end
  | F.Handshake_done -> if c.role = Client then establish c
  | F.Path_challenge v -> Queue.push (F.Path_response v) c.ctrl
  | F.Path_response v ->
    (match c.candidate with
    | Some cand when cand.challenge = v -> commit_candidate c cand
    | _ -> ());
    ignore (run_op c Protoop.validate_path [||])
  | F.New_connection_id { seq; cid } ->
    (* a spare the peer lets us rotate to; duplicates (retransmission,
       dup faults) and already-retired sequence numbers are dropped *)
    if
      c.cfg.cid_pool > 0 && cid <> c.remote_cid
      && seq > c.remote_cid_seq
      && not (List.exists (fun (s, _) -> s = seq) c.remote_spares)
    then c.remote_spares <- c.remote_spares @ [ (seq, cid) ]
  | F.Retire_connection_id seq -> (
    (* the peer stopped using one of our CIDs: drop it from the set (and
       the endpoint demux) and mint a replacement so its pool stays full *)
    match List.find_opt (fun (s, _) -> s = seq) c.local_cids with
    | None -> ()
    | Some (_, cid) ->
      c.local_cids <- List.filter (fun (s, _) -> s <> seq) c.local_cids;
      c.stats.cids_retired <- c.stats.cids_retired + 1;
      c.on_cid_retired cid;
      if c.cfg.cid_pool > 0 && is_open c then issue_new_cid c)
  | F.Plugin_validate { plugin; formula } ->
    Plugin_host.handle_plugin_validate c ~name:plugin ~formula
  | F.Plugin_chunk { plugin; offset; fin; data } ->
    Plugin_host.handle_plugin_chunk c ~name:plugin ~offset ~fin ~data
  | F.Ack _ | F.Crypto _ | F.Stream _ | F.Unknown _ ->
    assert false
    (* [parse_view] returns these as views: [process_core_view], plugin
       frames via protoops *)

(* ------------------------------------------------------------------ *)
(* Receiving                                                            *)
(* ------------------------------------------------------------------ *)

(* The data-bearing frame views, processed straight out of the datagram:
   stream and crypto payloads cross into the reassembly buffers through
   [Recvbuf.insert_sub] — the single copy of the receive path. *)
let process_core_view c buf view =
  match view with
  | F.V_frame frame -> process_core_frame c frame
  | F.V_ack { largest; delay_us; first_len; count; off; len = _ } ->
    Recovery.process_ack c buf ~largest ~delay_us ~first_len ~count ~off
  | F.V_crypto { offset; off; len } ->
    Quic.Recvbuf.insert_sub c.crypto_recv ~offset:(Int64.to_int offset)
      ~fin:false buf ~off ~len;
    try_handshake_progress c
  | F.V_stream { id; _ }
    when Hashtbl.length c.streams >= c.local_params.max_streams
         && not (Hashtbl.mem c.streams id) ->
    (* the peer would open one stream more than this side advertised:
       refuse before allocating anything for it *)
    fail_connection c
      (Printf.sprintf "stream limit: peer opened more than %d streams"
         c.local_params.max_streams)
  | F.V_stream { id; offset; fin; off; len } ->
    c.cur_has_stream <- true;
    let s = Sender.get_stream c id in
    let offset = Int64.to_int offset in
    if Quic.Recvbuf.insert_inline s.recvb ~offset ~fin ~len then begin
      (* in-order arrival with nothing buffered ahead: the payload goes
         from the wire window to the application in this one copy,
         skipping the reassembly stage-and-read round trip *)
      c.data_received <- Int64.add c.data_received (i64 len);
      deliver_stream_payload c s (String.sub buf off len)
    end
    else begin
      let before = Quic.Recvbuf.contiguous s.recvb in
      Quic.Recvbuf.insert_sub s.recvb ~offset ~fin buf ~off ~len;
      let after = Quic.Recvbuf.contiguous s.recvb in
      c.data_received <-
        Int64.add c.data_received (i64 (max 0 (after - before)));
      deliver_stream_data c s
    end;
    maybe_update_max_data c
  | F.V_unknown _ -> assert false (* handled by the caller via protoops *)

(* Process the frames of a packet payload, given as the [off, limit)
   window of [buf] — the wire datagram on the normal path, the staged
   image on the FEC recovery path. Frames parse as views through a pooled
   [Reader]; plugin frames hand the pluglet a read-only sub-view of the
   shared wire region instead of a copied body. Returns whether any frame
   was ack-eliciting. *)
let process_payload c ~pn buf ~off ~limit =
  let r = Quic.Reader.acquire () in
  Quic.Reader.reset r buf ~pos:off ~limit;
  let wire_b = Bytes.unsafe_of_string buf in
  let ae = ref false in
  Fun.protect ~finally:(fun () -> Quic.Reader.release r) @@ fun () ->
  while (not (Quic.Reader.at_end r)) && is_open c do
    match F.parse_view r with
    | exception _ ->
      fail_connection c "malformed frame";
      Quic.Reader.seek r limit
    | F.V_unknown { ftype; off = foff; len = flen } ->
      if not (D.has_entry c.po Protoop.parse_frame (Some ftype)) then begin
        fail_connection c (Printf.sprintf "unknown frame type 0x%x" ftype);
        Quic.Reader.seek r limit
      end
      else begin
        let ret =
          to_i
            (run_op c Protoop.parse_frame ~param:ftype
               [| View (wire_b, foff, flen); I (i64 flen) |])
        in
        (* bit 28 of the parse result marks a non-ack-eliciting frame
           (MP_ACK-style); the low bits give the consumed length *)
        let non_ae = ret land 0x10000000 <> 0 in
        let consumed = ret land 0x0FFFFFFF in
        if consumed <= 0 || consumed > flen then begin
          if is_open c then
            fail_connection c
              (Printf.sprintf "plugin failed to parse frame 0x%x" ftype);
          Quic.Reader.seek r limit
        end
        else begin
          Log.debug (fun m -> m "plugin frame 0x%x consumed %d" ftype consumed);
          if D.is_running c.po Protoop.process_frame (Some ftype) then
            (* replaying a recovered packet from inside this very frame
               type's handler: a repair symbol can protect a packet that
               itself carries a repair symbol (stream data and FEC_RS
               frames share packets). Re-dispatching would be sanctioned
               as an op-graph loop, and the frame is redundant by
               construction — its window was covered by the symbol that
               recovered it — so it is dropped, not re-processed. *)
            Log.debug (fun m ->
                m "skipping recovered frame 0x%x (handler on op stack)" ftype)
          else begin
            if not non_ae then ae := true;
            ignore
              (run_op c Protoop.process_frame ~param:ftype
                 [| View (wire_b, foff, consumed); I (i64 consumed); I pn |])
          end;
          Quic.Reader.seek r (foff + consumed)
        end
      end
    | view ->
      if F.view_is_ack_eliciting view then ae := true;
      (* a handler tripping on inconsistent data (e.g. a FEC-recovered
         payload that dodged packet authentication) must fail the
         connection with a stated reason, never escape the engine *)
      (try
         ignore
           (run_op c Protoop.process_frame ~param:(F.view_type view)
              ~default:(fun c _ ->
                process_core_view c buf view;
                0L)
              [| I pn |])
       with exn ->
         c.stats.pkts_corrupt_discarded <- c.stats.pkts_corrupt_discarded + 1;
         fail_connection c
           (Printf.sprintf "frame processing trapped: %s"
              (Printexc.to_string exn)))
  done;
  !ae

(* A FEC plugin recovered a lost packet: [image] is a copy of
   pn(4 bytes) || payload. The packet is processed as if it had been
   received, and its number is acknowledged so the peer does not
   retransmit (QUIC-FEC behaviour). The replay points the current-
   packet scratch at the recovered image and restores the interrupted
   packet's scratch afterwards. *)
let process_recovered c image =
  let len = String.length image in
  if len >= 4 && c.recover_depth < 8 then begin
    let pn =
      Int64.logand (Int64.of_int32 (String.get_int32_be image 0)) 0xffffffffL
    in
    if not (Quic.Ackranges.contains c.acks pn) then begin
      c.recover_depth <- c.recover_depth + 1;
      c.stats.frames_recovered <- c.stats.frames_recovered + 1;
      Quic.Ackranges.add c.acks pn;
      c.ack_needed <- true;
      let saved_pn = c.cur_pn
      and saved_wire = c.cur_wire
      and saved_off = c.cur_payload_off
      and saved_len = c.cur_payload_len in
      c.cur_pn <- pn;
      c.cur_wire <- image;
      c.cur_payload_off <- 4;
      c.cur_payload_len <- len - 4;
      ignore (process_payload c ~pn image ~off:4 ~limit:len);
      c.cur_pn <- saved_pn;
      c.cur_wire <- saved_wire;
      c.cur_payload_off <- saved_off;
      c.cur_payload_len <- saved_len;
      c.recover_depth <- c.recover_depth - 1;
      wake c
    end
  end

let schedule_ack_alarm c =
  if not (TW.is_armed c.ack_alarm) then
    TW.arm_delay c.wheel c.ack_alarm ~delay:max_ack_delay

(* An authenticated packet arrived from an address no path covers, with
   the migration machinery enabled: start (or keep probing) a §9 path
   candidate instead of following the address blindly. [probe_scid] is
   the source CID of a long-header probe — the peer naming the CID it
   wants us to rotate to. *)
let note_new_source c ~src ~probe_scid ~dgsize =
  match c.candidate with
  | Some cand when cand.cand_addr = src ->
    cand.cand_rx <- cand.cand_rx + dgsize;
    let pto = Quic.Rtt.pto (default_path c).rtt in
    if Int64.sub (Sim.now c.sim) cand.last_probe_at >= pto then
      Sender.send_path_probe c cand
  | _ ->
    let rotate_to =
      match probe_scid with
      | Some scid when scid <> c.remote_cid -> (
        match
          List.find_opt
            (fun (s, cid) -> cid = scid && s > c.remote_cid_seq)
            c.remote_spares
        with
        | Some _ as named -> named
        | None ->
          (* the peer named a CID we have not seen announced (its
             NEW_CONNECTION_ID may still be in flight); the authenticated
             long header is proof of ownership, so adopt it under a
             synthetic next sequence number *)
          Some (Int64.add c.remote_cid_seq 1L, scid))
      | Some _ -> None
        (* the probe names the CID we already use: keep it — a stateful
           firewall on the new flow admits exactly the probe's CID pair,
           so switching to a different spare here would blackhole our
           challenge *)
      | None -> adoptable_spare c
    in
    let cand =
      {
        cand_addr = src;
        challenge = next_challenge c;
        rotate_to;
        last_probe_at = 0L;
        cand_rx = dgsize;
        cand_tx = 0;
      }
    in
    c.candidate <- Some cand;
    Log.info (fun m ->
        m "new source %d: validating (was %d)" src
          (default_path c).remote_addr);
    Sender.send_path_probe c cand

let receive_datagram_inner c (dg : Net.datagram) =
  if is_open c then begin
    ignore (run_op c Protoop.incoming_datagram [| I (i64 dg.Net.size) |]);
    let ce, payload_in =
      match dg.Net.payload with
      | Net.Ce inner -> (true, inner)
      | p -> (false, p)
    in
    let damage, payload_in =
      match payload_in with
      | Net.Corrupt (inner, descr) -> (Some descr, inner)
      | p -> (None, p)
    in
    match payload_in with
    | Quic_packet clean_wire -> (
      let wire =
        match damage with
        | None -> clean_wire
        | Some descr -> Net.corrupt_string descr clean_wire
      in
      let long = String.length wire > 0 && Char.code wire.[0] land 0x80 <> 0 in
      let key = if long then c.initial_key else c.key in
      match Quic.Packet.unprotect_view ~key wire with
      | exception (Quic.Packet.Authentication_failed | Quic.Packet.Malformed) ->
        (* bit damage surfaces here as an auth/structure failure: discard
           cleanly and account for it — never raise past the handler *)
        c.stats.pkts_corrupt_discarded <- c.stats.pkts_corrupt_discarded + 1;
        Log.debug (fun m -> m "dropping unauthenticated packet")
      | header, poff, plen ->
        if has_local_cid c header.Quic.Packet.dcid then begin
          let pn = header.Quic.Packet.pn in
          if Quic.Ackranges.contains c.acks pn then
            (* duplicate packet number: the ACK ranges already cover it,
               so the copy is rejected before touching connection state *)
            c.stats.pkts_dup_rejected <- c.stats.pkts_dup_rejected + 1
          else begin
            c.stats.pkts_received <- c.stats.pkts_received + 1;
            c.stats.bytes_received <- c.stats.bytes_received + String.length wire;
            if pn < c.largest_recv then
              c.stats.pkts_out_of_order <- c.stats.pkts_out_of_order + 1
            else begin
              c.largest_recv <- pn;
              c.largest_recv_at <- Sim.now c.sim
            end;
            if header.Quic.Packet.ptype = Quic.Packet.One_rtt then
              c.last_spin_received <- header.Quic.Packet.spin;
            let pid =
              let found = ref (-1) in
              Array.iter
                (fun p -> if p.remote_addr = dg.Net.src then found := p.path_id)
                c.paths;
              if !found >= 0 then !found
              else if pn < c.largest_recv then 0 (* stale straggler: ignore *)
              else if c.cfg.cid_pool > 0 && c.state = Established then begin
                (* RFC 9000 §9: never follow an unvalidated address — a
                   source address is spoofable. Challenge it; only the
                   matching PATH_RESPONSE commits it (see
                   [commit_candidate]). Data keeps flowing to the old
                   address meanwhile. *)
                let probe_scid =
                  if header.Quic.Packet.ptype <> Quic.Packet.One_rtt then
                    Some header.Quic.Packet.scid
                  else None
                in
                note_new_source c ~src:dg.Net.src ~probe_scid
                  ~dgsize:dg.Net.size;
                0
              end
              else begin
                (* the newest authenticated packet, from an unknown source
                   address: the connection is bound to CIDs, not to a
                   4-tuple, so follow the peer there (NAT rebinding,
                   Section 4.3). Without spare CIDs (cid_pool = 0) this
                   legacy follow is the only option — §9.5 forbids real
                   migration without them. *)
                Log.info (fun m ->
                    m "peer migrated: %d -> %d" (default_path c).remote_addr
                      dg.Net.src);
                (default_path c).remote_addr <- dg.Net.src;
                ignore (run_op c Protoop.validate_path [| I (i64 dg.Net.src) |]);
                0
              end
            in
            c.cur_pn <- pn;
            c.cur_path <- pid;
            c.cur_size <- String.length wire;
            (* the payload stays a view into the wire datagram *)
            c.cur_wire <- wire;
            c.cur_payload_off <- poff;
            c.cur_payload_len <- plen;
            c.cur_has_stream <- false;
            c.cur_ecn_ce <- ce;
            c.last_activity <- Sim.now c.sim;
            c.ae_sent_since_recv <- false;
            arm_idle_alarm c;
            arm_stall_alarm c;
            Quic.Ackranges.add c.acks pn;
            ignore (run_op c Protoop.update_idle_timeout [||]);
            ignore (run_op c Protoop.received_packet [| I pn; I (i64 pid) |]);
            let ae = process_payload c ~pn wire ~off:poff ~limit:(poff + plen) in
            ignore (run_op c Protoop.after_decode_frames [||]);
            if ae && is_open c then begin
              c.ack_needed <- true;
              c.ae_since_ack <- c.ae_since_ack + 1;
              let default c _ =
                if c.ae_since_ack >= 2 then wake c else schedule_ack_alarm c;
                0L
              in
              ignore (run_op c Protoop.update_ack_needed ~default [||])
            end;
            if is_open c && Sender.something_to_send c then wake c
          end
        end)
    | _ -> ()
  end

(* Optional receive-side profiling: one branch per datagram when off,
   wall-clock + minor-allocation sampling when a bench turns it on. *)
let receive_datagram c (dg : Net.datagram) =
  if !rx_profile then begin
    let t0 = !rx_clock () in
    let w0 = Gc.minor_words () in
    receive_datagram_inner c dg;
    rx_seconds := !rx_seconds +. (!rx_clock () -. t0);
    rx_minor_words := !rx_minor_words +. (Gc.minor_words () -. w0);
    incr rx_packets
  end
  else receive_datagram_inner c dg

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* PQUIC as a pluginop host, shared by every connection; its
   recover_packet helper replays through [process_recovered]. *)
let host = Host_api.host ~process_recovered

let create ~sim ~net ~cfg ~role ~local_addr ~remote_addr ~local_cid ~remote_cid
    ~local_params () =
  let path0 =
    {
      path_id = 0;
      local_addr;
      remote_addr;
      cc = Quic.Cc.create ~initial_window:cfg.initial_window ();
      rtt = Quic.Rtt.create ();
      active = true;
      lost_span_start = 0L;
      lost_span_end = 0L;
      lost_span_valid = false;
    }
  in
  let c =
    {
      sim;
      net;
      cfg;
      role;
      state = Handshaking;
      local_cid;
      remote_cid;
      initial_key;
      key = 0L;
      paths = [| path0 |];
      local_cids = [ (0L, local_cid) ];
      cid_seq = 1L;
      remote_spares = [];
      remote_cid_seq = 0L;
      candidate = None;
      challenge_ctr = 0L;
      last_reprobe_at = 0L;
      last_rotate_at = 0L;
      gen_cid =
        (* standalone fallback: a LCG walk from the handshake CID; the
           endpoint overrides this with its own RNG so issued CIDs land
           in its demux table *)
        (let ctr = ref local_cid in
         fun () ->
           ctr :=
             Int64.add
               (Int64.mul !ctr 6364136223846793005L)
               1442695040888963407L;
           !ctr);
      on_cid_issued = ignore;
      on_cid_retired = ignore;
      next_pn = 0L;
      sent = Pn_table.create (if cfg.lean then 8 else 512);
      inflight = [||];
      ack_watermark = 0L;
      largest_acked = -1L;
      largest_acked_per_path = Array.make 8 (-1L);
      next_path_seq = Array.make 8 0L;
      sent_times = Sent_times.create ();
      pto_backoff = 0;
      wheel = TW.shared sim;
      loss_alarm = TW.alarm (fun () -> ());
      ack_alarm = TW.alarm (fun () -> ());
      idle_alarm = TW.alarm (fun () -> ());
      stall_alarm = TW.alarm (fun () -> ());
      idle_period = 0L;
      stall_period = 0L;
      last_activity = Sim.now sim;
      ae_sent_since_recv = false;
      acks = Quic.Ackranges.create ();
      ack_needed = false;
      ae_since_ack = 0;
      largest_recv = -1L;
      largest_recv_at = 0L;
      last_spin_received = false;
      spin = false;
      streams = Hashtbl.create 8;
      stream_rr = Queue.create ();
      crypto_send = Quic.Sendbuf.create ();
      crypto_recv = Quic.Recvbuf.create ();
      crypto_acc = "";
      crypto_done = false;
      max_data_local = local_params.TP.initial_max_data;
      max_data_remote = TP.default.TP.initial_max_data;
      data_sent = 0L;
      data_received = 0L;
      max_data_frame_pending = false;
      local_params;
      peer_params = None;
      ctrl = Queue.create ();
      po = PH.create_state ~host ();
      sched = Scheduler.create ();
      plugin_turn = false;
      cur_pn = -1L;
      cur_path = 0;
      cur_size = 0;
      cur_wire = "";
      cur_payload_off = 0;
      cur_payload_len = 0;
      cur_has_stream = false;
      cur_ecn_ce = false;
      recover_depth = 0;
      plugin_out = Hashtbl.create 4;
      plugin_in = Hashtbl.create 4;
      provide_plugin = (fun _ ~formula:_ -> None);
      verify_plugin = (fun ~name:_ ~bytes:_ ~proof:_ -> false);
      on_plugin_received = ignore;
      acquire_instance = (fun _ -> None);
      on_stream_data = (fun _ _ ~fin:_ -> ());
      on_message = ignore;
      on_established = ignore;
      on_closed = ignore;
      stats = make_stats ();
      created_at = Sim.now sim;
      established_at = None;
      wake_pending = false;
      send_pass = ignore;
      negotiated = false;
      close_reason = "";
    }
  in
  c.send_pass <-
    (fun () ->
      c.wake_pending <- false;
      Sender.send_pending c);
  TW.set_fire c.loss_alarm (fun () ->
      Recovery.on_loss_alarm ~reprobe:Sender.rotate_and_reprobe c);
  TW.set_fire c.idle_alarm (fun () -> on_idle_alarm c);
  TW.set_fire c.stall_alarm (fun () -> on_stall_alarm c);
  TW.set_fire c.ack_alarm (fun () ->
      if c.ack_needed && is_open c then Sender.send_pending c);
  ignore (run_op c Protoop.connection_init [||]);
  arm_idle_alarm c;
  c

(* ------------------------------------------------------------------ *)
(* Application interface                                                *)
(* ------------------------------------------------------------------ *)

let write_stream c ~id ?(fin = false) data =
  let s = Sender.get_stream c id in
  Quic.Sendbuf.write s.sendb data;
  if fin then Quic.Sendbuf.finish s.sendb;
  wake c

let close c ~reason =
  if is_open c then begin
    ignore (run_op c Protoop.connection_closing [||]);
    Queue.push (F.Connection_close { code = 0; reason }) c.ctrl;
    wake c;
    let pto = Quic.Rtt.pto (default_path c).rtt in
    ignore
      (Sim.schedule c.sim ~delay:(Int64.mul 3L pto) (fun () ->
           if c.state <> Closed then begin
             c.state <- Closed;
             TW.cancel c.wheel c.loss_alarm;
             TW.cancel c.wheel c.ack_alarm;
             ignore (run_op c Protoop.connection_closed [||]);
             c.on_closed ()
           end))
  end

let start_client c =
  assert (c.role = Client);
  ignore (run_op c Protoop.write_transport_params [||]);
  Quic.Sendbuf.write c.crypto_send (encode_params c.local_params);
  wake c

(* Simulate a NAT rebinding / interface change: subsequent packets on the
   default path leave from [new_local]. The peer follows the CID to the new
   address (Section 4.3's "resilient to events such as NAT rebinding"). *)
let rebind c ~new_local =
  (default_path c).local_addr <- new_local;
  wake c

(* Per-connection entry point used by the endpoint demultiplexer. *)
let local_cid c = c.local_cid

let state c = c.state
let stats c = c.stats
let role c = c.role
let now c = Sim.now c.sim
let plugin_names c = PH.plugin_names c.po
let has_plugin c name = PH.has_plugin c.po name
let peer_params c = c.peer_params
