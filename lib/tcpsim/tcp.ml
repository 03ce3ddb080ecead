(* A TCP implementation sufficient for the paper's baselines: Cubic
   congestion control, cumulative ACKs with triple-duplicate fast
   retransmit and NewReno-style recovery, RFC 6298 RTO estimation, SYN
   handshake and FIN termination. Endpoints exchange serialized segments
   ("IP packets": a 40-byte header standing for IP+TCP, plus payload)
   through a pluggable transport, so the same code runs directly over the
   simulated network *or* inside a PQUIC datagram tunnel (Section 4.2).

   The sender is also a *pluginop host*: it carries a [Pluginop.Types.state]
   and exposes its congestion window, RTT estimate and transfer state
   through the same Table 1 field-id space as PQUIC, with protocol-
   operation anchors around segment send, receive and timeout. The same
   plugin bytecode (monitoring, pluggable AIMD) therefore attaches to a
   TCP transfer exactly as it does to a QUIC connection — the paper's
   claim that the pluginization machinery is transport-neutral. *)

module Sim = Netsim.Sim

let src = Logs.Src.create "tcpsim" ~doc:"pluginized TCP simulator"

module Log = (val Logs.src_log src : Logs.LOG)

let header_size = 40

let f_syn = 1
let f_ack = 2
let f_fin = 4

(* The connection id every segment of a sender/receiver pair carries;
   the pair owns its addresses, so one id is enough. *)
let conn_id = 1

type segment = {
  conn_id : int;
  seq : int;
  ack : int;
  flags : int;
  len : int;
  sacks : (int * int) list; (* up to 3 SACK blocks *)
}

let serialize seg =
  let b = Bytes.make (header_size + seg.len) '\000' in
  Bytes.set b 0 'T';
  Bytes.set b 1 'C';
  Bytes.set_uint16_be b 2 seg.conn_id;
  Bytes.set_int32_be b 4 (Int32.of_int seg.seq);
  Bytes.set_int32_be b 8 (Int32.of_int seg.ack);
  Bytes.set_uint8 b 12 seg.flags;
  Bytes.set_uint16_be b 14 seg.len;
  List.iteri
    (fun k (s, e) ->
      if k < 3 then begin
        Bytes.set_int32_be b (16 + (k * 8)) (Int32.of_int s);
        Bytes.set_int32_be b (20 + (k * 8)) (Int32.of_int e)
      end)
    seg.sacks;
  Bytes.to_string b

let deserialize pkt =
  if String.length pkt < header_size || pkt.[0] <> 'T' || pkt.[1] <> 'C' then None
  else
    let sacks =
      List.filter_map
        (fun k ->
          let s = Int32.to_int (String.get_int32_be pkt (16 + (k * 8))) in
          let e = Int32.to_int (String.get_int32_be pkt (20 + (k * 8))) in
          if e > s then Some (s, e) else None)
        [ 0; 1; 2 ]
    in
    let seg =
      {
        conn_id = String.get_uint16_be pkt 2;
        seq = Int32.to_int (String.get_int32_be pkt 4);
        ack = Int32.to_int (String.get_int32_be pkt 8);
        flags = String.get_uint8 pkt 12;
        len = String.get_uint16_be pkt 14;
        sacks;
      }
    in
    if String.length pkt >= header_size + seg.len then Some seg else None

(* ------------------------------------------------------------------ *)
(* Sender                                                               *)
(* ------------------------------------------------------------------ *)

type sender = {
  sim : Sim.t;
  mss : int;
  transport : string -> unit;
  total : int;                     (* bytes of the file to transfer *)
  cubic : Cubic.t;
  mutable established : bool;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable fin_sent : bool;
  mutable dup_acks : int;
  mutable recover : int;           (* recovery high-water mark; -1 if idle *)
  mutable sacked : (int * int) list; (* SACK scoreboard, merged, sorted *)
  mutable hole_una : int;          (* RACK-style reordering tolerance: the *)
  mutable hole_since : Sim.time;   (* hole must persist before we react *)
  rexmit_at : (int, Sim.time) Hashtbl.t; (* hole seq -> last retransmit *)
  sent_at : (int, Sim.time * bool) Hashtbl.t; (* seq -> (time, rexmited) *)
  mutable srtt : float;            (* seconds; negative until first sample *)
  mutable rttvar : float;
  mutable rto : float;
  mutable rto_backoff : int;
  mutable rto_timer : Sim.event option;
  mutable done_ : bool;
  on_done : unit -> unit;
  mutable segments_sent : int;
  mutable retransmissions : int;
  (* pluginop host state: the protoop registry and attached plugins, plus
     everything the Table 1 field space reads on this transport *)
  po : sender Pluginop.Types.state;
  rtt : Quic.Rtt.t;
      (* integer-nanosecond mirror of the RFC 6298 estimator above, fed
         the same samples: the EWMA constants are identical (the QUIC
         recovery draft inherited them from RFC 6298), so get(f_srtt) on a
         TCP sender returns bit-for-bit what PQUIC returns for the same
         sample sequence — the cross-host differential test relies on it *)
  mutable acks_received : int;
  mutable losses : int;            (* loss events (fast retransmit + RTO) *)
  mutable spin : bool;             (* writable f_spin_bit scratch *)
  mutable path_active : bool;      (* writable f_path_active scratch *)
  mutable cur_seq : int;           (* seq of the segment being sent/processed *)
  mutable cur_size : int;
  mutable cur_has_data : bool;
  created_at : Sim.time;
  mutable established_at : Sim.time option;
  mutable failed : string option;  (* plugin sanction: transfer aborted *)
  mutable sanctions : int;
  mutable fallbacks : int;
  mutable on_message : string -> unit;
      (* Section 2.4 push channel (e.g. the monitoring PI export) *)
}

let min_rto = 0.2 (* Linux's 200 ms floor *)

let fin_end t = t.total + 1 (* the FIN occupies one sequence number *)

let merge_range ranges (s, e) =
  let rec go = function
    | [] -> [ (s, e) ]
    | (s1, e1) :: rest ->
      if e < s1 then (s, e) :: (s1, e1) :: rest
      else if e1 < s then (s1, e1) :: go rest
      else
        let rec fuse (fs, fe) = function
          | [] -> [ (fs, fe) ]
          | (s2, e2) :: rest2 ->
            if fe < s2 then (fs, fe) :: (s2, e2) :: rest2
            else fuse (min fs s2, max fe e2) rest2
        in
        fuse (min s s1, max e e1) rest
  in
  if e <= s then ranges else go ranges

let sacked_bytes t =
  List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 t.sacked

let highest_sacked t =
  List.fold_left (fun acc (_, e) -> max acc e) t.snd_una t.sacked

let is_sacked t seq =
  List.exists (fun (s, e) -> seq >= s && seq < e) t.sacked

(* Conservative pipe estimate: what is on the wire and not SACKed. *)
let in_flight t = max 0 (t.snd_nxt - t.snd_una - sacked_bytes t)

let update_rto t sample =
  if t.srtt < 0. then begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.
  end
  else begin
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
  end;
  t.rto <- Float.max min_rto (t.srtt +. (4. *. t.rttvar))

let cancel_rto t =
  match t.rto_timer with
  | Some ev ->
    Sim.cancel ev;
    t.rto_timer <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The pluginop HOST: tcpsim's face to the plugin machinery             *)
(* ------------------------------------------------------------------ *)

let state_code t =
  match t.failed with
  | Some _ -> 4L
  | None ->
    if t.done_ then 3L
    else if t.established then 1L
    else 0L

(* The sanction: a misbehaving plugin aborts the transfer, mirroring
   PQUIC's connection failure. *)
let fail_sender t reason =
  if t.failed = None then begin
    Log.warn (fun m -> m "tcp transfer failed: %s" reason);
    t.failed <- Some reason;
    t.done_ <- true;
    cancel_rto t
  end

(* The Table 1 field space over a TCP sender. TCP has a single path, so
   path fields accept only index 0 (like PQUIC, a bad index reads as -1).
   Unknown fields raise the same API violation as on PQUIC. *)
let get_field t field index =
  let open Pluginop.Api in
  let i64 = Int64.of_int in
  let pathf f = if index = 0 then f () else -1L in
  if field = f_cwnd then pathf (fun () -> i64 (Cubic.cwnd t.cubic))
  else if field = f_bytes_in_flight then pathf (fun () -> i64 (in_flight t))
  else if field = f_srtt then pathf (fun () -> Quic.Rtt.smoothed t.rtt)
  else if field = f_rtt_min then pathf (fun () -> Quic.Rtt.min_rtt t.rtt)
  else if field = f_latest_rtt then pathf (fun () -> Quic.Rtt.latest t.rtt)
  else if field = f_rtt_var then pathf (fun () -> Quic.Rtt.variance t.rtt)
  else if field = f_ssthresh then
    pathf (fun () ->
        let s = Cubic.ssthresh t.cubic in
        if s = max_int then -1L else i64 s)
  else if field = f_path_active then pathf (fun () -> if t.path_active then 1L else 0L)
  else if field = f_path_remote_addr then pathf (fun () -> i64 conn_id)
  else if field = f_nb_paths then 1L
  else if field = f_next_pn then i64 t.snd_nxt
  else if field = f_largest_acked then i64 t.snd_una
  else if field = f_state then state_code t
  else if field = f_role then 0L (* the sender plays the client *)
  else if field = f_bytes_sent then i64 t.snd_nxt
  else if field = f_bytes_received then 0L
  else if field = f_pkts_sent then i64 t.segments_sent
  else if field = f_pkts_received then i64 t.acks_received
  else if field = f_pkts_lost then i64 t.losses
  else if field = f_pkts_retransmitted then i64 t.retransmissions
  else if field = f_pkts_out_of_order then 0L
  else if field = f_ack_needed then 0L
  else if field = f_spin_bit then if t.spin then 1L else 0L
  else if field = f_max_data_local then i64 t.total
  else if field = f_max_data_remote then i64 t.total
  else if field = f_data_sent then i64 t.snd_una
  else if field = f_data_received then 0L
  else if field = f_mtu then i64 (t.mss + header_size)
  else if field = f_current_pn then i64 t.cur_seq
  else if field = f_current_path then 0L
  else if field = f_current_packet_size then i64 t.cur_size
  else if field = f_streams_open then if t.done_ then 0L else 1L
  else if field = f_streams_closed then if t.done_ then 1L else 0L
  else if field = f_handshake_rtt then (
    match t.established_at with
    | Some at -> Int64.sub at t.created_at
    | None -> -1L)
  else if field = f_last_path_recv then 0L
  else if field = f_fin_sent then if t.fin_sent then 1L else 0L
  else if field = f_peer_extra_addr then -1L
  else if field = f_current_packet_has_stream then
    if t.cur_has_data then 1L else 0L
  else if field = f_own_extra_addr then -1L
  else if field = f_ecn_ce then 0L
  else raise (Ebpf.Vm.Helper_failure (Printf.sprintf "get: unknown field %d" field))

(* Writable fields (the generic layer already rejected read-only ids).
   f_cwnd floors at 2 MSS exactly like [Quic.Cc.set_cwnd]; f_rtt_sample
   feeds both the engine's float RFC 6298 estimator and the ns mirror. *)
let set_field t field index value =
  let open Pluginop.Api in
  if index <> 0 then raise (Ebpf.Vm.Helper_failure "set: bad path index");
  if field = f_rtt_sample then begin
    Quic.Rtt.update t.rtt ~sample:value;
    update_rto t (Sim.to_sec (Int64.max 1L value))
  end
  else if field = f_spin_bit then t.spin <- value <> 0L
  else if field = f_path_active then t.path_active <- value <> 0L
  else if field = f_cwnd then Cubic.set_cwnd t.cubic (Int64.to_int value)

let host : sender Pluginop.Types.host =
  {
    Pluginop.Types.host_name = "tcpsim";
    now = (fun t -> Sim.now t.sim);
    get_field;
    set_field;
    push_message = (fun t msg -> t.on_message msg);
    sent_time =
      (fun t pn ->
        match Hashtbl.find_opt t.sent_at (Int64.to_int pn) with
        | Some (at, _) -> at
        | None -> -1L);
    fail = fail_sender;
    on_sanction = (fun t -> t.sanctions <- t.sanctions + 1);
    on_fallback = (fun t -> t.fallbacks <- t.fallbacks + 1);
    on_detach = (fun _ _ -> ());   (* no frame scheduler to clean up *)
    install_extra_helpers = (fun _ _ _ -> ());
        (* the QUIC extras (reserve_frames, packet_bytes, ...) have no TCP
           meaning; a pluglet calling them gets the unknown-helper trap *)
  }

(* Protocol-operation plumbing: same call shape as [Pquic.Connection]. *)
let run_op t op ?param ?default args =
  Pluginop.Dispatch.run_op t.po t op ?param ?default args

let call_external t op args = Pluginop.Dispatch.call_external t.po t op args
let inject_plugin t plugin = Pluginop.Plugin_host.inject_plugin t.po t plugin
let attach_instance t inst = Pluginop.Plugin_host.attach_instance t.po t inst
let remove_plugin t name = Pluginop.Dispatch.remove_plugin t.po t name
let has_plugin t name = Pluginop.Plugin_host.has_plugin t.po name
let plugin_names t = Pluginop.Plugin_host.plugin_names t.po
let failure t = t.failed
let plugin_sanctions t = t.sanctions
let plugin_fallbacks t = t.fallbacks
let set_on_message t f = t.on_message <- f

let create_sender ?(mss = 1460)
    ?(initial_window_segments = 10) ~sim ~transport ~total ~on_done () =
  {
    sim;
    mss;
    transport;
    total;
    cubic = Cubic.create ~mss ~initial_window_segments ();
    established = false;
    snd_una = 0;
    snd_nxt = 0;
    fin_sent = false;
    dup_acks = 0;
    recover = -1;
    sacked = [];
    hole_una = -1;
    hole_since = 0L;
    rexmit_at = Hashtbl.create 64;
    sent_at = Hashtbl.create 256;
    srtt = -1.;
    rttvar = 0.;
    rto = 1.0;
    rto_backoff = 0;
    rto_timer = None;
    done_ = false;
    on_done;
    segments_sent = 0;
    retransmissions = 0;
    po = Pluginop.Plugin_host.create_state ~host ();
    rtt = Quic.Rtt.create ();
    acks_received = 0;
    losses = 0;
    spin = false;
    path_active = true;
    cur_seq = -1;
    cur_size = 0;
    cur_has_data = false;
    created_at = Sim.now sim;
    established_at = None;
    failed = None;
    sanctions = 0;
    fallbacks = 0;
    on_message = (fun _ -> ());
  }

let rec arm_rto t =
  cancel_rto t;
  if not t.done_ then
    let delay =
      Sim.of_sec (t.rto *. float_of_int (1 lsl min t.rto_backoff 6))
    in
    t.rto_timer <- Some (Sim.schedule t.sim ~delay (fun () -> on_rto t))

and on_rto t =
  t.rto_timer <- None;
  if (not t.done_) && (in_flight t > 0 || not t.established) then begin
    t.rto_backoff <- t.rto_backoff + 1;
    if t.established then begin
      (* timeout anchor point, then the replaceable window collapse *)
      ignore (run_op t Pluginop.Protoop.retransmission_timeout [||]);
      t.losses <- t.losses + 1;
      ignore
        (run_op t Pluginop.Protoop.cc_on_rto
           ~default:(fun t _ ->
             Cubic.on_rto t.cubic;
             0L)
           [| I 0L |]);
      t.recover <- -1;
      t.dup_acks <- 0;
      Hashtbl.reset t.rexmit_at;
      retransmit_una t
    end
    else transmit_syn t;
    arm_rto t
  end

and transmit_syn t =
  t.transport
    (serialize
       { conn_id; seq = 0; ack = 0; flags = f_syn; len = 0; sacks = [] })

and transmit_segment t ~seq ~rexmit =
  let len = min t.mss (t.total - seq) in
  let fin = seq + len >= t.total in
  let flags = if fin then f_fin else 0 in
  (match Hashtbl.find_opt t.sent_at seq with
  | Some (at, _) when rexmit -> Hashtbl.replace t.sent_at seq (at, true)
  | _ -> Hashtbl.replace t.sent_at seq (Sim.now t.sim, rexmit));
  t.segments_sent <- t.segments_sent + 1;
  if rexmit then t.retransmissions <- t.retransmissions + 1;
  t.cur_seq <- seq;
  t.cur_size <- header_size + len;
  t.cur_has_data <- len > 0;
  t.transport
    (serialize { conn_id; seq; ack = 0; flags; len; sacks = [] });
  ignore
    (run_op t Pluginop.Protoop.packet_was_sent
       [| I (Int64.of_int seq); I 0L; I (Int64.of_int (header_size + len)) |])

and retransmit_una t =
  if t.snd_una < fin_end t then transmit_segment t ~seq:t.snd_una ~rexmit:true

(* Retransmit up to [limit] holes below the highest SACKed byte, skipping
   holes retransmitted within the last RTT (lost retransmissions are left
   to the RTO). *)
let retransmit_holes t ~limit =
  let now = Sim.now t.sim in
  let rtt_guard = Sim.of_sec (if t.srtt > 0. then t.srtt else 0.1) in
  let upper = min (highest_sacked t) t.snd_nxt in
  let sent = ref 0 in
  let seq = ref t.snd_una in
  while !sent < limit && !seq < upper do
    if not (is_sacked t !seq) then begin
      let recently =
        match Hashtbl.find_opt t.rexmit_at !seq with
        | Some at -> Int64.sub now at < rtt_guard
        | None -> false
      in
      if not recently then begin
        Hashtbl.replace t.rexmit_at !seq now;
        transmit_segment t ~seq:!seq ~rexmit:true;
        incr sent
      end
    end;
    seq := !seq + t.mss
  done

(* Push new segments while the congestion window allows. *)
let send_more t =
  if t.established && not t.done_ then begin
    let progressed = ref false in
    while
      t.snd_nxt < t.total
      && in_flight t + t.mss <= Cubic.cwnd t.cubic
    do
      transmit_segment t ~seq:t.snd_nxt ~rexmit:false;
      t.snd_nxt <- min t.total (t.snd_nxt + t.mss);
      if t.snd_nxt >= t.total && not t.fin_sent then begin
        t.fin_sent <- true;
        t.snd_nxt <- fin_end t
      end;
      progressed := true
    done;
    (* a FIN-only tail when the file size is a multiple of the mss *)
    if t.snd_nxt = t.total && t.total = 0 then begin
      t.fin_sent <- true;
      t.snd_nxt <- fin_end t;
      transmit_segment t ~seq:t.total ~rexmit:false
    end;
    if !progressed && t.rto_timer = None then arm_rto t
  end

let start_sender t =
  transmit_syn t;
  arm_rto t

let sender_receive t pkt =
  match deserialize pkt with
  | None -> ()
  | Some seg ->
    if seg.conn_id = conn_id && not t.done_ then begin
      t.acks_received <- t.acks_received + 1;
      t.cur_seq <- seg.seq;
      t.cur_size <- header_size + seg.len;
      t.cur_has_data <- seg.len > 0;
      ignore
        (run_op t Pluginop.Protoop.received_packet
           [| I (Int64.of_int seg.seq); I 0L |]);
      if (not t.established) && seg.flags land f_syn <> 0 then begin
        t.established <- true;
        t.established_at <- Some (Sim.now t.sim);
        ignore (run_op t Pluginop.Protoop.connection_established [||]);
        t.rto_backoff <- 0;
        cancel_rto t;
        send_more t
      end
      else if seg.flags land f_ack <> 0 && t.established then begin
        let ack = seg.ack in
        List.iter (fun blk -> t.sacked <- merge_range t.sacked blk) seg.sacks;
        if ack > t.snd_una then begin
          (* RTT sample from a never-retransmitted segment (Karn) *)
          (match Hashtbl.find_opt t.sent_at t.snd_una with
          | Some (at, false) ->
            let sample = Int64.sub (Sim.now t.sim) at in
            (* the paper's running example of a replaceable subroutine:
               the default feeds both the float RFC 6298 estimator driving
               the RTO and the ns mirror behind get(f_srtt) *)
            ignore
              (run_op t Pluginop.Protoop.update_rtt
                 ~default:(fun t a ->
                   let s =
                     match a.(0) with
                     | Pluginop.Types.I v -> v
                     | _ -> 0L
                   in
                   Quic.Rtt.update t.rtt ~sample:s;
                   update_rto t (Sim.to_sec s);
                   0L)
                 [| I sample; I 0L |])
          | _ -> ());
          let rec clean seq =
            if seq < ack then begin
              Hashtbl.remove t.sent_at seq;
              clean (seq + t.mss)
            end
          in
          clean t.snd_una;
          let acked = ack - t.snd_una in
          t.snd_una <- ack;
          t.sacked <- List.filter (fun (_, e) -> e > t.snd_una) t.sacked;
          t.dup_acks <- 0;
          t.rto_backoff <- 0;
          ignore
            (run_op t Pluginop.Protoop.packet_acknowledged
               [| I (Int64.of_int ack) |]);
          if t.recover >= 0 then begin
            if ack >= t.recover then t.recover <- -1
            else (* partial ack: repair the remaining holes SACK exposes *)
              retransmit_holes t ~limit:4
          end
          else
            ignore
              (run_op t Pluginop.Protoop.cc_on_packet_acked
                 ~default:(fun t _ ->
                   Cubic.on_ack t.cubic
                     ~now:(Sim.to_sec (Sim.now t.sim))
                     ~acked_bytes:acked
                     ~rtt:(if t.srtt > 0. then t.srtt else 0.1);
                   0L)
                 [| I (Int64.of_int ack); I (Int64.of_int acked); I 0L |]);
          if t.snd_una >= fin_end t then begin
            t.done_ <- true;
            cancel_rto t;
            ignore (run_op t Pluginop.Protoop.connection_closed [||]);
            t.on_done ()
          end
          else begin
            arm_rto t;
            send_more t
          end
        end
        else if ack = t.snd_una && t.snd_nxt > t.snd_una then begin
          t.dup_acks <- t.dup_acks + 1;
          (* loss signal: three dupacks, or SACK showing three segments
             beyond the hole (RFC 6675-style) — but tolerate reordering by
             requiring the hole to persist for a fraction of the RTT
             (RACK-style), or multipath tunnels trigger constantly *)
          let sack_trigger = highest_sacked t - t.snd_una > 3 * t.mss in
          let now = Sim.now t.sim in
          if (t.dup_acks >= 3 || sack_trigger) && t.recover < 0 then begin
            if t.hole_una <> t.snd_una then begin
              t.hole_una <- t.snd_una;
              t.hole_since <- now
            end
            else begin
              let window =
                Sim.of_sec (Float.max 0.002 (t.srtt /. 4.))
              in
              if Int64.sub now t.hole_since >= window then begin
                t.losses <- t.losses + 1;
                ignore
                  (run_op t Pluginop.Protoop.cc_on_packet_lost
                     ~default:(fun t _ ->
                       Cubic.on_loss t.cubic ~now:(Sim.to_sec now);
                       0L)
                     [| I (Int64.of_int t.snd_una); I (Int64.of_int t.mss);
                        I 0L |]);
                ignore
                  (run_op t Pluginop.Protoop.packet_lost
                     [| I (Int64.of_int t.snd_una); I 0L |]);
                t.recover <- t.snd_nxt;
                retransmit_holes t ~limit:4
              end
            end
          end
          else if t.recover >= 0 then retransmit_holes t ~limit:2;
          if t.recover >= 0 then send_more t
        end
      end
    end

(* ------------------------------------------------------------------ *)
(* Receiver                                                             *)
(* ------------------------------------------------------------------ *)

type receiver = {
  r_transport : string -> unit;
  mutable ranges : (int * int) list; (* received (start, end_) intervals *)
  mutable cum : int;                 (* contiguous frontier *)
  mutable fin_at : int;              (* sequence of FIN end, -1 unknown *)
  mutable complete : bool;
  on_complete : unit -> unit;
}

let create_receiver ~transport ~on_complete () =
  {
    r_transport = transport;
    ranges = [];
    cum = 0;
    fin_at = -1;
    complete = false;
    on_complete;
  }

let add_range ranges (s, e) =
  let rec go = function
    | [] -> [ (s, e) ]
    | (s1, e1) :: rest ->
      if e < s1 then (s, e) :: (s1, e1) :: rest
      else if e1 < s then (s1, e1) :: go rest
      else
        (* overlap: fuse and keep merging *)
        let fused = (min s s1, max e e1) in
        let rec fuse (fs, fe) = function
          | [] -> [ (fs, fe) ]
          | (s2, e2) :: rest2 ->
            if fe < s2 then (fs, fe) :: (s2, e2) :: rest2
            else fuse (min fs s2, max fe e2) rest2
        in
        fuse fused rest
  in
  go ranges

let frontier ranges cum =
  let rec go cum = function
    | [] -> cum
    | (s, e) :: rest -> if s > cum then cum else go (max cum e) rest
  in
  go cum ranges

let receiver_receive r pkt =
  match deserialize pkt with
  | None -> ()
  | Some seg ->
    if seg.conn_id = conn_id then
      if seg.flags land f_syn <> 0 then
        (* SYN-ACK *)
        r.r_transport
          (serialize
             { conn_id; seq = 0; ack = 0;
               flags = f_syn lor f_ack; len = 0; sacks = [] })
      else begin
        let seg_end =
          seg.seq + seg.len + (if seg.flags land f_fin <> 0 then 1 else 0)
        in
        if seg.flags land f_fin <> 0 then r.fin_at <- seg_end;
        if seg_end > seg.seq then begin
          r.ranges <- add_range r.ranges (seg.seq, seg_end);
          r.cum <- frontier r.ranges r.cum;
          r.ranges <- List.filter (fun (_, e) -> e > r.cum) r.ranges
        end;
        if (not r.complete) && r.fin_at >= 0 && r.cum >= r.fin_at then begin
          r.complete <- true;
          r.on_complete ()
        end;
        (* immediate cumulative ACK with up to three SACK blocks *)
        let sacks =
          List.filteri (fun i _ -> i < 3)
            (List.filter (fun (s, _) -> s > r.cum) r.ranges)
        in
        r.r_transport
          (serialize
             { conn_id; seq = 0; ack = r.cum; flags = f_ack;
               len = 0; sacks })
      end

let received_bytes r = r.cum
