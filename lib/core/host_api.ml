(* The PRE↔host boundary (Section 2.3), PQUIC half: the Table 1 field
   accessors over the QUIC connection record, the QUIC-owned extra helpers
   (frame reservation, packet access, path creation), and the HOST record
   that plugs both into the transport-neutral machinery in [Pluginop].
   The shared helper table (malloc, opaque data, run_protoop, time, ...)
   lives in [Pluginop.Host_api]; it calls back through the record built
   here for everything connection-specific. *)

module TP = Quic.Transport_params
module Sim = Netsim.Sim
open Conn_types

let helper_fail fmt = Fmt.kstr (fun s -> raise (Ebpf.Vm.Helper_failure s)) fmt

(* Per-path fields, split out so the bad-index default shares one [path]
   lookup. A separate function rather than a [pathf f] combinator inside
   [get_field]: that closure captured [c] and [index] and so was heap-
   allocated on every call — and [h_get] runs a dozen times per received
   packet on a pluginized connection. *)
let get_path_field c field index =
  let open Pluginop.Api in
  match path c index with
  | None -> -1L
  | Some p ->
    if field = f_cwnd then Int64.of_int (Quic.Cc.cwnd p.cc)
    else if field = f_bytes_in_flight then
      Int64.of_int (Quic.Cc.bytes_in_flight p.cc)
    else if field = f_srtt then Quic.Rtt.smoothed p.rtt
    else if field = f_rtt_min then Quic.Rtt.min_rtt p.rtt
    else if field = f_latest_rtt then Quic.Rtt.latest p.rtt
    else if field = f_rtt_var then Quic.Rtt.variance p.rtt
    else if field = f_ssthresh then (
      let s = Quic.Cc.ssthresh p.cc in
      if s = max_int then -1L else Int64.of_int s)
    else if field = f_path_active then if p.active then 1L else 0L
    else if field = f_path_remote_addr then Int64.of_int p.remote_addr
    else
      (* f_rtt_sample is write-only; reads keep raising as before *)
      raise
        (Ebpf.Vm.Helper_failure (Printf.sprintf "get: unknown field %d" field))

let get_field c field index =
  let open Pluginop.Api in
  if (field >= f_cwnd && field <= f_path_remote_addr && field <> f_rtt_sample)
     || field = f_ssthresh
  then get_path_field c field index
  else if field = f_nb_paths then Int64.of_int (Array.length c.paths)
  else if field = f_next_pn then c.next_pn
  else if field = f_largest_acked then c.largest_acked
  else if field = f_state then state_code c
  else if field = f_role then match c.role with Client -> 0L | Server -> 1L
  else if field = f_bytes_sent then Int64.of_int c.stats.bytes_sent
  else if field = f_bytes_received then Int64.of_int c.stats.bytes_received
  else if field = f_pkts_sent then Int64.of_int c.stats.pkts_sent
  else if field = f_pkts_received then Int64.of_int c.stats.pkts_received
  else if field = f_pkts_lost then Int64.of_int c.stats.pkts_lost
  else if field = f_pkts_retransmitted then
    Int64.of_int c.stats.pkts_retransmitted
  else if field = f_pkts_out_of_order then
    Int64.of_int c.stats.pkts_out_of_order
  else if field = f_ack_needed then if c.ack_needed then 1L else 0L
  else if field = f_spin_bit then if c.spin then 1L else 0L
  else if field = f_max_data_local then c.max_data_local
  else if field = f_max_data_remote then c.max_data_remote
  else if field = f_data_sent then c.data_sent
  else if field = f_data_received then c.data_received
  else if field = f_mtu then Int64.of_int c.cfg.mtu
  else if field = f_current_pn then c.cur_pn
  else if field = f_current_path then Int64.of_int c.cur_path
  else if field = f_current_packet_size then Int64.of_int c.cur_size
  else if field = f_streams_open then Int64.of_int (Hashtbl.length c.streams)
  else if field = f_streams_closed then
    Int64.of_int
      (Hashtbl.fold
         (fun _ s acc -> if s.fin_delivered then acc + 1 else acc)
         c.streams 0)
  else if field = f_handshake_rtt then (
    match c.established_at with
    | Some at -> Int64.sub at c.created_at
    | None -> -1L)
  else if field = f_last_path_recv then Int64.of_int c.cur_path
  else if field = f_fin_sent then
    if
      Hashtbl.fold
        (fun _ s acc ->
          acc
          || (Quic.Sendbuf.has_new s.sendb = false
              && Quic.Sendbuf.has_retransmissions s.sendb = false
              && Quic.Sendbuf.total_written s.sendb > 0))
        c.streams false
    then 1L
    else 0L
  else if field = f_peer_extra_addr then (
    match c.peer_params with
    | Some { Quic.Transport_params.active_paths = a :: _; _ } -> Int64.of_int a
    | _ -> -1L)
  else if field = f_current_packet_has_stream then
    if c.cur_has_stream then 1L else 0L
  else if field = f_own_extra_addr then (
    match c.local_params.TP.active_paths with
    | a :: _ -> Int64.of_int a
    | [] -> -1L)
  else if field = f_ecn_ce then if c.cur_ecn_ce then 1L else 0L
  else raise (Ebpf.Vm.Helper_failure (Printf.sprintf "get: unknown field %d" field))

(* Writable fields (the generic layer already rejected read-only ids). *)
let set_field c field index value =
  let open Pluginop.Api in
  match path c index with
  | None -> raise (Ebpf.Vm.Helper_failure "set: bad path index")
  | Some p ->
    if field = f_rtt_sample then Quic.Rtt.update p.rtt ~sample:value
    else if field = f_spin_bit then c.spin <- value <> 0L
    else if field = f_path_active then p.active <- value <> 0L
    else if field = f_cwnd then Quic.Cc.set_cwnd p.cc (Int64.to_int value)

(* The helpers QUIC owns outright: frame-scheduler reservations, FEC
   packet access/recovery, multipath path creation. Added to the
   instance's helper table after the shared ones, through the HOST record
   below. [process_recovered] hands a FEC-recovered packet image back to
   the receive path, which lives above this module in [Connection]. *)
let install_extra_helpers ~process_recovered c (inst : instance) tbl =
  let module V = Ebpf.Vm in
  let reg id f = V.add_helper tbl id f in
  reg Pluginop.Api.h_reserve_frames (fun vm ->
      (* a frame type keys write_frame/notify_frame entries: it must fit
         the manifest's u16 param field *)
      let ftype = V.arg_int vm 1 in
      if ftype < 0 || ftype > Pluginop.Dispatch.max_param then
        helper_fail "reserve_frames: frame type 0x%x out of range" ftype;
      let flags = V.arg_int vm 3 in
      Scheduler.reserve c.sched
        {
          Scheduler.ftype;
          size = V.arg_int vm 2;
          retransmittable = flags land 1 <> 0;
          ack_eliciting = flags land 2 = 0;
          cookie = V.arg vm 4;
          plugin = inst.plugin.Pluginop.Plugin.name;
        };
      wake c);
  reg Pluginop.Api.h_recover_packet (fun vm ->
      let len = V.arg_int vm 2 in
      if len < 4 || len > 65536 then helper_fail "recover_packet: bad length %d" len;
      let src, soff = V.direct vm ~write:false (V.arg vm 1) len in
      (* copy the recovered image out of the VM region before replaying:
         the replay re-enters pluglets that may rewrite plugin memory
         under the borrowed range. Runs only on a FEC repair. *)
      process_recovered c (Bytes.sub_string src soff len));
  reg Pluginop.Api.h_packet_bytes (fun vm ->
      let total = 4 + c.cur_payload_len in
      if total <= V.arg_int vm 2 then begin
        (* pn prefix + payload blitted straight into plugin memory — the
           packet image never materializes on the host side *)
        let dst, off = V.direct vm ~write:true (V.arg vm 1) total in
        Bytes.set_int32_be dst off (Int64.to_int32 c.cur_pn);
        blit_current_payload c dst (off + 4);
        V.ret_int vm total
      end);
  reg Pluginop.Api.h_create_path (fun vm ->
      let remote = V.arg_int vm 1 in
      (* reuse an existing path to the same remote if present *)
      let existing = ref (-1) in
      Array.iter
        (fun p -> if p.remote_addr = remote then existing := p.path_id)
        c.paths;
      if !existing >= 0 then V.ret_int vm !existing
      else begin
        let local =
          (* second client address if we own one, else our primary *)
          let primary = (default_path c).local_addr in
          match c.local_params.TP.active_paths with
          | a :: _ when c.role = Client -> a
          | _ -> primary
        in
        let p =
          {
            path_id = Array.length c.paths;
            local_addr = local;
            remote_addr = remote;
            cc = Quic.Cc.create ~initial_window:c.cfg.initial_window ();
            rtt = Quic.Rtt.create ();
            active = true;
            lost_span_start = 0L;
            lost_span_end = 0L;
            lost_span_valid = false;
          }
        in
        c.paths <- Array.append c.paths [| p |];
        ignore
          (Pluginop.Dispatch.run_op c.po c Pluginop.Protoop.create_new_path
             [| I (i64 p.path_id) |]);
        V.ret_int vm p.path_id
      end)

(* The HOST record: how PQUIC presents itself to the transport-neutral
   plugin machinery. Everything [Pluginop] needs from a connection —
   fields, clock, sanction, stats — goes through these closures.
   [Connection] builds it once, handing in its receive path. *)
let host ~process_recovered : Conn_types.t Pluginop.Types.host =
  {
    Pluginop.Types.host_name = "pquic";
    now = (fun c -> Sim.now c.sim);
    get_field;
    set_field;
    push_message = (fun c msg -> c.on_message msg);
    sent_time = (fun c pn -> Sent_times.find c.sent_times pn);
    fail = fail_connection;
    on_sanction =
      (fun c -> c.stats.plugin_sanctions <- c.stats.plugin_sanctions + 1);
    on_fallback =
      (fun c -> c.stats.plugin_fallbacks <- c.stats.plugin_fallbacks + 1);
    on_detach = (fun c name -> Scheduler.drop_plugin c.sched name);
    install_extra_helpers = install_extra_helpers ~process_recovered;
  }
