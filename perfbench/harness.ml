(* One measured sample of one benchmark workload, in a fresh process:

     harness.exe WORKLOAD SEED TRACE SPANS_CSV

   WORKLOAD is bulk_plain, bulk_mpfec_lossy or server_swarm; SEED makes
   the inputs; TRACE=1 steps the simulator one event at a time with
   spans around every call into a layer and writes the spans to
   SPANS_CSV. Prints one JSON line (see Probe.emit). perfbench/run.py
   runs many of these per measurement and takes medians.

   A fresh process per sample keeps every sample cold: the verified-
   program cache of Pluginop.Pre is process-global, so a repeat inside
   one process would measure a warm cache. *)

module Sim = Netsim.Sim
module Net = Netsim.Net
module Link = Netsim.Link
module Topology = Netsim.Topology
module C = Pquic.Connection
module Ep = Pquic.Endpoint
module Server = Pquic.Server
module Table = Engine.Conn_table
module TW = Engine.Timer_wheel
module Spans = Probe.Spans
module Samples = Probe.Samples
module P = Quic.Packet
module F = Quic.Frame

let object_size = 20_000_000
let sim_cap_s = 900.

(* Captured wire images for the replay: every [capture_stride]th sent
   datagram, at most [capture_cap] of them. *)
let capture_stride = 3
let capture_cap = 8192

let failures_cold f =
  let c = Pluginop.Pre.cache_counters () in
  Probe.check f ~ops:1
    (c.Pluginop.Pre.entries = 0 && c.hits = 0 && c.misses = 0)
    "program cache was not cold at start"

let plugin_label name =
  if name = Plugins.Multipath.name then "multipath"
  else if name = Plugins.Fec.xor_full.Pluginop.Plugin.name then "fec"
  else if name = Plugins.Monitoring.name then "monitoring"
  else "other"

(* Instructions executed by every pluglet of every attached instance,
   per plugin label. *)
let insns_by_plugin conns =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (c : C.t) ->
      Hashtbl.iter
        (fun name (inst : C.instance) ->
          let n =
            List.fold_left
              (fun a p -> a + Pluginop.Pre.executed_insns p)
              0 inst.C.pres
          in
          let l = plugin_label name in
          Hashtbl.replace tbl l
            (n + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
        c.C.po.Pluginop.Types.plugins)
    conns;
  fun l -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl l))

let sum_stats conns f =
  float_of_int (List.fold_left (fun a (c : C.t) -> a + f (C.stats c)) 0 conns)

(* Counters every workload reports from its connections, tables, wheel,
   pools and caches; [pkts] is the datagram count of the measured phase. *)
let common_counters ~conns ~tables ~wheel ~nconns ~node_misses ~pkts =
  let per_pkt x = x /. float_of_int (max 1 pkts) in
  let insns = insns_by_plugin conns in
  let pre = Pluginop.Pre.cache_counters () in
  let live, cap, tomb =
    List.fold_left
      (fun (l, c, t) tbl ->
        let l', c', t' = Table.stats tbl in
        (l + l', c + c', t + t'))
      (0, 0, 0) tables
  in
  let w = TW.counters wheel in
  let per_conn x = float_of_int x /. float_of_int (max 1 nconns) in
  [
    ("core.pkts_lost", sum_stats conns (fun s -> s.C.pkts_lost));
    ("core.pkts_retransmitted", sum_stats conns (fun s -> s.C.pkts_retransmitted));
    ("core.frames_recovered", sum_stats conns (fun s -> s.C.frames_recovered));
    ("pluginop.sanctions", sum_stats conns (fun s -> s.C.plugin_sanctions));
    ("pluginop.fallbacks", sum_stats conns (fun s -> s.C.plugin_fallbacks));
    ( "pluginop.pre_cache_hit_rate",
      float_of_int pre.Pluginop.Pre.hits
      /. float_of_int (max 1 (pre.hits + pre.misses)) );
    ("pluginop.pre_cache_misses", float_of_int pre.misses);
    ("pluginop.node_misses", float_of_int node_misses);
    ("ebpf.insns_per_pkt.multipath", per_pkt (insns "multipath"));
    ("ebpf.insns_per_pkt.fec", per_pkt (insns "fec"));
    ("ebpf.insns_per_pkt.monitoring", per_pkt (insns "monitoring"));
    ("engine.table_load", float_of_int live /. float_of_int (max 1 cap));
    ("engine.table_tombstones", float_of_int tomb);
    ("engine.wheel_arms_per_conn", per_conn w.TW.arms);
    ("engine.wheel_fires_per_conn", per_conn w.TW.fires);
    ("engine.wheel_cascades_per_conn", per_conn w.TW.cascades);
    ("engine.wheel_drivers_per_conn", per_conn w.TW.drivers);
    ("quic.writer_created", float_of_int (Quic.Writer.created ()));
    ("quic.reader_created", float_of_int (Quic.Reader.created ()));
  ]

let gc_counters ~words ~major ~pkts =
  [
    ("gc.minor_words_per_pkt", words /. float_of_int (max 1 pkts));
    ("gc.major_collections", float_of_int major);
    ( "gc.heap_top_bytes",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    );
  ]

(* Per-layer numbers of a traced sample: span self times, the quic
   replay and the closure of the ledger against the traced wall time. *)
let traced_counters ~wall ~pkts ~find_sub_ns ~(l : Spans.ledger)
    ~(r : Probe.replay) =
  let fw = float_of_int (max 1 wall) in
  let per n x = float_of_int x /. float_of_int (max 1 n) in
  let share x = float_of_int x /. fw in
  [
    ("netsim.events_per_pkt", per pkts l.events);
    ("netsim.other_self_ns_per_pkt", per pkts l.netsim_other_ns);
    ("netsim.deliver_self_ns_per_pkt", per pkts l.netsim_deliver_ns);
    ("quic.unprotect_ns_per_dgram", r.unprotect_ns);
    ("quic.parse_ns_per_dgram", r.parse_ns);
    ("quic.seal_ns_per_pkt", r.seal_ns);
    ("quic.replayed_dgrams", float_of_int r.dgrams);
    ("core.rx_self_ns_per_dgram", per l.rx_dgrams l.core_rx_ns);
    ( "core.rx_minor_words_per_dgram",
      l.core_rx_words /. float_of_int (max 1 l.rx_dgrams) );
    ("core.tx_self_ns_per_pkt", per l.tx_pkts l.core_tx_ns);
    ( "core.tx_minor_words_per_pkt",
      l.core_tx_words /. float_of_int (max 1 l.tx_pkts) );
    ("engine.find_sub_ns", find_sub_ns);
    ("engine.route_self_ns_per_dgram", per l.routed l.engine_ns);
    ("trace.share_netsim", share (l.netsim_deliver_ns + l.netsim_other_ns));
    ("trace.share_core_rx", share l.core_rx_ns);
    ("trace.share_core_tx", share l.core_tx_ns);
    ("trace.share_accept", share l.accept_ns);
    ("trace.share_engine", share l.engine_ns);
    ("trace.unattributed_share", share (wall - l.top_ns));
  ]

(* Live heap an instance of each named plugin retains, acquired after the
   run so that only the instance itself is measured. *)
let heap_per_instance ep names =
  match names with
  | [] -> 0.
  | _ ->
    let b0 = Probe.live_bytes () in
    let insts = List.map (fun n -> Ep.acquire_instance ep n) names in
    let b1 = Probe.live_bytes () in
    ignore (Sys.opaque_identity insts);
    float_of_int (b1 - b0) /. float_of_int (List.length names)

(* Machine-speed calibration: fixed work that uses nothing from the
   library — hashing, sorting, byte loops, small allocations — timed in
   CPU seconds. Shared VMs slow down by up to 1.7x for minutes at a
   time; a sample that times this loop lets run.py express its times in
   units of the loop, which cancels that drift. Each sample runs it
   first, on an empty heap, so that the loop's time does not depend on
   the inputs or on what the library allocates. *)
let calibrate_once () =
  let c0 = Sys.time () in
  let acc = ref 0 in
  let h = Hashtbl.create 1024 in
  for i = 0 to 19_999 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  for i = 0 to 39_999 do
    match Hashtbl.find_opt h (i * 7919) with
    | Some s -> acc := !acc + String.length s
    | None -> ()
  done;
  let a = Array.init 40_000 (fun i -> i * 2654435761 land 0xffffff) in
  Array.sort compare a;
  let b = Bytes.create (1 lsl 19) in
  let x = ref 0 in
  for i = 0 to Bytes.length b - 1 do
    x := ((!x * 31) + i) land 0xff;
    Bytes.unsafe_set b i (Char.unsafe_chr !x)
  done;
  let l = ref [] in
  for i = 0 to 40_000 do
    l := (i, i) :: !l
  done;
  acc := !acc + a.(500) + List.length !l + Char.code (Bytes.get b 77);
  ignore (Sys.opaque_identity !acc);
  Sys.time () -. c0

let calibrate () = (calibrate_once () +. calibrate_once ()) /. 2.

(* ------------------------------------------------------------------ *)
(* bulk_plain / bulk_mpfec_lossy                                       *)
(* ------------------------------------------------------------------ *)

(* Seeded object content: a 63-bit xorshift, 8 bytes at a time. *)
let make_content seed size =
  let b = Bytes.create size in
  let x = ref ((seed * 0x9E3779B97F4A7C1) lor 1) in
  for i = 0 to (size / 8) - 1 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    Bytes.set_int64_le b (8 * i) (Int64.of_int v)
  done;
  for i = size / 8 * 8 to size - 1 do
    Bytes.set b i (Char.chr (i land 0xff))
  done;
  Bytes.unsafe_to_string b

let equal_at content off data =
  let len = String.length data in
  let i = ref 0 and ok = ref true in
  while !ok && !i + 8 <= len do
    if
      not
        (Int64.equal
           (String.get_int64_ne content (off + !i))
           (String.get_int64_ne data !i))
    then ok := false;
    i := !i + 8
  done;
  while !ok && !i < len do
    if content.[off + !i] <> data.[!i] then ok := false;
    incr i
  done;
  !ok

let link_counters net pairs =
  let links = ref [] in
  List.iter
    (fun (src, dst) ->
      match Net.route net ~src ~dst with
      | Some ls ->
        List.iter (fun l -> if not (List.memq l !links) then links := l :: !links) ls
      | None -> ())
    pairs;
  let drops, hwm =
    List.fold_left
      (fun (d, h) l ->
        let s = Link.stats l in
        ( d + s.Link.random_losses + s.queue_drops + s.ge_losses
          + s.blackout_drops,
          max h s.queue_hwm ))
      (0, 0) !links
  in
  [
    ("netsim.link_drops", float_of_int drops);
    ("netsim.queue_hwm_bytes", float_of_int hwm);
  ]

let bulk ~workload ~mpfec ~seed ~trace ~spans_csv =
  let f = Probe.failures () in
  failures_cold f;
  let calib_s = calibrate () in
  let size = object_size in
  let content = make_content seed size in
  let seed64 = Int64.of_int seed in
  let p =
    { Topology.d_ms = 5.; bw_mbps = 100.; loss = (if mpfec then 0.01 else 0.) }
  in
  let topo =
    if mpfec then Topology.dual_path ~seed:seed64 p p
    else Topology.single_path ~seed:seed64 p
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server_addr = topo.Topology.server_addr in
  let plugins =
    if mpfec then [ Plugins.Multipath.plugin; Plugins.Fec.xor_full ] else []
  in
  let names = List.map (fun (pl : Pluginop.Plugin.t) -> pl.name) plugins in
  (* traced only: the first admission of each plugin, timed on a node of
     its own so the endpoints' instance caches are untouched *)
  let admit_ns =
    if trace && plugins <> [] then begin
      let node = Pquic.Node.create () in
      List.iter (Pquic.Node.add_plugin node) plugins;
      let t0 = Probe.now_ns () in
      List.iter (fun n -> ignore (Pquic.Node.acquire_instance node n)) names;
      Probe.now_ns () - t0
    end
    else 0
  in
  let measuring = ref false in
  let lat = Samples.create () in
  let dgrams = ref 0 in
  Gc.compact ();
  let live0 = Probe.live_bytes () in
  let c0 = Sys.time () in
  let server =
    Ep.create ~sim ~net ~addr:server_addr ~seed:(Int64.add seed64 0x5EedL) ()
  in
  let extra_addrs =
    if mpfec then List.tl topo.Topology.client_addrs else []
  in
  let client =
    Ep.create ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs)
      ~extra_addrs ~seed:(Int64.add seed64 0xC11e47L) ()
  in
  List.iter
    (fun pl ->
      Ep.add_plugin server pl;
      Ep.add_plugin client pl)
    plugins;
  (* the endpoints' receive handlers, bound the way Endpoint.listen binds
     them, with the measured phase timed around each call *)
  let accept_ns = ref 0 in
  let handler ep dg =
    if not !measuring then begin
      if trace && ep == server && server.Ep.accepted = 0 then begin
        let t0 = Probe.now_ns () in
        Ep.handle_datagram ep dg;
        if server.Ep.accepted = 1 then accept_ns := Probe.now_ns () - t0
      end
      else Ep.handle_datagram ep dg
    end
    else begin
      incr dgrams;
      if trace then begin
        let s = Spans.enter Spans.rx in
        Ep.handle_datagram ep dg;
        Spans.leave s
      end
      else begin
        let t0 = Probe.now_ns () in
        Ep.handle_datagram ep dg;
        Samples.add lat (Probe.now_ns () - t0)
      end
    end
  in
  List.iter
    (fun ep ->
      List.iter
        (fun a -> Net.attach net a (handler ep))
        (ep.Ep.addr :: ep.Ep.extra_addrs))
    [ server; client ];
  let server_conn = ref None in
  server.Ep.on_connection <-
    (fun c ->
      server_conn := Some c;
      c.C.on_stream_data <-
        (fun id _ ~fin -> if fin then C.write_stream c ~id ~fin:true content));
  let conn =
    Ep.connect client ~remote_addr:server_addr ~plugins_to_inject:names
  in
  let established = ref false in
  conn.C.on_established <- (fun () -> established := true);
  let received = ref 0 and intact = ref true and fin = ref false in
  let cpu_fin = ref 0. and t_fin = ref 0L in
  conn.C.on_stream_data <-
    (fun id data ~fin:last ->
      if id = 0 then begin
        let len = String.length data in
        if !received + len > size || not (equal_at content !received data)
        then intact := false;
        received := !received + len;
        if last then begin
          cpu_fin := Sys.time ();
          t_fin := Sim.now sim;
          fin := true
        end
      end);
  (* traced only: a pass-through tap on every route marks the send
     passes and captures wire images for the quic replay *)
  let caps = ref [] and ncap = ref 0 and nsent = ref 0 in
  if trace then begin
    let key_of wire =
      if Char.code wire.[0] land 0x80 <> 0 then C.initial_key else conn.C.key
    in
    let tap =
      {
        Net.node_name = "perfbench-tap";
        process =
          (fun ~now:_ dg ->
            if !measuring then begin
              Spans.mark_send ();
              match dg.Net.payload with
              | C.Quic_packet wire ->
                incr nsent;
                if !nsent mod capture_stride = 0 && !ncap < capture_cap then begin
                  incr ncap;
                  let table =
                    if dg.Net.dst = server_addr then server.Ep.conns
                    else client.Ep.conns
                  in
                  caps :=
                    { Probe.wire; key = key_of wire; table = Some table }
                    :: !caps
                end
              | _ -> ()
            end;
            Ok dg);
      }
    in
    List.iter
      (fun ca ->
        Net.interpose net ~src:ca ~dst:server_addr [ tap ];
        Net.interpose net ~src:server_addr ~dst:ca [ tap ])
      topo.Topology.client_addrs
  end;
  let cap = Sim.of_sec sim_cap_s in
  let step_until cond =
    let traced = trace && !measuring in
    let chunk = if !measuring then 64 else 1 in
    while (not (cond ())) && Sim.pending sim > 0 && Sim.now sim < cap do
      if traced then begin
        let s = Spans.enter Spans.event in
        ignore (Sim.run ~max_events:1 sim);
        Spans.leave s
      end
      else ignore (Sim.run ~max_events:chunk sim)
    done
  in
  (* set-up: endpoints, cold plugin admission and the handshake *)
  step_until (fun () -> !established);
  let setup_s = Sys.time () -. c0 in
  Probe.check f ~ops:1 !established "handshake did not complete";
  let mem_per_conn = float_of_int (Probe.live_bytes () - live0) /. 2. in
  (* measured phase: the GET and its response, to the FIN *)
  let t_start = Sim.now sim in
  let words0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  measuring := true;
  let cpu0 = Sys.time () and wall0 = Probe.now_ns () in
  C.write_stream conn ~id:0 ~fin:true "GET /file";
  step_until (fun () -> !fin);
  let wall = Probe.now_ns () - wall0 in
  measuring := false;
  let cpu = (if !fin then !cpu_fin else Sys.time ()) -. cpu0 in
  let words = Gc.minor_words () -. words0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let conns = conn :: Option.to_list !server_conn in
  Probe.check f ~ops:1 !fin "no FIN: the transfer did not complete";
  Probe.check f ~ops:1 (!received = size)
    (Printf.sprintf "delivered %d of %d bytes" !received size);
  Probe.check f ~ops:1 !intact "delivered content differs from the object";
  Probe.check f ~ops:1 (!server_conn <> None) "server accepted no connection";
  Probe.check f ~ops:1
    (sum_stats conns (fun s -> s.C.plugin_sanctions) = 0.)
    "plugin sanctions";
  Probe.check f ~ops:1
    (sum_stats conns (fun s -> s.C.plugin_fallbacks) = 0.)
    "plugin fallbacks";
  List.iter
    (fun c ->
      List.iter
        (fun n ->
          Probe.check f ~ops:1 (C.has_plugin c n)
            (Printf.sprintf "plugin %s not attached" n))
        names)
    conns;
  let server_sent = sum_stats (Option.to_list !server_conn) (fun s -> s.C.bytes_sent) in
  let counters =
    common_counters ~conns ~tables:[ server.Ep.conns; client.Ep.conns ]
      ~wheel:(TW.shared sim) ~nconns:2
      ~node_misses:(Ep.cache_misses server + Ep.cache_misses client)
      ~pkts:!dgrams
    @ link_counters net
        (List.concat_map
           (fun ca -> [ (ca, server_addr); (server_addr, ca) ])
           topo.Topology.client_addrs)
    @ [
        ("core.useful_byte_share", float_of_int size /. Float.max 1. server_sent);
        ("netsim.sim_dct_s", Sim.to_sec (Int64.sub !t_fin t_start));
      ]
  in
  let metrics =
    if not trace then
      [
        ("goodput_mb_per_cpu_s", float_of_int size /. 1e6 /. cpu);
        ("rx_p50_us", Samples.percentile lat 0.50 /. 1e3);
        ("rx_p99_us", Samples.percentile lat 0.99 /. 1e3);
        ("dgrams_per_cpu_s", float_of_int !dgrams /. cpu);
        ("mem_bytes_per_conn", mem_per_conn);
        ("setup_s", setup_s);
        ("calib_s", calib_s);
      ]
      @ counters
      @ gc_counters ~words ~major ~pkts:!dgrams
    else begin
      let l = Spans.ledger () in
      let r = Probe.replay !caps in
      Probe.check f ~ops:1 (r.Probe.mismatches = 0)
        (Printf.sprintf "%d captured datagrams failed replay" r.mismatches);
      Spans.write spans_csv;
      [
        ("goodput_mb_per_cpu_s", float_of_int size /. 1e6 /. cpu);
        ("calib_s", calib_s);
        (* one accept per bulk sample: the server's first receive *)
        ("core.accept_plain_p50_us", float_of_int !accept_ns /. 1e3);
        ("pluginop.attach_accept_p50_us", 0.);
        ("pluginop.heap_bytes_per_instance", heap_per_instance server names);
        ("ebpf.admit_cold_us", float_of_int admit_ns /. 1e3);
        ("engine.shard_batch_mean", 0.);
      ]
      @ counters
      @ traced_counters ~wall ~pkts:!dgrams ~find_sub_ns:r.find_sub_ns ~l ~r
    end
  in
  Probe.emit ~workload ~seed ~trace ~attempted:1 f metrics

(* ------------------------------------------------------------------ *)
(* server_swarm                                                        *)
(* ------------------------------------------------------------------ *)

(* Standing population: 2048 connections, enough that the connection
   records (~35 kB each, 70 MB in all) exceed a 4 MiB L2 many times
   over, and that the plugin tail (128 connections) holds the accept
   p99, while a sample still takes well under a second. *)
let swarm_conns = 2048
let swarm_rounds = 32 (* heartbeats routed to each connection *)
let initials_per_ms = 1000
let burst = 1024
let srv_addr = 1
let cli_addr = 2

(* The CRYPTO frame of a forged Initial: the client's transport
   parameters, 2-byte length-prefixed. A client that holds the plugin
   says so, or the server rolls the plugin back at negotiation. *)
let client_hello ~supported =
  let tp =
    {
      Quic.Transport_params.default with
      Quic.Transport_params.supported_plugins = supported;
    }
  in
  let blob = Quic.Transport_params.encode tp in
  let buf = Buffer.create (String.length blob + 2) in
  Buffer.add_uint16_be buf (String.length blob);
  Buffer.add_string buf blob;
  F.to_string (F.Crypto { offset = 0L; data = Buffer.contents buf })

(* Acks every pn the server could have sent during its handshake burst. *)
let ack_payload =
  F.to_string (F.Ack { F.largest = 7L; delay_us = 0L; ranges = [ (0L, 7L) ] })

let dg wire =
  {
    Net.src = cli_addr;
    dst = srv_addr;
    size = String.length wire;
    payload = C.Quic_packet wire;
  }

(* Exactly [k] of [n] indices, chosen by the seed. *)
let choose seed n k =
  let st = Random.State.make [| seed; 0x5eed |] in
  let idx = Array.init n Fun.id in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  let chosen = Array.make n false in
  for i = 0 to k - 1 do
    chosen.(idx.(i)) <- true
  done;
  chosen

let swarm ~workload ~seed ~trace ~spans_csv =
  let f = Probe.failures () in
  failures_cold f;
  let calib_s = calibrate () in
  let n = swarm_conns and k = swarm_conns / 16 in
  let h = swarm_conns * swarm_rounds in
  let chosen = choose seed n k in
  (* per-seed CID ranges: client CIDs at base+2^32+i, server at base+2^33+i *)
  let base = Int64.shift_left (Int64.of_int (seed land 0xffff)) 40 in
  let scid_of i = Int64.add base (Int64.add 0x1_0000_0000L (Int64.of_int i)) in
  let dcid_of i = Int64.add base (Int64.add 0x2_0000_0000L (Int64.of_int i)) in
  let key_of_index i = P.derive_key ~client_cid:(scid_of i) ~server_cid:(dcid_of i) in
  let forge_short i ~pn =
    P.protect ~key:(key_of_index i)
      {
        P.header =
          { P.ptype = P.One_rtt; spin = false; dcid = dcid_of i; scid = 0L; pn };
        payload = ack_payload;
      }
  in
  let hello = client_hello ~supported:[]
  and hello_mon = client_hello ~supported:[ Plugins.Monitoring.name ] in
  let initials =
    Array.init n (fun i ->
        dg
          (P.protect ~key:C.initial_key
             {
               P.header =
                 {
                   P.ptype = P.Initial;
                   spin = false;
                   dcid = dcid_of i;
                   scid = scid_of i;
                   pn = 0L;
                 };
               payload = (if chosen.(i) then hello_mon else hello);
             }))
  in
  let acks = Array.init n (fun i -> dg (forge_short i ~pn:1L)) in
  let beats =
    Array.init h (fun j -> dg (forge_short (j mod n) ~pn:(Int64.of_int (2 + (j / n)))))
  in
  Gc.compact ();
  (* set-up: server, listen, and one warm-up admission of the plugin *)
  let c0 = Sys.time () in
  let sim = Sim.create () in
  let net = Net.create sim in
  (* replies take a linkless fallback route to a sink *)
  Net.add_fallback_route net ~src:srv_addr [];
  Net.attach net cli_addr ignore;
  let cfg = { C.default_config with C.lean = true } in
  let srv =
    Server.create ~cfg ~sim ~net ~addr:srv_addr ~seed:(Int64.of_int seed) ()
  in
  let ep = srv.Server.ep in
  Ep.add_plugin ep Plugins.Monitoring.plugin;
  Server.listen srv;
  let a0 = Probe.now_ns () in
  let warm = Ep.acquire_instance ep Plugins.Monitoring.name in
  let admit_ns = Probe.now_ns () - a0 in
  let setup_s = Sys.time () -. c0 in
  Probe.check f ~ops:1 (warm <> None) "warm-up acquire_instance failed";
  (* traced only: tap the reply route, capturing the server's datagrams *)
  let caps = ref [] and ncap = ref 0 and nsent = ref 0 in
  (* a short header's destination CID names the connection, and so the
     key: client CIDs for replies, server CIDs for client datagrams *)
  let capture wire ~to_server =
    incr nsent;
    if !nsent mod capture_stride = 0 && !ncap < capture_cap then begin
      incr ncap;
      let key =
        if Char.code wire.[0] land 0x80 <> 0 then C.initial_key
        else
          let cid0 = if to_server then dcid_of 0 else scid_of 0 in
          key_of_index
            (Int64.to_int (Int64.sub (String.get_int64_be wire 1) cid0))
      in
      let table = if to_server then Some ep.Ep.conns else None in
      caps := { Probe.wire; key; table } :: !caps
    end
  in
  if trace then
    Net.interpose_fallback net ~src:srv_addr
      [
        {
          Net.node_name = "perfbench-tap";
          process =
            (fun ~now:_ d ->
              Spans.mark_send ();
              (match d.Net.payload with
              | C.Quic_packet wire -> capture wire ~to_server:false
              | _ -> ());
              Ok d);
        };
      ];
  let drain ~until =
    if trace then begin
      let again = ref true in
      while !again do
        let d0 = Engine.Shard.dispatched srv.Server.shards in
        let s = Spans.enter Spans.event in
        let ran = Sim.run ~until ~max_events:1 sim in
        Spans.leave s;
        Spans.add_drained s (Engine.Shard.dispatched srv.Server.shards - d0);
        again := ran > 0
      done
    end
    else ignore (Sim.run ~until sim)
  in
  let route d =
    if trace then begin
      (match d.Net.payload with
      | C.Quic_packet wire -> capture wire ~to_server:true
      | _ -> ());
      let s = Spans.enter Spans.route in
      Server.handle_datagram srv d;
      Spans.leave s
    end
    else Server.handle_datagram srv d
  in
  let live0 = Probe.live_bytes () in
  let words0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  (* accept: Initials offered at a fixed simulated rate *)
  let lat = Samples.create () in
  let mon = [ Plugins.Monitoring.name ] in
  let cpu0 = Sys.time () and wall0 = Probe.now_ns () in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + initials_per_ms) in
    while !i < stop do
      let plugin = chosen.(!i) in
      ep.Ep.plugins_to_inject <- (if plugin then mon else []);
      if trace then begin
        (match initials.(!i).Net.payload with
        | C.Quic_packet wire -> capture wire ~to_server:true
        | _ -> ());
        let s = Spans.enter (if plugin then Spans.accept_plugin else Spans.accept) in
        Server.handle_datagram srv initials.(!i);
        Spans.leave s
      end
      else begin
        let t0 = Probe.now_ns () in
        Server.handle_datagram srv initials.(!i);
        Samples.add lat (Probe.now_ns () - t0)
      end;
      incr i
    done;
    drain ~until:(Int64.add (Sim.now sim) (Sim.of_ms 1.))
  done;
  let accept_cpu = Sys.time () -. cpu0 in
  ep.Ep.plugins_to_inject <- [];
  (* ack the handshake bursts so the population goes idle *)
  Array.iter route acks;
  drain ~until:(Sim.now sim);
  let wall_accept = Probe.now_ns () - wall0 in
  let mem_per_conn = float_of_int (Probe.live_bytes () - live0) /. float_of_int n in
  (* heartbeats: bursts against the standing population, the next burst
     only after the previous drain returned. The routing rate times the
     engine's part, Server.handle_datagram (CID probe and shard enqueue);
     the drains, where each connection receives its heartbeat, run
     between the timed stretches: their speed follows the host's shared
     cache more than anything the library does, and moves by 20% from
     one run to the next (the traced run reports them as core.rx). *)
  let routed0 = srv.Server.routed in
  let dispatched0 = Engine.Shard.dispatched srv.Server.shards in
  let route_cpu = ref 0. and wall1 = Probe.now_ns () in
  let j = ref 0 in
  while !j < h do
    let stop = min h (!j + burst) and b0 = Sys.time () in
    while !j < stop do
      route beats.(!j);
      incr j
    done;
    route_cpu := !route_cpu +. (Sys.time () -. b0);
    drain ~until:(Sim.now sim)
  done;
  let wall = wall_accept + (Probe.now_ns () - wall1) in
  let words = Gc.minor_words () -. words0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let routed = srv.Server.routed - routed0 in
  let drained = Engine.Shard.dispatched srv.Server.shards - dispatched0 in
  (* checks *)
  let st = Server.stats srv in
  Probe.check f ~ops:(n - st.Server.accepted) (st.Server.accepted = n)
    (Printf.sprintf "accepted %d of %d Initials" st.Server.accepted n);
  let conns = ref [] and wrong_attach = ref 0 in
  for i = 0 to n - 1 do
    match Table.find ep.Ep.conns (Table.key_of_cid (dcid_of i)) with
    | Some c ->
      conns := c :: !conns;
      if C.has_plugin c Plugins.Monitoring.name <> chosen.(i) then
        incr wrong_attach
    | None -> incr wrong_attach
  done;
  let conns = !conns in
  Probe.check f ~ops:!wrong_attach (!wrong_attach = 0)
    (Printf.sprintf "%d connections with the wrong plugin set" !wrong_attach);
  Probe.check f ~ops:(h - routed) (routed = h)
    (Printf.sprintf "routed %d of %d heartbeats" routed h);
  Probe.check f ~ops:(h - drained) (drained = h)
    (Printf.sprintf "drained %d of %d heartbeats" drained h);
  let sanctions = int_of_float (sum_stats conns (fun s -> s.C.plugin_sanctions)) in
  let fallbacks = int_of_float (sum_stats conns (fun s -> s.C.plugin_fallbacks)) in
  Probe.check f ~ops:sanctions (sanctions = 0) "plugin sanctions";
  Probe.check f ~ops:fallbacks (fallbacks = 0) "plugin fallbacks";
  let pkts = n + n + h in
  let counters =
    common_counters ~conns ~tables:[ ep.Ep.conns ] ~wheel:srv.Server.wheel
      ~nconns:n ~node_misses:st.Server.plugin_cache.Pquic.Node.misses ~pkts
    @ [
        ("netsim.link_drops", 0.);
        ("netsim.queue_hwm_bytes", 0.);
        ("core.useful_byte_share", 0.);
        ("netsim.sim_dct_s", Sim.to_sec (Sim.now sim));
        ( "engine.shard_batch_mean",
          float_of_int st.Server.dispatched /. float_of_int (max 1 st.Server.batches) );
      ]
  in
  let metrics =
    if not trace then
      [
        ("accepts_per_cpu_s", float_of_int n /. accept_cpu);
        ("accept_p50_us", Samples.percentile lat 0.50 /. 1e3);
        ("accept_p99_us", Samples.percentile lat 0.99 /. 1e3);
        ("routed_dgrams_per_cpu_s", float_of_int h /. !route_cpu);
        ("mem_bytes_per_conn", mem_per_conn);
        ("setup_s", setup_s);
        ("calib_s", calib_s);
      ]
      @ counters
      @ gc_counters ~words ~major ~pkts
    else begin
      let l = Spans.ledger () in
      let r = Probe.replay !caps in
      Probe.check f ~ops:1 (r.Probe.mismatches = 0)
        (Printf.sprintf "%d captured datagrams failed replay" r.mismatches);
      (* the find_sub timing runs on the heartbeat images themselves *)
      let beat_wires =
        Array.map
          (fun d ->
            match d.Net.payload with C.Quic_packet w -> w | _ -> "")
          beats
      in
      let find_sub_ns =
        Probe.time_per beat_wires (fun w ->
            ignore (Table.find_sub ep.Ep.conns w 1 8))
      in
      Spans.write spans_csv;
      [
        ("accepts_per_cpu_s", float_of_int n /. accept_cpu);
        ("calib_s", calib_s);
        ( "core.accept_plain_p50_us",
          Samples.percentile l.Spans.accept_lat 0.50 /. 1e3 );
        ( "pluginop.attach_accept_p50_us",
          Samples.percentile l.Spans.accept_plugin_lat 0.50 /. 1e3 );
        ("pluginop.heap_bytes_per_instance", heap_per_instance ep mon);
        ("ebpf.admit_cold_us", float_of_int admit_ns /. 1e3);
      ]
      @ counters
      @ traced_counters ~wall ~pkts ~find_sub_ns ~l ~r
    end
  in
  Probe.emit ~workload ~seed ~trace ~attempted:(n + k + h) f metrics

let () =
  match Sys.argv with
  | [| _; workload; seed; trace; spans_csv |] -> (
    let seed = int_of_string seed and trace = trace = "1" in
    match workload with
    | "bulk_plain" -> bulk ~workload ~mpfec:false ~seed ~trace ~spans_csv
    | "bulk_mpfec_lossy" -> bulk ~workload ~mpfec:true ~seed ~trace ~spans_csv
    | "server_swarm" -> swarm ~workload ~seed ~trace ~spans_csv
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2)
  | _ ->
    prerr_endline "usage: harness.exe WORKLOAD SEED TRACE(0|1) SPANS_CSV";
    exit 2
