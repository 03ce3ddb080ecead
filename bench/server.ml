(* Massive-concurrency server benchmark: drives [Pquic.Server] — the
   CID-routed connection table + sharded workers + shared timer wheel —
   with forged client traffic, bypassing simulated client connections
   entirely so the measured cost is the server engine's alone
   (BENCH_server.json).

   One process plays "the internet": it pre-forges authenticated Initial
   packets (one per connection, distinct CIDs), feeds them to the
   server's datagram entry point staggered over simulated time, then
   acks everything the server sent so the whole population goes idle.
   Against that standing population it measures:

     conns/sec accepted    full accept path: authenticate, create,
                           handshake reply, demux-table registration
     ns/datagram dispatch  routed path: CID probe on the wire bytes,
                           shard enqueue, batched drain, full receive
                           (unprotect, parse, ack machinery, replies)
     ns/timer arm-fire     wheel micro-benchmark, separate simulator
     bytes/idle conn       GC live-word delta across the population

   Cells: 10k / 100k / 1M concurrent connections (--smoke: 1k, prints
   but never writes the JSON, and fails when an idle connection holds
   more than [smoke_bytes_per_conn]). The 10k cell additionally re-runs with
   every connection injecting the monitoring plugin and reports the
   global content-addressed program-cache hit rate (one verify+JIT for
   the whole population is the target: hit rate >= 99%). *)

module Sim = Netsim.Sim
module Net = Netsim.Net
module P = Quic.Packet
module F = Quic.Frame
module TP = Quic.Transport_params
module Server = Pquic.Server

let server_addr = 1
let client_addr = 2

(* Distinct CIDs per forged connection, disjoint ranges. *)
let scid_of i = Int64.add 0x1_0000_0000L (Int64.of_int i)
let dcid_of i = Int64.add 0x2_0000_0000L (Int64.of_int i)

(* The 2-byte length-prefixed transport-parameter blob the client's
   crypto stream carries (mirrors the connection's own framing). *)
let client_hello =
  lazy
    (let blob = TP.encode TP.default in
     let buf = Buffer.create (String.length blob + 2) in
     Buffer.add_uint16_be buf (String.length blob);
     Buffer.add_string buf blob;
     F.to_string (F.Crypto { offset = 0L; data = Buffer.contents buf }))

let forge_initial i =
  P.protect ~key:Pquic.Connection.initial_key
    {
      P.header =
        {
          P.ptype = P.Initial;
          spin = false;
          dcid = dcid_of i;
          scid = scid_of i;
          pn = 0L;
        };
      payload = Lazy.force client_hello;
    }

let forge_short i ~pn payload =
  P.protect
    ~key:(P.derive_key ~client_cid:(scid_of i) ~server_cid:(dcid_of i))
    {
      P.header =
        { P.ptype = P.One_rtt; spin = false; dcid = dcid_of i; scid = 0L; pn };
      payload;
    }

(* Acks every pn the server could have sent during its handshake burst;
   pns it never sent fall out of the clipped-range walk harmlessly. *)
let ack_payload =
  F.to_string (F.Ack { F.largest = 7L; delay_us = 0L; ranges = [ (0L, 7L) ] })

let dg wire =
  {
    Net.src = client_addr;
    dst = server_addr;
    size = String.length wire;
    payload = Pquic.Connection.Quic_packet wire;
  }

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* ------------------------------------------------------------------ *)
(* Timer-wheel micro-benchmark (own simulator, conn-free)              *)
(* ------------------------------------------------------------------ *)

type timer_result = {
  arm_ns : float;
  cancel_ns : float;
  fire_ns : float;
  arm_minor_words : float;  (* per re-arm of an already-known alarm *)
}

let timer_micro () =
  let module TW = Engine.Timer_wheel in
  let sim = Sim.create () in
  let w = TW.create sim in
  let n = 200_000 in
  let fired = ref 0 in
  let alarms = Array.init n (fun _ -> TW.alarm (fun () -> incr fired)) in
  (* deterministic scatter over ~1 simulated second, hitting all levels;
     deadlines pre-boxed so the measured loops allocate nothing *)
  let deadlines =
    Array.init n (fun i ->
        Int64.of_int (((i * 2654435761) land 0x3FFFFFFF) lor 1))
  in
  let t0 = Sys.time () in
  for i = 0 to n - 1 do
    TW.arm w alarms.(i) ~at:deadlines.(i)
  done;
  let arm_cpu = Sys.time () -. t0 in
  (* steady-state re-arm allocates nothing: unlink + relink in place *)
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    TW.arm w alarms.(i) ~at:deadlines.(i)
  done;
  let rearm_words = (Gc.minor_words () -. w0) /. float_of_int n in
  let t1 = Sys.time () in
  for i = 0 to n - 1 do
    if i land 1 = 0 then TW.cancel w alarms.(i)
  done;
  let cancel_cpu = Sys.time () -. t1 in
  let t2 = Sys.time () in
  ignore (Sim.run sim);
  let fire_cpu = Sys.time () -. t2 in
  assert (!fired = n / 2);
  {
    arm_ns = arm_cpu *. 1e9 /. float_of_int n;
    cancel_ns = cancel_cpu *. 1e9 /. float_of_int (n / 2);
    fire_ns = fire_cpu *. 1e9 /. float_of_int (n / 2);
    arm_minor_words = rearm_words;
  }

(* ------------------------------------------------------------------ *)
(* Concurrency cells                                                   *)
(* ------------------------------------------------------------------ *)

type plugin_result = {
  pre_hits : int;
  pre_misses : int;
  hit_rate : float;
  node_misses : int;
}

type cell = {
  conns : int;
  accept_per_sec : float;
  dispatch_ns : float;  (* routing layer: CID probe + shard enqueue + drain *)
  receive_ns : float;  (* full routed path incl. the connection's receive *)
  dispatch_pkts : int;
  bytes_per_conn : float;
  replies : int;  (* server datagrams that reached the client sink *)
  wheel : Engine.Timer_wheel.counters;
  dispatched : int;
  batches : int;
  table_live : int;
  table_capacity : int;
  plugin : plugin_result option;
}

let make_server ?(plugins = false) () =
  let sim = Sim.create () in
  let net = Net.create sim in
  (* replies travel a linkless fallback route: synchronous, zero-state
     delivery to the one address all forged clients share *)
  Net.add_fallback_route net ~src:server_addr [];
  let sink = ref 0 in
  Net.attach net client_addr (fun _ -> incr sink);
  let cfg =
    { Pquic.Connection.default_config with Pquic.Connection.lean = true }
  in
  let srv = Server.create ~cfg ~sim ~net ~addr:server_addr ~seed:7L () in
  if plugins then begin
    Pquic.Endpoint.add_plugin srv.Server.ep Plugins.Monitoring.plugin;
    srv.Server.ep.Pquic.Endpoint.plugins_to_inject <-
      [ Plugins.Monitoring.name ]
  end;
  Server.listen srv;
  (sim, srv, sink)

(* Feed every Initial, ~1000 per simulated millisecond so handshake
   alarms spread over the wheel instead of piling on one deadline. *)
let accept_population sim srv initials =
  let n = Array.length initials in
  let k = ref 0 in
  while !k < n do
    let stop = min n (!k + 1000) in
    while !k < stop do
      Server.handle_datagram srv (dg initials.(!k));
      incr k
    done;
    ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_ms 1.)) sim)
  done

let run_cell n =
  Printf.printf "-- cell: %d connections\n%!" n;
  let sim, srv, sink = make_server () in
  let initials = Array.init n forge_initial in
  let acks = Array.init n (fun i -> forge_short i ~pn:1L ack_payload) in
  let live0 = live_words () in
  let t0 = Sys.time () in
  accept_population sim srv initials;
  let accept_cpu = Sys.time () -. t0 in
  Printf.printf "   accepted %d in %.1fs cpu\n%!" (Server.accepted srv)
    accept_cpu;
  if Server.accepted srv <> n then
    failwith
      (Printf.sprintf "accepted %d of %d" (Server.accepted srv) n);
  (* quiesce: ack the handshake burst so nothing stays in flight *)
  Array.iter (fun w -> Server.handle_datagram srv (dg w)) acks;
  ignore (Sim.run ~until:(Sim.now sim) sim);
  Printf.printf "   quiesced\n%!";
  let bytes_per_conn =
    float_of_int (live_words () - live0) *. 8.0 /. float_of_int n
  in
  (* dispatch traffic: heartbeat acks (non-ack-eliciting, like an idle
     client's keepalives) against a sample of the standing population,
     fed in chunks so shard queues keep realistic residency *)
  let sample = min n 20_000 in
  let rounds = max 1 (100_000 / sample) in
  let pkts = sample * rounds in
  let beats =
    Array.init pkts (fun j ->
        forge_short (j mod sample)
          ~pn:(Int64.of_int (2 + (j / sample)))
          ack_payload)
  in
  let feed handle =
    let k = ref 0 in
    while !k < pkts do
      let stop = min pkts (!k + 1024) in
      while !k < stop do
        handle beats.(!k);
        incr k
      done;
      ignore (Sim.run ~until:(Sim.now sim) sim)
    done
  in
  (* routing layer alone: same CID probe + shard machinery the server
     runs, handing off to a no-op worker instead of the connection *)
  let sink_shards =
    Engine.Shard.create sim ~shards:8 (fun _ (_ : Pquic.Connection.t * Net.datagram) -> ())
  in
  let conns_table = srv.Server.ep.Pquic.Endpoint.conns in
  let t1 = Sys.time () in
  feed (fun w ->
      match Engine.Conn_table.find_sub conns_table w 1 8 with
      | Some c ->
        Engine.Shard.enqueue sink_shards
          (Int64.to_int (Pquic.Connection.local_cid c) land max_int)
          (c, dg w)
      | None -> assert false);
  let dispatch_cpu = Sys.time () -. t1 in
  (* full path: routed into the connections through the server engine *)
  let t2 = Sys.time () in
  feed (fun w -> Server.handle_datagram srv (dg w));
  let receive_cpu = Sys.time () -. t2 in
  Printf.printf "   dispatch/receive phases done\n%!";
  let st = Server.stats srv in
  let live, capacity, _ = st.Server.table in
  {
    conns = n;
    accept_per_sec = float_of_int n /. accept_cpu;
    dispatch_ns = dispatch_cpu *. 1e9 /. float_of_int pkts;
    receive_ns = receive_cpu *. 1e9 /. float_of_int pkts;
    dispatch_pkts = pkts;
    bytes_per_conn;
    replies = !sink;
    wheel = st.Server.wheel;
    dispatched = st.Server.dispatched;
    batches = st.Server.batches;
    table_live = live;
    table_capacity = capacity;
    plugin = None;
  }

(* Same accept sweep, every connection injecting the monitoring plugin:
   the process-global content-addressed program cache must verify+JIT
   each pluglet once for the whole population. *)
let plugin_probe n =
  Printf.printf "-- plugin cache probe: %d connections\n%!" n;
  let sim, srv, _sink = make_server ~plugins:true () in
  let initials = Array.init n forge_initial in
  let pre0 = Pluginop.Pre.cache_counters () in
  accept_population sim srv initials;
  let pre1 = Pluginop.Pre.cache_counters () in
  let hits = pre1.Pluginop.Pre.hits - pre0.Pluginop.Pre.hits in
  let misses = pre1.Pluginop.Pre.misses - pre0.Pluginop.Pre.misses in
  let st = Server.stats srv in
  {
    pre_hits = hits;
    pre_misses = misses;
    hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses));
    node_misses = st.Server.plugin_cache.Pquic.Node.misses;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let write_json path timer cells =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"pquic-bench-server/1\",\n";
  out
    "  \"timer\": { \"arm_ns\": %.1f, \"cancel_ns\": %.1f, \"fire_ns\": \
     %.1f, \"arm_minor_words_per_op\": %.3f },\n"
    timer.arm_ns timer.cancel_ns timer.fire_ns timer.arm_minor_words;
  out "  \"cells\": [\n";
  let ncells = List.length cells in
  List.iteri
    (fun i c ->
      out "    {\n";
      out "      \"conns\": %d,\n" c.conns;
      out "      \"accept_per_sec\": %.0f,\n" c.accept_per_sec;
      out "      \"dispatch_ns\": %.1f,\n" c.dispatch_ns;
      out "      \"receive_ns\": %.1f,\n" c.receive_ns;
      out "      \"dispatch_pkts\": %d,\n" c.dispatch_pkts;
      out "      \"bytes_per_conn\": %.0f,\n" c.bytes_per_conn;
      out "      \"replies\": %d,\n" c.replies;
      out
        "      \"wheel\": { \"arms\": %d, \"cancels\": %d, \"fires\": %d, \
         \"cascades\": %d, \"drivers\": %d },\n"
        c.wheel.Engine.Timer_wheel.arms c.wheel.Engine.Timer_wheel.cancels
        c.wheel.Engine.Timer_wheel.fires c.wheel.Engine.Timer_wheel.cascades
        c.wheel.Engine.Timer_wheel.drivers;
      out "      \"shards\": { \"dispatched\": %d, \"batches\": %d },\n"
        c.dispatched c.batches;
      out "      \"table\": { \"live\": %d, \"capacity\": %d },\n" c.table_live
        c.table_capacity;
      (match c.plugin with
      | None -> out "      \"plugin_cache\": null\n"
      | Some p ->
        out
          "      \"plugin_cache\": { \"pre_hits\": %d, \"pre_misses\": %d, \
           \"hit_rate\": %.6f, \"node_misses\": %d }\n"
          p.pre_hits p.pre_misses p.hit_rate p.node_misses);
      out "    }%s\n" (if i = ncells - 1 then "" else ","))
    cells;
  out "  ]\n";
  out "}\n";
  close_out oc

let show c =
  Printf.printf
    "%8d conns: %9.0f accepts/s, %6.1f ns/dispatch, %6.1f ns/receive, %6.0f \
     B/conn%s\n%!"
    c.conns c.accept_per_sec c.dispatch_ns c.receive_ns c.bytes_per_conn
    (match c.plugin with
    | None -> ""
    | Some p -> Printf.sprintf ", plugin cache %.2f%% hit" (100. *. p.hit_rate))

(* Memory gate of the smoke run: about twice the 4,435 B an idle lean
   connection held once send buffers kept only unacknowledged bytes and
   the protoop registry was built on first use (11,795 B before). *)
let smoke_bytes_per_conn = 9_000.

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let timer = timer_micro () in
  Printf.printf
    "timer wheel: %.1f ns/arm, %.1f ns/cancel, %.1f ns/fire, %.3f minor \
     words/re-arm\n%!"
    timer.arm_ns timer.cancel_ns timer.fire_ns timer.arm_minor_words;
  if smoke then begin
    let c = run_cell 1_000 in
    let c = { c with plugin = Some (plugin_probe 1_000) } in
    show c;
    if c.plugin = None then exit 1;
    if c.bytes_per_conn > smoke_bytes_per_conn then begin
      Printf.eprintf "idle connections hold %.0f B each, ceiling %.0f\n"
        c.bytes_per_conn smoke_bytes_per_conn;
      exit 1
    end;
    Printf.printf "smoke ok (no JSON written)\n"
  end
  else begin
    let c10k = run_cell 10_000 in
    let c10k = { c10k with plugin = Some (plugin_probe 10_000) } in
    show c10k;
    let c100k = run_cell 100_000 in
    show c100k;
    let c1m = run_cell 1_000_000 in
    show c1m;
    write_json "BENCH_server.json" timer [ c10k; c100k; c1m ];
    Printf.printf "results written to BENCH_server.json\n"
  end
