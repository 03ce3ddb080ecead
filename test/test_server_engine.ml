(* Server-engine subsystems: the timer heap (parity with plain
   simulator alarms, far and power-of-two deadlines, fire order, the
   driver contract, allocation freedom), the full-CID connection table,
   the node-scope / global plugin caches, and the sharded server
   front-end. *)

module Sim = Netsim.Sim
module Net = Netsim.Net
module TW = Engine.Timer_wheel
module Table = Engine.Conn_table
module Topology = Netsim.Topology
module P = Quic.Packet
module F = Quic.Frame
module TP = Quic.Transport_params

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Timer wheel: parity with per-alarm simulator events                  *)
(* ------------------------------------------------------------------ *)

(* Reference semantics: what conn_types used before the wheel — one
   Sim.event per alarm, re-arm = cancel + schedule. *)
module Ref_alarm = struct
  type r = {
    sim : Sim.t;
    mutable ev : Sim.event option;
    mutable fire : unit -> unit;
  }

  let make sim = { sim; ev = None; fire = ignore }

  let arm r ~at =
    (match r.ev with Some e -> Sim.cancel e | None -> ());
    r.ev <-
      Some
        (Sim.schedule_at r.sim ~at (fun () ->
             r.ev <- None;
             r.fire ()))

  let cancel r =
    (match r.ev with Some e -> Sim.cancel e | None -> ());
    r.ev <- None
end

type wheel_op = Arm of int * int | Cancel of int  (* alarm idx, abs ns *)

let gen_ops ~alarms ~nops =
  let open QCheck2.Gen in
  let boundaryish =
    oneof
      [
        int_range 0 300;
        (let* k = int_range 0 4 in
         let* off = int_range (-2) 2 in
         return ((1 lsl (16 + (8 * k))) + off));
        int_range 0 (1 lsl 26);
        int_range 0 (1 lsl 34);
        oneofl [ 1_000; 65_536; 16_777_216; 16_777_216 ];
      ]
  in
  let op =
    let* i = int_range 0 (alarms - 1) in
    oneof
      [ (let* at = boundaryish in
         return (Arm (i, at)));
        return (Cancel i);
      ]
  in
  let* rearm =
    array_repeat alarms (opt (int_range 0 (1 lsl 25)))
  in
  let* ops = list_repeat nops op in
  return (rearm, ops)

(* Run the same alarm script against the wheel and against per-alarm
   simulator events; the (alarm, fire-time) logs must be identical —
   same times, same order, including same-deadline tie-breaks and alarms
   re-arming themselves from inside their own callbacks. *)
let wheel_parity =
  qtest ~count:200 "wheel parity vs per-alarm Sim events"
    (gen_ops ~alarms:10 ~nops:40)
    (fun (rearm, ops) ->
      let n = Array.length rearm in
      let split = List.length ops / 2 in
      let batch1 = List.filteri (fun i _ -> i < split) ops in
      let batch2 = List.filteri (fun i _ -> i >= split) ops in
      let mid = Int64.of_int (1 lsl 20) in
      (* wheel side *)
      let log_w = ref [] in
      let sim_w = Sim.create () in
      let w = TW.create sim_w in
      let alarms = Array.init n (fun _ -> TW.alarm ignore) in
      let rearmed = Array.make n false in
      Array.iteri
        (fun i a ->
          TW.set_fire a (fun () ->
              log_w := (i, Sim.now sim_w) :: !log_w;
              match rearm.(i) with
              | Some d when not rearmed.(i) ->
                rearmed.(i) <- true;
                TW.arm_delay w a ~delay:(Int64.of_int d)
              | _ -> ()))
        alarms;
      let apply_w op =
        match op with
        | Arm (i, at) -> TW.arm w alarms.(i) ~at:(Int64.of_int at)
        | Cancel i -> TW.cancel w alarms.(i)
      in
      List.iter apply_w batch1;
      ignore (Sim.schedule_at sim_w ~at:mid (fun () -> List.iter apply_w batch2));
      ignore (Sim.run sim_w);
      (* reference side *)
      let log_r = ref [] in
      let sim_r = Sim.create () in
      let refs = Array.init n (fun _ -> Ref_alarm.make sim_r) in
      let rearmed_r = Array.make n false in
      Array.iteri
        (fun i r ->
          r.Ref_alarm.fire <-
            (fun () ->
              log_r := (i, Sim.now sim_r) :: !log_r;
              match rearm.(i) with
              | Some d when not rearmed_r.(i) ->
                rearmed_r.(i) <- true;
                Ref_alarm.arm r
                  ~at:(Int64.add (Sim.now sim_r) (Int64.of_int d))
              | _ -> ()))
        refs;
      let apply_r op =
        match op with
        | Arm (i, at) -> Ref_alarm.arm refs.(i) ~at:(Int64.of_int at)
        | Cancel i -> Ref_alarm.cancel refs.(i)
      in
      List.iter apply_r batch1;
      ignore (Sim.schedule_at sim_r ~at:mid (fun () -> List.iter apply_r batch2));
      ignore (Sim.run sim_r);
      List.rev !log_w = List.rev !log_r)

let test_cascade_boundaries () =
  let sim = Sim.create () in
  let w = TW.create sim in
  let max_span = 1 lsl 56 in
  let deadlines =
    [ 1; 2; 100;
      65_535; 65_536; 65_537;                       (* 2^16 edge *)
      (1 lsl 24) - 1; 1 lsl 24; (1 lsl 24) + 1;     (* 2^24 edge *)
      (1 lsl 32) - 1; 1 lsl 32; (1 lsl 32) + 1;     (* 2^32 edge *)
      (1 lsl 40) - 1; 1 lsl 40; (1 lsl 40) + 1;     (* 2^40 edge *)
      (1 lsl 48) + 17;                              (* far *)
      max_span - 1; max_span; max_span + 123_456;   (* past 2^56 *)
    ]
  in
  let fired = ref [] in
  List.iter
    (fun d ->
      let a = TW.alarm ignore in
      TW.set_fire a (fun () -> fired := (d, Sim.now sim) :: !fired);
      TW.arm w a ~at:(Int64.of_int d))
    deadlines;
  ignore (Sim.run sim);
  let fired = List.rev !fired in
  check Alcotest.int "every alarm fired" (List.length deadlines)
    (List.length fired);
  List.iter
    (fun (d, at) ->
      check Alcotest.int (Printf.sprintf "alarm %d fired exactly on time" d) d
        (Int64.to_int at))
    fired;
  let times = List.map snd fired in
  check Alcotest.bool "fire times monotonic" true
    (List.sort Int64.compare times = times)

let test_same_deadline_order () =
  let sim = Sim.create () in
  let w = TW.create sim in
  let order = [ 7; 2; 9; 0; 5; 1; 8; 3; 6; 4 ] in
  let fired = ref [] in
  List.iter
    (fun i ->
      let a = TW.alarm ignore in
      TW.set_fire a (fun () -> fired := i :: !fired);
      TW.arm w a ~at:123_456L)
    order;
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.int) "same-deadline alarms fire in arm order"
    order
    (List.rev !fired)

(* An alarm cancelled by an earlier alarm's callback in the same fire
   batch never fires, and the rest of the batch still does. *)
let test_cancel_within_batch () =
  let sim = Sim.create () in
  let w = TW.create sim in
  let fired = ref [] in
  let mk i = TW.alarm (fun () -> fired := i :: !fired) in
  let b = mk 1 and c = mk 2 in
  let a =
    TW.alarm (fun () ->
        fired := 0 :: !fired;
        TW.cancel w b)
  in
  List.iter (fun x -> TW.arm w x ~at:5_000L) [ a; b; c ];
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.int) "b cancelled by a's callback" [ 0; 2 ]
    (List.rev !fired);
  check Alcotest.bool "b disarmed" false (TW.is_armed b);
  check Alcotest.int "fires" 2 (TW.counters w).TW.fires

(* Alarms armed for one instant share the first driver scheduled for it,
   so an event scheduled between two such arms runs after both: A, B, E.
   Per-alarm simulator events would give A, E, B and move every
   fingerprint. *)
let test_one_driver_per_instant () =
  let sim = Sim.create () in
  let w = TW.create sim in
  let order = ref [] in
  let note s () = order := s :: !order in
  let a = TW.alarm (note "A") and b = TW.alarm (note "B") in
  TW.arm w a ~at:7_000L;
  ignore (Sim.schedule_at sim ~at:7_000L (note "E"));
  TW.arm w b ~at:7_000L;
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.string) "fire order" [ "A"; "B"; "E" ]
    (List.rev !order);
  check Alcotest.int "drivers" 1 (TW.counters w).TW.drivers

let test_arm_cancel_alloc_free () =
  let sim = Sim.create () in
  let w = TW.create sim in
  (* pin the earliest driver so re-arms never schedule a new one *)
  let pin = TW.alarm ignore in
  TW.arm w pin ~at:1L;
  let n = 128 in
  let alarms = Array.init n (fun _ -> TW.alarm ignore) in
  let deadlines =
    Array.init n (fun i -> Int64.of_int (1_000_000 + (i * 7919)))
  in
  Array.iteri (fun i a -> TW.arm w a ~at:deadlines.(i)) alarms;
  let iters = 20_000 in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for k = 0 to iters - 1 do
    let i = k mod n in
    TW.arm w alarms.(i) ~at:deadlines.(i);
    if k land 7 = 0 then begin
      TW.cancel w alarms.(i);
      TW.arm w alarms.(i) ~at:deadlines.(i)
    end
  done;
  let per_op = (Gc.minor_words () -. w0) /. float_of_int iters in
  check Alcotest.bool
    (Printf.sprintf "arm/cancel allocation-free (%.4f minor words/op)" per_op)
    true (per_op < 0.01)

let test_shared_wheel_per_sim () =
  let s1 = Sim.create () and s2 = Sim.create () in
  check Alcotest.bool "same sim, same wheel" true
    (TW.shared s1 == TW.shared s1);
  check Alcotest.bool "different sim, different wheel" false
    (TW.shared s1 == TW.shared s2)

(* The wheel belongs to its simulator: however many other simulators ask
   for theirs in between, [shared] hands a simulator back the same one. *)
let test_shared_wheel_outlives_others () =
  let s1 = Sim.create () in
  let w = TW.shared s1 in
  for _ = 1 to 16 do ignore (TW.shared (Sim.create ())) done;
  check Alcotest.bool "same wheel after 16 other simulators" true
    (TW.shared s1 == w)

(* Nor does anything outlive a simulation: once a finished transfer is
   dropped, its simulator (and the wheel, endpoints and connections it
   reaches) is collected. *)
let[@inline never] finished_transfer (weak : Sim.t Weak.t) =
  let topo =
    Topology.single_path ~seed:3L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  Weak.set weak 0 (Some topo.Topology.sim);
  Option.is_some (Exp.Runner.quic_transfer ~topo ~size:20_000 ())

let test_dropped_simulation_collected () =
  let weak = Weak.create 1 in
  check Alcotest.bool "transfer completes" true (finished_transfer weak);
  Gc.full_major ();
  check Alcotest.bool "simulator collected" false (Weak.check weak 0)

(* ------------------------------------------------------------------ *)
(* Connection table                                                     *)
(* ------------------------------------------------------------------ *)

let gen_table_ops =
  let open QCheck2.Gen in
  let op =
    let* k = int_range 0 40 in
    oneof
      [ (let* v = int_range 0 1000 in
         return (`Add (k, v)));
        return (`Remove k);
      ]
  in
  list_size (int_range 0 300) op

let table_model =
  qtest ~count:300 "conn_table behaves like a hashtable"
    gen_table_ops
    (fun ops ->
      let t = Table.create ~initial:4 () in
      let m = Hashtbl.create 16 in
      let key k = Table.key_of_cid (Int64.of_int (k * 7_777_777)) in
      List.iter
        (fun op ->
          match op with
          | `Add (k, v) ->
            Table.add t (key k) v;
            Hashtbl.replace m k v
          | `Remove k ->
            Table.remove t (key k);
            Hashtbl.remove m k)
        ops;
      let ok = ref (Table.length t = Hashtbl.length m) in
      for k = 0 to 40 do
        if Table.find t (key k) <> Hashtbl.find_opt m k then ok := false
      done;
      !ok)

let test_find_sub_in_place () =
  let t = Table.create () in
  let cid i = Int64.of_int ((i * 1_000_003) + 7) in
  for i = 0 to 99 do
    Table.add t (Table.key_of_cid (cid i)) i
  done;
  for i = 0 to 99 do
    (* a wire image: flags byte, 8 CID bytes, trailing junk *)
    let b = Bytes.make 32 '\x00' in
    Bytes.set b 0 '\x40';
    Bytes.set_int64_be b 1 (cid i);
    let wire = Bytes.to_string b in
    check (Alcotest.option Alcotest.int)
      (Printf.sprintf "find_sub routes cid %d" i)
      (Some i)
      (Table.find_sub t wire 1 8)
  done;
  let b = Bytes.make 32 '\x00' in
  Bytes.set_int64_be b 1 0xdead_beefL;
  check (Alcotest.option Alcotest.int) "unknown cid misses" None
    (Table.find_sub t (Bytes.to_string b) 1 8);
  for i = 0 to 49 do
    Table.remove t (Table.key_of_cid (cid i))
  done;
  let live, _, _ = Table.stats t in
  check Alcotest.int "stats live after removals" 50 live

(* ------------------------------------------------------------------ *)
(* Global plugin cache                                                  *)
(* ------------------------------------------------------------------ *)

(* Two endpoints on the same node injecting the same plugin: the second
   endpoint's instance build compiles nothing — every pluglet comes out
   of the process-global verified/jitted program cache. *)
let test_one_compile_across_endpoints () =
  let plugin = Plugins.Monitoring.plugin in
  let np = List.length plugin.Pluginop.Plugin.pluglets in
  let sim = Sim.create () in
  let net = Net.create sim in
  let node = Pquic.Node.create () in
  let ep1 = Pquic.Endpoint.create ~node ~sim ~net ~addr:1 ~seed:1L () in
  let ep2 = Pquic.Endpoint.create ~node ~sim ~net ~addr:2 ~seed:2L () in
  Pquic.Endpoint.add_plugin ep1 plugin;
  check Alcotest.bool "plugin visible node-wide" true
    (Pquic.Endpoint.has_plugin ep2 Plugins.Monitoring.name);
  let c0 = Pluginop.Pre.cache_counters () in
  let i1 = Pquic.Endpoint.acquire_instance ep1 Plugins.Monitoring.name in
  let c1 = Pluginop.Pre.cache_counters () in
  let i2 = Pquic.Endpoint.acquire_instance ep2 Plugins.Monitoring.name in
  let c2 = Pluginop.Pre.cache_counters () in
  check Alcotest.bool "both endpoints got instances" true
    (i1 <> None && i2 <> None);
  check Alcotest.bool "first build compiles at most once per pluglet" true
    (c1.Pluginop.Pre.misses - c0.Pluginop.Pre.misses <= np);
  check Alcotest.int "second endpoint compiles nothing"
    0
    (c2.Pluginop.Pre.misses - c1.Pluginop.Pre.misses);
  check Alcotest.bool "second build served from the global cache" true
    (c2.Pluginop.Pre.hits - c1.Pluginop.Pre.hits >= np)

(* A client and a server endpoint over a 5 ms link, both listening; the
   client holds [client_plugins], the server nothing unless given. *)
let endpoint_pair ?cfg ?node ?(client_plugins = [ Plugins.Monitoring.plugin ])
    ?(server_plugins = []) () =
  let topo =
    Topology.single_path ~seed:11L
      { Topology.d_ms = 5.; bw_mbps = 50.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ?cfg ~sim ~net ~addr:topo.Topology.server_addr
      ~seed:1L ()
  in
  let client =
    Pquic.Endpoint.create ?cfg ?node ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  List.iter (Pquic.Endpoint.add_plugin client) client_plugins;
  List.iter (Pquic.Endpoint.add_plugin server) server_plugins;
  let connect ?(plugins = [ Plugins.Monitoring.name ]) on_established =
    let c =
      Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
        ~plugins_to_inject:plugins
    in
    c.Pquic.Connection.on_established <- (fun () -> on_established c);
    c
  in
  let run () =
    ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_sec 30.)) sim)
  in
  (client, server, connect, run)

let is_closed c =
  match Pquic.Connection.state c with Pquic.Connection.Closed -> true | _ -> false

let is_failed c =
  match Pquic.Connection.state c with
  | Pquic.Connection.Failed _ -> true
  | _ -> false

let close c = Pquic.Connection.close c ~reason:"done"

(* Close a plugin-bearing connection, open a fresh one injecting the same
   plugin: no recompilation (global cache) and the node recycles the
   wiped instance (node-scope cache hit). *)
let test_cache_survives_close () =
  let client, _, connect, run = endpoint_pair () in
  let connect_and_close () =
    let c = connect close in
    run ();
    check Alcotest.bool "connection closed" true (is_closed c)
  in
  connect_and_close ();
  let pre_before = Pluginop.Pre.cache_counters () in
  let node_hits_before = Pquic.Endpoint.cache_hits client in
  connect_and_close ();
  let pre_after = Pluginop.Pre.cache_counters () in
  check Alcotest.int "no recompilation after connection close" 0
    (pre_after.Pluginop.Pre.misses - pre_before.Pluginop.Pre.misses);
  check Alcotest.bool "node recycled the closed connection's instance" true
    (Pquic.Endpoint.cache_hits client > node_hits_before)

(* A closed connection leaves its endpoint: once both ends of a
   connection with two spare CIDs each are closed, neither endpoint
   routes any of their CIDs, so [connection_count] reads 0 on both. *)
let test_closed_connections_unrouted () =
  let cfg = { Pquic.Connection.default_config with cid_pool = 2 } in
  let client, server, connect, run = endpoint_pair ~cfg () in
  let accepted = ref None in
  server.Pquic.Endpoint.on_connection <- (fun c -> accepted := Some c);
  let c = connect close in
  run ();
  check Alcotest.bool "client connection closed" true (is_closed c);
  check Alcotest.bool "server connection closed" true
    (match !accepted with Some s -> is_closed s | None -> false);
  check Alcotest.int "spare CIDs issued" 3 (List.length c.Pquic.Connection.local_cids);
  check Alcotest.int "client endpoint forgot it" 0
    (Pquic.Endpoint.connection_count client);
  check Alcotest.int "server endpoint forgot it" 0
    (Pquic.Endpoint.connection_count server)

(* A connection that fails during its closing period stays failed when
   the period ends: the application never hears [on_closed], and its
   instances do not go back to the node, so the next connection's
   acquire misses. *)
let test_failed_while_closing () =
  let client, _, connect, run = endpoint_pair () in
  let closed = ref 0 in
  let c =
    connect (fun c ->
        close c;
        Pquic.Connection.fail_connection c "failed while closing")
  in
  c.Pquic.Connection.on_closed <- (fun () -> incr closed);
  run ();
  check Alcotest.bool "still failed after the closing period" true (is_failed c);
  check Alcotest.int "on_closed never fired" 0 !closed;
  let hits = Pquic.Endpoint.cache_hits client in
  let misses = Pquic.Endpoint.cache_misses client in
  ignore (connect ignore);
  check Alcotest.int "next acquire is no hit" hits
    (Pquic.Endpoint.cache_hits client);
  check Alcotest.int "next acquire builds" (misses + 1)
    (Pquic.Endpoint.cache_misses client)

(* ------------------------------------------------------------------ *)
(* Server engine front-end                                              *)
(* ------------------------------------------------------------------ *)

let scid_of i = Int64.add 0x5_0000_0000L (Int64.of_int i)
let dcid_of i = Int64.add 0x6_0000_0000L (Int64.of_int i)

let client_hello () =
  let blob = TP.encode TP.default in
  let buf = Buffer.create (String.length blob + 2) in
  Buffer.add_uint16_be buf (String.length blob);
  Buffer.add_string buf blob;
  F.to_string (F.Crypto { offset = 0L; data = Buffer.contents buf })

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
      payload = client_hello ();
    }

let forge_heartbeat i ~pn =
  P.protect
    ~key:(P.derive_key ~client_cid:(scid_of i) ~server_cid:(dcid_of i))
    {
      P.header =
        { P.ptype = P.One_rtt; spin = false; dcid = dcid_of i; scid = 0L; pn };
      payload =
        F.to_string (F.Ack { F.largest = 3L; delay_us = 0L; ranges = [ (0L, 3L) ] });
    }

let test_server_accept_and_route () =
  let sim = Sim.create () in
  let net = Net.create sim in
  Net.add_route net ~src:2 ~dst:1 [];
  Net.add_fallback_route net ~src:1 [];
  let replies = ref 0 in
  Net.attach net 2 (fun _ -> incr replies);
  let srv = Pquic.Server.create ~shards:4 ~sim ~net ~addr:1 ~seed:3L () in
  Pquic.Server.listen srv;
  let n = 50 in
  for i = 0 to n - 1 do
    Net.send net
      {
        Net.src = 2;
        dst = 1;
        size = 64;
        payload = Pquic.Connection.Quic_packet (forge_initial i);
      }
  done;
  ignore (Sim.run ~until:(Sim.now sim) sim);
  check Alcotest.int "every initial accepted" n (Pquic.Server.accepted srv);
  check Alcotest.int "one connection per initial" n
    (Pquic.Server.connection_count srv);
  check Alcotest.bool "server answered the handshakes" true (!replies >= n);
  (* routed traffic goes through the shards, not the accept path *)
  for i = 0 to n - 1 do
    Net.send net
      {
        Net.src = 2;
        dst = 1;
        size = 32;
        payload = Pquic.Connection.Quic_packet (forge_heartbeat i ~pn:1L);
      }
  done;
  ignore (Sim.run ~until:(Sim.now sim) sim);
  let st = Pquic.Server.stats srv in
  check Alcotest.int "heartbeats routed by CID" n st.Pquic.Server.routed;
  check Alcotest.int "every routed datagram dispatched by a shard" n
    st.Pquic.Server.dispatched;
  check Alcotest.int "no spurious connections" n st.Pquic.Server.accepted;
  (* garbage to an unknown CID must not conjure connections *)
  let junk = forge_heartbeat 9_999 ~pn:1L in
  Net.send net
    { Net.src = 2; dst = 1; size = 32;
      payload = Pquic.Connection.Quic_packet junk };
  let broken = Bytes.of_string (forge_initial 9_999) in
  Bytes.set broken (Bytes.length broken - 1) '\xff';
  Net.send net
    { Net.src = 2; dst = 1; size = 64;
      payload = Pquic.Connection.Quic_packet (Bytes.to_string broken) };
  (* and one bit flipped in the payload the tag covers *)
  let broken = Bytes.of_string (forge_initial 9_999) in
  let pos = Bytes.length broken - P.tag_len - 1 in
  Bytes.set broken pos (Char.chr (Char.code (Bytes.get broken pos) lxor 1));
  Net.send net
    { Net.src = 2; dst = 1; size = 64;
      payload = Pquic.Connection.Quic_packet (Bytes.to_string broken) };
  ignore (Sim.run ~until:(Sim.now sim) sim);
  check Alcotest.int "unknown/unauthenticated packets accepted nothing" n
    (Pquic.Server.accepted srv)

(* ------------------------------------------------------------------ *)
(* The owner record: how a connection reaches its endpoint              *)
(* ------------------------------------------------------------------ *)

(* A closed connection hands back each instance it acquired exactly once
   — the one negotiation rolled back (the server lacks Datagram)
   included — and a failed one hands back none. *)
let test_closed_returns_instances () =
  let node = Pquic.Node.create () in
  let _, _, connect, run =
    endpoint_pair ~node
      ~client_plugins:[ Plugins.Monitoring.plugin; Plugins.Datagram.plugin ]
      ~server_plugins:[ Plugins.Monitoring.plugin ] ()
  in
  let plugins = [ Plugins.Monitoring.name; Plugins.Datagram.name ] in
  let c = connect ~plugins close in
  let acquired = c.Pquic.Connection.acquired in
  check Alcotest.int "one instance per plugin" 2 (List.length acquired);
  check Alcotest.(list string) "both attached" (List.sort compare plugins)
    (List.sort compare (Pquic.Connection.plugin_names c));
  run ();
  check Alcotest.bool "closed" true (is_closed c);
  check Alcotest.(list string) "datagram rolled back at negotiation"
    [ Plugins.Monitoring.name ] (Pquic.Connection.plugin_names c);
  let cached name =
    match Hashtbl.find_opt node.Pquic.Node.instances name with
    | Some q -> List.of_seq (Queue.to_seq q)
    | None -> []
  in
  List.iter
    (fun (inst : Pquic.Connection.instance) ->
      let name = inst.plugin.Pluginop.Plugin.name in
      check Alcotest.int (name ^ " returned once") 1
        (List.length (List.filter (( == ) inst) (cached name))))
    acquired;
  check Alcotest.int "nothing else returned" 2
    (Pquic.Node.counters node).Pquic.Node.cached;
  check Alcotest.int "the connection keeps none" 0
    (List.length c.Pquic.Connection.acquired);
  let failed =
    connect ~plugins (fun c -> Pquic.Connection.fail_connection c "failed")
  in
  check Alcotest.int "the failed connection took both" 0
    (Pquic.Node.counters node).Pquic.Node.cached;
  run ();
  check Alcotest.bool "failed" true (is_failed failed);
  check Alcotest.int "a failed connection returns none" 0
    (Pquic.Node.counters node).Pquic.Node.cached

(* A bound acquire costs the same however many pluginized connections
   are live: minor words per acquire at 4,000 live connections stay
   within 1.5x the figure at 1,000. *)
let test_acquire_cost_flat () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let cfg = { Pquic.Connection.default_config with Pquic.Connection.lean = true } in
  let ep = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:1 ~seed:5L () in
  Pquic.Endpoint.add_plugin ep Plugins.Monitoring.plugin;
  let name = Plugins.Monitoring.name in
  let live = ref 0 and last = ref None in
  let words_per_acquire_at n =
    while !live < n do
      last :=
        Some
          (Pquic.Endpoint.connect ep ~remote_addr:2 ~plugins_to_inject:[ name ]);
      incr live
    done;
    let c = Option.get !last in
    let k = 20 in
    let before = List.length c.Pquic.Connection.acquired in
    let w0 = Gc.minor_words () in
    for _ = 1 to k do
      ignore (c.Pquic.Connection.owner.acquire_instance c name)
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int k in
    check Alcotest.int "every acquire bound to the connection" (before + k)
      (List.length c.Pquic.Connection.acquired);
    words
  in
  let at_1k = words_per_acquire_at 1_000 in
  let at_4k = words_per_acquire_at 4_000 in
  if at_4k > 1.5 *. at_1k then
    Alcotest.failf "bound acquire: %.0f words at 1,000 live, %.0f at 4,000"
      at_1k at_4k

let lcg x = Int64.add (Int64.mul x 6364136223846793005L) 1442695040888963407L

(* Without an endpoint, the k-th spare CID is k LCG steps from the
   handshake CID. *)
let test_standalone_cids () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let cid0 = dcid_of 0 in
  let c =
    Pquic.Connection.create ~owner:Pquic.Connection.standalone ~sim ~net
      ~cfg:{ Pquic.Connection.default_config with cid_pool = 4 }
      ~role:Pquic.Connection.Server ~local_addr:1 ~remote_addr:2
      ~local_cid:cid0 ~remote_cid:(scid_of 0)
      ~local_params:TP.default ()
  in
  let wire = forge_initial 0 in
  Pquic.Connection.receive_datagram c
    { Net.src = 2; dst = 1; size = String.length wire;
      payload = Pquic.Connection.Quic_packet wire };
  check Alcotest.bool "established" true
    (Pquic.Connection.state c = Pquic.Connection.Established);
  let l1 = lcg cid0 in
  let l2 = lcg l1 in
  let l3 = lcg l2 in
  let l4 = lcg l3 in
  check
    Alcotest.(list (pair int64 int64))
    "four LCG steps" [ (4L, l4); (3L, l3); (2L, l2); (1L, l1); (0L, cid0) ]
    c.Pquic.Connection.local_cids

let tests =
  [
    ( "wheel",
      [
        wheel_parity;
        Alcotest.test_case "cascade at level boundaries" `Quick
          test_cascade_boundaries;
        Alcotest.test_case "same-deadline arm order" `Quick
          test_same_deadline_order;
        Alcotest.test_case "cancel within a fire batch" `Quick
          test_cancel_within_batch;
        Alcotest.test_case "one driver per instant" `Quick
          test_one_driver_per_instant;
        Alcotest.test_case "arm/cancel allocation-free" `Quick
          test_arm_cancel_alloc_free;
        Alcotest.test_case "one shared wheel per sim" `Quick
          test_shared_wheel_per_sim;
        Alcotest.test_case "wheel outlives other simulators" `Quick
          test_shared_wheel_outlives_others;
        Alcotest.test_case "dropped simulation collected" `Quick
          test_dropped_simulation_collected;
      ] );
    ( "conn_table",
      [
        table_model;
        Alcotest.test_case "find_sub routes in place" `Quick
          test_find_sub_in_place;
      ] );
    ( "plugin_cache",
      [
        Alcotest.test_case "one compile across endpoints" `Quick
          test_one_compile_across_endpoints;
        Alcotest.test_case "cache survives connection close" `Quick
          test_cache_survives_close;
        Alcotest.test_case "closed connections leave the endpoint" `Quick
          test_closed_connections_unrouted;
        Alcotest.test_case "failed while closing stays failed" `Quick
          test_failed_while_closing;
      ] );
    ( "owner",
      [
        Alcotest.test_case "closed returns its instances once" `Quick
          test_closed_returns_instances;
        Alcotest.test_case "acquire cost flat in live connections" `Quick
          test_acquire_cost_flat;
        Alcotest.test_case "standalone spare CIDs" `Quick test_standalone_cids;
      ] );
    ( "server",
      [
        Alcotest.test_case "accept, route, shard" `Quick
          test_server_accept_and_route;
      ] );
  ]
