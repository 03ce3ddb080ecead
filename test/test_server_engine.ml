(* Server-engine subsystems: the hierarchical timer wheel (parity with
   plain simulator alarms, cascade boundaries, fire order, allocation
   freedom), the full-CID connection table, the node-scope / global
   plugin caches, and the sharded server front-end. *)

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
      65_535; 65_536; 65_537;                       (* level 0/1 tick edge *)
      (1 lsl 24) - 1; 1 lsl 24; (1 lsl 24) + 1;     (* level 1 boundary *)
      (1 lsl 32) - 1; 1 lsl 32; (1 lsl 32) + 1;     (* level 2 boundary *)
      (1 lsl 40) - 1; 1 lsl 40; (1 lsl 40) + 1;     (* level 3 boundary *)
      (1 lsl 48) + 17;                              (* level 4 *)
      max_span - 1; max_span; max_span + 123_456;   (* beyond the horizon *)
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
  let np = List.length plugin.Pquic.Plugin.pluglets in
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

(* Close a plugin-bearing connection, open a fresh one injecting the same
   plugin: no recompilation (global cache) and the node recycles the
   wiped instance (node-scope cache hit). *)
let test_cache_survives_close () =
  let topo =
    Topology.single_path ~seed:11L
      { Topology.d_ms = 5.; bw_mbps = 50.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L ()
  in
  let client =
    Pquic.Endpoint.create ~sim ~net
      ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  Pquic.Endpoint.add_plugin client Plugins.Monitoring.plugin;
  let connect_and_close () =
    let c =
      Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
        ~plugins_to_inject:[ Plugins.Monitoring.name ]
    in
    c.Pquic.Connection.on_established <-
      (fun () -> Pquic.Connection.close c ~reason:"done");
    ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_sec 30.)) sim);
    check Alcotest.bool "connection closed" true
      (match Pquic.Connection.state c with
      | Pquic.Connection.Closed -> true
      | _ -> false)
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
  ignore (Sim.run ~until:(Sim.now sim) sim);
  check Alcotest.int "unknown/unauthenticated packets accepted nothing" n
    (Pquic.Server.accepted srv)

let tests =
  [
    ( "wheel",
      [
        wheel_parity;
        Alcotest.test_case "cascade at level boundaries" `Quick
          test_cascade_boundaries;
        Alcotest.test_case "same-deadline arm order" `Quick
          test_same_deadline_order;
        Alcotest.test_case "arm/cancel allocation-free" `Quick
          test_arm_cancel_alloc_free;
        Alcotest.test_case "one shared wheel per sim" `Quick
          test_shared_wheel_per_sim;
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
      ] );
    ( "server",
      [
        Alcotest.test_case "accept, route, shard" `Quick
          test_server_accept_and_route;
      ] );
  ]
