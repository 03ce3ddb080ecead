(* PQUIC core tests: the memory pool, the frame scheduler, protocol
   operation dispatch (anchors, loop detection, misbehaviour sanctions),
   plugin injection/rollback, end-to-end transfers under loss and the
   PRE cache semantics. *)

module Topology = Netsim.Topology
module Sim = Netsim.Sim

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --------------------------- memory pool ------------------------------ *)

let pool_no_overlap =
  qtest ~count:200 "pool allocations never overlap"
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 2000))
    (fun sizes ->
      let pool = Pluginop.Memory_pool.create ~size:(256 * 1024) () in
      let allocs =
        List.filter_map
          (fun size ->
            Option.map (fun off -> (off, size)) (Pluginop.Memory_pool.alloc pool size))
          sizes
      in
      let disjoint (o1, s1) (o2, s2) = o1 + s1 <= o2 || o2 + s2 <= o1 in
      List.for_all
        (fun a -> List.for_all (fun b -> a == b || disjoint a b) allocs)
        allocs)

let pool_free_reuse =
  qtest ~count:100 "freed blocks are reusable"
    QCheck2.Gen.(int_range 1 4000)
    (fun size ->
      let pool = Pluginop.Memory_pool.create ~size:8192 () in
      match Pluginop.Memory_pool.alloc pool size with
      | None -> size > 8192
      | Some off ->
        Pluginop.Memory_pool.free pool off
        &&
        (* after freeing everything, the same allocation succeeds again *)
        Pluginop.Memory_pool.alloc pool size <> None)

(* The pool's backing grows on demand; a reference pool full size from
   the start ([Pool_ref]) must agree on every offset, every exhaustion,
   the allocated byte count and the contents, while the backing stays
   within the capacity, covers every live allocation, and drops back to
   its initial size, zeroed, on reset. *)
type pool_op = Alloc of int * char | Free of int | Free_at of int | Reset

let pool_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map2 (fun n c -> Alloc (n, c)) (int_range 1 600) printable);
        (3, map2 (fun n c -> Alloc (n, c)) (int_range 601 9000) printable);
        (2, map2 (fun n c -> Alloc (n, c)) (int_range 9001 70000) printable);
        (4, map (fun k -> Free k) nat);
        (1, map (fun off -> Free_at off) (int_range 0 300_000));
        (1, return Reset);
      ])

let pool_model =
  let module MP = Pluginop.Memory_pool in
  qtest ~count:200 "lazily grown pool matches a full-size pool"
    QCheck2.Gen.(list_size (int_range 1 40) pool_op_gen)
    (fun ops ->
      let cap = 256 * 1024 in
      let pool = MP.create ~size:cap () and model = Pool_ref.create ~size:cap () in
      let initial = Bytes.length (MP.area pool) in
      let live = ref [] in
      let zero b = Bytes.for_all (fun c -> c = '\000') b in
      let contents_agree () =
        let backing = MP.area pool and full = Pool_ref.area model in
        let len = Bytes.length backing in
        Bytes.equal backing (Bytes.sub full 0 len)
        && zero (Bytes.sub full len (Bytes.length full - len))
      in
      let step op =
        (match op with
        | Alloc (n, c) -> (
          let got = MP.alloc pool n and want = Pool_ref.alloc model n in
          if got <> want then QCheck2.Test.fail_reportf "alloc %d: offsets differ" n;
          match got with
          | Some off ->
            Bytes.fill (MP.area pool) off n c;
            Bytes.fill (Pool_ref.area model) off n c;
            live := (off, n) :: !live
          | None -> ())
        | Free k when !live <> [] ->
          let off, _ = List.nth !live (k mod List.length !live) in
          if MP.free pool off <> Pool_ref.free model off then
            QCheck2.Test.fail_reportf "free %d: results differ" off;
          live := List.filter (fun (o, _) -> o <> off) !live
        | Free _ -> ()
        | Free_at off ->
          if MP.free pool off <> Pool_ref.free model off then
            QCheck2.Test.fail_reportf "free at %d: results differ" off;
          live := List.filter (fun (o, _) -> o <> off) !live
        | Reset ->
          if not (contents_agree ()) then
            QCheck2.Test.fail_report "contents differ before reset";
          MP.reset pool;
          Pool_ref.reset model;
          live := [];
          if Bytes.length (MP.area pool) <> initial || not (zero (MP.area pool))
          then QCheck2.Test.fail_report "reset: backing not back to initial, zeroed");
        let len = Bytes.length (MP.area pool) in
        MP.allocated_bytes pool = Pool_ref.allocated_bytes model
        && len <= MP.size pool
        && List.for_all (fun (off, n) -> off + n <= len) !live
      in
      List.for_all step ops && contents_agree ())

let test_pool_exhaustion () =
  let pool = Pluginop.Memory_pool.create ~size:1024 () in
  (match Pluginop.Memory_pool.alloc pool 2048 with
  | None -> ()
  | Some _ -> Alcotest.fail "oversized allocation succeeded");
  let a = Pluginop.Memory_pool.alloc pool 512 in
  let b = Pluginop.Memory_pool.alloc pool 512 in
  let c = Pluginop.Memory_pool.alloc pool 64 in
  check Alcotest.bool "pool fills up" true (a <> None && b <> None && c = None)

let test_pool_double_free () =
  let pool = Pluginop.Memory_pool.create ~size:1024 () in
  match Pluginop.Memory_pool.alloc pool 100 with
  | None -> Alcotest.fail "alloc failed"
  | Some off ->
    check Alcotest.bool "first free ok" true (Pluginop.Memory_pool.free pool off);
    check Alcotest.bool "double free rejected" false (Pluginop.Memory_pool.free pool off);
    check Alcotest.bool "interior free rejected" false
      (Pluginop.Memory_pool.free pool (off + 64))

let test_pool_reset_wipes () =
  let pool = Pluginop.Memory_pool.create ~size:1024 () in
  (match Pluginop.Memory_pool.alloc pool 100 with
  | Some off -> Bytes.set (Pluginop.Memory_pool.area pool) off 'S'
  | None -> Alcotest.fail "alloc failed");
  Pluginop.Memory_pool.reset pool;
  check Alcotest.char "contents wiped" '\000' (Bytes.get (Pluginop.Memory_pool.area pool) 0);
  check Alcotest.int "allocation state cleared" 0
    (Pluginop.Memory_pool.allocated_bytes pool)

(* ---------------------------- scheduler ------------------------------- *)

let reservation ?(size = 100) ?(plugin = "p") ?(ae = true) cookie =
  { Pquic.Scheduler.ftype = 0x30; size; retransmittable = false;
    ack_eliciting = ae; cookie = Int64.of_int cookie; plugin }

let test_scheduler_fifo_per_plugin () =
  let s = Pquic.Scheduler.create () in
  List.iter (fun k -> Pquic.Scheduler.reserve s (reservation k)) [ 1; 2; 3 ];
  let taken = Pquic.Scheduler.take s ~budget:1000 in
  check (Alcotest.list Alcotest.int) "fifo order" [ 1; 2; 3 ]
    (List.map (fun r -> Int64.to_int r.Pquic.Scheduler.cookie) taken)

let test_scheduler_drr_fairness () =
  let s = Pquic.Scheduler.create () in
  (* plugin a floods; plugin b reserves a little: b must not starve *)
  for k = 0 to 19 do
    Pquic.Scheduler.reserve s (reservation ~plugin:"a" ~size:500 k)
  done;
  Pquic.Scheduler.reserve s (reservation ~plugin:"b" ~size:500 100);
  let rec drain acc n =
    if n = 0 then acc
    else
      let taken = Pquic.Scheduler.take s ~budget:1200 in
      drain (acc @ taken) (n - 1)
  in
  let taken = drain [] 4 in
  check Alcotest.bool "plugin b served within the first rounds" true
    (List.exists (fun r -> r.Pquic.Scheduler.plugin = "b") taken)

let test_scheduler_oversize_dropped () =
  let s = Pquic.Scheduler.create () in
  Pquic.Scheduler.reserve s (reservation ~size:5000 1);
  Pquic.Scheduler.reserve s (reservation ~size:100 2);
  let taken = Pquic.Scheduler.take s ~max_frame:1400 ~budget:1200 in
  check (Alcotest.list Alcotest.int) "oversize dropped, next served" [ 2 ]
    (List.map (fun r -> Int64.to_int r.Pquic.Scheduler.cookie) taken)

(* The reservation count the sender reads several times per packet is
   kept by [reserve], [take] and [drop_plugin]: random sequences of the
   three across plugins, with reservations larger than a packet and
   budgets that stop mid-round, must keep [pending] equal to the
   reference's fold over its queues, and take the same frames. *)
type sched_op = Reserve of int * int | Take of int * int | Drop of int

let scheduler_counts_reservations =
  let plugins = [| "a"; "b"; "c" |] in
  let op =
    QCheck2.Gen.(
      frequency
        [ (6, map2 (fun p size -> Reserve (p, size)) (int_range 0 2)
                (oneof [ int_range 1 700; int_range 1300 2600 ]));
          (3, map2 (fun budget max_frame -> Take (budget, max_frame))
                (int_range 0 3000) (oneofl [ 600; 1400 ]));
          (1, map (fun p -> Drop p) (int_range 0 2)) ])
  in
  qtest ~count:300 "pending counts as a fold over the queues"
    QCheck2.Gen.(list_size (int_range 1 80) op)
    (fun ops ->
      let s = Pquic.Scheduler.create () and m = Scheduler_ref.create () in
      let cookies l = List.map (fun r -> r.Pquic.Scheduler.cookie) l in
      List.iteri
        (fun k op ->
          (match op with
          | Reserve (p, size) ->
            let r = reservation ~plugin:plugins.(p) ~size k in
            Pquic.Scheduler.reserve s r;
            Scheduler_ref.reserve m r
          | Take (budget, max_frame) ->
            let got = Pquic.Scheduler.take s ~max_frame ~budget in
            let want = Scheduler_ref.take m ~max_frame ~budget in
            if cookies got <> cookies want then
              QCheck2.Test.fail_reportf "op %d: take differs" k
          | Drop p ->
            Pquic.Scheduler.drop_plugin s plugins.(p);
            Scheduler_ref.drop_plugin m plugins.(p));
          let want = Scheduler_ref.pending m in
          if Pquic.Scheduler.pending s <> want then
            QCheck2.Test.fail_reportf "op %d: pending %d, fold %d" k
              (Pquic.Scheduler.pending s) want;
          if Pquic.Scheduler.has_pending s <> (want > 0) then
            QCheck2.Test.fail_reportf "op %d: has_pending disagrees" k)
        ops;
      true)

(* The scheduler in the engine: a plugin floods 20,000 full 600 B
   reservations onto the server connection when the GET arrives. Stream
   data shares every packet with the flood, so the 2 MB answer keeps
   arriving in every 50 ms window while the flood is queued, and
   completes. *)
let test_no_starvation_in_engine () =
  let size = 2_000_000 in
  let topo =
    Topology.single_path ~seed:5L
      { Topology.d_ms = 10.; bw_mbps = 100.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let sconn = ref None in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      sconn := Some c;
      (* each flood frame is a PING (type 0x01) whose 599 B body of
         zeros the peer reads as PADDING *)
      Pluginop.Dispatch.register_native c.Pquic.Connection.po
        Pluginop.Protoop.write_frame "flood" (fun _ _ -> 599L);
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then begin
            for k = 1 to 20_000 do
              Pquic.Scheduler.reserve c.Pquic.Connection.sched
                { (reservation ~size:600 ~plugin:"flood" k) with ftype = 0x01 }
            done;
            Pquic.Connection.write_stream c ~id ~fin:true (String.make size 'x')
          end));
  let flooding () =
    match !sconn with
    | Some c -> Pquic.Scheduler.has_pending c.Pquic.Connection.sched
    | None -> false
  in
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let received = ref 0 and finished = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      received := !received + String.length data;
      if fin then finished := true);
  let windows = ref 0 and starved = ref 0 in
  while (not !finished) && Sim.to_sec (Sim.now sim) < 30. do
    let before = !received and flooded = flooding () in
    ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_ms 50.)) sim);
    if flooded && flooding () then begin
      incr windows;
      if !received = before then incr starved
    end
  done;
  check Alcotest.bool "GET completes under the flood" true !finished;
  check Alcotest.int "every byte arrives" size !received;
  check Alcotest.bool "the flood outlasts several windows" true (!windows >= 5);
  check Alcotest.int
    (Printf.sprintf "windows of the flood without stream data (of %d)" !windows)
    0 !starved

(* ------------------------ plugin serialization ------------------------ *)

let plugin_serialize_roundtrip () =
  List.iter
    (fun (p : Pluginop.Plugin.t) ->
      let p' = Pluginop.Plugin.deserialize (Pluginop.Plugin.serialize p) in
      check Alcotest.string "name" p.Pluginop.Plugin.name p'.Pluginop.Plugin.name;
      check Alcotest.int "pluglet count"
        (List.length p.Pluginop.Plugin.pluglets)
        (List.length p'.Pluginop.Plugin.pluglets);
      List.iter2
        (fun (a : Pluginop.Plugin.pluglet) (b : Pluginop.Plugin.pluglet) ->
          check Alcotest.int "op" a.Pluginop.Plugin.op b.Pluginop.Plugin.op;
          check Alcotest.bool "anchor" true (a.Pluginop.Plugin.anchor = b.Pluginop.Plugin.anchor);
          check Alcotest.bool "param" true (a.Pluginop.Plugin.param = b.Pluginop.Plugin.param);
          (* compiled code identical through the roundtrip *)
          let pa, sa = Pluginop.Plugin.compiled a and pb, sb = Pluginop.Plugin.compiled b in
          check Alcotest.bool "bytecode" true (pa = pb);
          check Alcotest.int "stack" sa sb)
        p.Pluginop.Plugin.pluglets p'.Pluginop.Plugin.pluglets;
      (* a second serialization is byte-identical (deterministic bindings) *)
      check Alcotest.string "deterministic" (Pluginop.Plugin.serialize p)
        (Pluginop.Plugin.serialize p'))
    [ Plugins.Monitoring.plugin; Plugins.Datagram.plugin;
      Plugins.Multipath.plugin; Plugins.Fec.rlc_full ]

let test_plugin_malformed () =
  (match Pluginop.Plugin.deserialize "garbage" with
  | exception Pluginop.Plugin.Malformed _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  let truncated =
    String.sub (Pluginop.Plugin.serialize Plugins.Datagram.plugin) 0 20
  in
  match Pluginop.Plugin.deserialize truncated with
  | exception Pluginop.Plugin.Malformed _ -> ()
  | _ -> Alcotest.fail "truncated plugin accepted"

(* -------------------------- live connections --------------------------- *)

let transfer ?(size = 200_000) ?(loss = 0.) ?(plugins = []) ?(to_inject = []) ?(seed = 5L) () =
  let topo =
    Topology.single_path ~seed { Topology.d_ms = 10.; bw_mbps = 20.; loss }
  in
  Exp.Runner.quic_transfer ~plugins ~to_inject ~topo ~size ()

let test_transfer_clean () =
  match transfer () with
  | Some r ->
    check Alcotest.bool "completes quickly" true (r.Exp.Runner.dct < 1.0);
    check Alcotest.int "no losses" 0 r.Exp.Runner.client_stats.Pquic.Connection.pkts_lost
  | None -> Alcotest.fail "transfer failed"

let test_transfer_lossy_delivers_exact_bytes () =
  (* the runner already checks fin delivery; verify content integrity here *)
  let topo =
    Topology.single_path ~seed:9L { Topology.d_ms = 10.; bw_mbps = 10.; loss = 0.05 }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let payload = String.init 100_000 (fun i -> Char.chr (i * 31 mod 256)) in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true payload));
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let received = Buffer.create 100_000 in
  let finished = ref false in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  conn.Pquic.Connection.on_stream_data <-
    (fun _ data ~fin ->
      Buffer.add_string received data;
      if fin then finished := true);
  ignore (Sim.run ~until:(Sim.of_sec 120.) sim);
  check Alcotest.bool "finished" true !finished;
  check Alcotest.bool "bytes identical despite losses" true
    (Buffer.contents received = payload)

let lossy_seeds =
  qtest ~count:12 "transfers survive arbitrary loss patterns"
    QCheck2.Gen.(pair (map Int64.of_int (int_range 1 1_000_000)) (int_range 0 12))
    (fun (seed, loss_pct) ->
      match transfer ~size:60_000 ~loss:(float_of_int loss_pct /. 100.) ~seed () with
      | Some _ -> true
      | None -> false)

let test_handshake_sets_params () =
  match transfer () with
  | Some r -> (
    match Pquic.Connection.peer_params r.Exp.Runner.client_conn with
    | Some tp ->
      check Alcotest.bool "peer max data positive" true
        (tp.Quic.Transport_params.initial_max_data > 0L)
    | None -> Alcotest.fail "no peer params")
  | None -> Alcotest.fail "transfer failed"

(* a plugin whose pluglet reads out of bounds must be removed and the
   connection terminated (Section 2.1) *)
let evil_plugin =
  let open Plc.Ast in
  {
    Pluginop.Plugin.name = "org.test.evil";
    pluglets =
      [
        {
          Pluginop.Plugin.op = Pluginop.Protoop.received_packet;
          param = None;
          anchor = Pluginop.Protoop.Post;
          code =
            Pluginop.Plugin.Source
              {
                name = "evil";
                params = [ "pn"; "path" ];
                body = [ Return (Load (Ebpf.Insn.W64, Const 0xDEAD_0000L)) ];
              };
        };
      ];
  }

let test_memory_violation_kills_connection () =
  match
    transfer ~plugins:[ evil_plugin ] ~to_inject:[ "org.test.evil" ] ()
  with
  | Some _ -> Alcotest.fail "transfer with evil plugin completed"
  | None -> () (* connection was terminated, as required *)

(* a plugin that loops forever is stopped by the instruction budget *)
let spinning_plugin =
  let open Plc.Ast in
  {
    Pluginop.Plugin.name = "org.test.spin";
    pluglets =
      [
        {
          Pluginop.Plugin.op = Pluginop.Protoop.received_packet;
          param = None;
          anchor = Pluginop.Protoop.Post;
          code =
            Pluginop.Plugin.Source
              { name = "spin"; params = []; body = [ While (i 1, []) ] };
        };
      ];
  }

let test_runaway_plugin_stopped () =
  match transfer ~plugins:[ spinning_plugin ] ~to_inject:[ "org.test.spin" ] () with
  | Some _ -> Alcotest.fail "spinning plugin did not kill the connection"
  | None -> ()

(* -------- sanctions on the jit fast path, with accounting ----------- *)

(* A pluglet that behaves for 39 loop iterations and then reads an
   unmapped address: the monitor must deliver the violation from inside
   the jitted loop, the sanction must remove the plugin and
   fail the connection, and [Pre.executed_insns] must still account for
   the work done before the trap. *)
let midloop_evil =
  let open Plc.Ast in
  {
    Pluginop.Plugin.name = "org.test.midloop";
    pluglets =
      [
        {
          Pluginop.Plugin.op = Pluginop.Protoop.received_packet;
          param = None;
          anchor = Pluginop.Protoop.Post;
          code =
            Pluginop.Plugin.Source
              {
                name = "midloop";
                params = [ "pn"; "path" ];
                body =
                  [
                    Let ("x", i 0);
                    While
                      ( v "x" <: i 1000,
                        [
                          Assign ("x", v "x" +: i 1);
                          If
                            ( v "x" =: i 40,
                              [
                                Expr (Load (Ebpf.Insn.W64, Const 0xBEEF_0000_0000L));
                              ],
                              [] );
                        ] );
                    Return (v "x");
                  ];
              };
        };
      ];
  }

let sanction_conn () =
  let topo =
    Topology.single_path ~seed:11L { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  Pquic.Connection.create ~sim:topo.Topology.sim ~net:topo.Topology.net
    ~cfg:Pquic.Connection.default_config ~role:Pquic.Connection.Server
    ~local_addr:topo.Topology.server_addr
    ~remote_addr:(List.hd topo.Topology.client_addrs) ~local_cid:1L
    ~remote_cid:2L ~local_params:Quic.Transport_params.default ()

(* Attach [plugin], fire its protoop once, assert plugin removal and
   connection death; return how many instructions its PREs executed. *)
let run_sanction (plugin : Pluginop.Plugin.t) =
  let name = plugin.Pluginop.Plugin.name in
  let c = sanction_conn () in
  let inst = Pquic.Connection.(build_instance (prepare plugin)) in
  ignore (Pquic.Connection.attach_instance c inst);
  check Alcotest.bool (name ^ " attached") true (Pquic.Connection.has_plugin c name);
  let executed () =
    List.fold_left
      (fun acc pre -> acc + Pluginop.Pre.executed_insns pre)
      0 inst.Pquic.Connection.pres
  in
  let before = executed () in
  ignore
    (Pquic.Connection.run_op c Pluginop.Protoop.received_packet
       [| Pquic.Connection.I 1L; Pquic.Connection.I 0L |]);
  check Alcotest.bool (name ^ " removed by the sanction") false
    (Pquic.Connection.has_plugin c name);
  (match Pquic.Connection.state c with
  | Pquic.Connection.Failed _ -> ()
  | _ -> Alcotest.failf "%s: connection not killed" name);
  executed () - before

let test_fastpath_memory_sanction () =
  let executed = run_sanction midloop_evil in
  (* ~40 iterations of the loop ran before the trap *)
  check Alcotest.bool "accounting preserved across the kill" true (executed > 100)

let test_fastpath_fuel_sanction () =
  let executed = run_sanction spinning_plugin in
  (* the spin burned its whole instruction budget before the sanction *)
  check Alcotest.bool "fuel accounting preserved" true (executed >= 1_000)

(* two plugins that replace the same protocol operation: the second one
   must be rolled back (Section 2.2), the first keeps working *)
let replace_plugin name =
  let open Plc.Ast in
  {
    Pluginop.Plugin.name;
    pluglets =
      [
        {
          Pluginop.Plugin.op = Pluginop.Protoop.select_path;
          param = None;
          anchor = Pluginop.Protoop.Replace;
          code =
            Pluginop.Plugin.Source
              { name = "sp"; params = []; body = [ Return (i 0) ] };
        };
      ];
  }

let test_replace_conflict_rolls_back () =
  let p1 = replace_plugin "org.test.replace1" in
  let p2 = replace_plugin "org.test.replace2" in
  match
    transfer ~plugins:[ p1; p2 ]
      ~to_inject:[ "org.test.replace1"; "org.test.replace2" ] ()
  with
  | Some r ->
    let names = Pquic.Connection.plugin_names r.Exp.Runner.client_conn in
    check Alcotest.bool "first injected" true (List.mem "org.test.replace1" names);
    check Alcotest.bool "second rolled back" false (List.mem "org.test.replace2" names)
  | None -> Alcotest.fail "transfer failed"

(* protocol operation loop detection (Figure 3): a replace pluglet that
   re-invokes its own operation through run_protoop *)
let looping_plugin =
  let open Plc.Ast in
  {
    Pluginop.Plugin.name = "org.test.loop";
    pluglets =
      [
        {
          Pluginop.Plugin.op = Pluginop.Protoop.select_path;
          param = None;
          anchor = Pluginop.Protoop.Replace;
          code =
            Pluginop.Plugin.Source
              {
                name = "loop";
                params = [];
                body =
                  [
                    Return
                      (Call
                         ( "run_protoop",
                           [ i Pluginop.Protoop.select_path; Const (-1L); i 0; i 0; i 0 ] ));
                  ];
              };
        };
      ];
  }

let test_protoop_loop_detected () =
  match transfer ~plugins:[ looping_plugin ] ~to_inject:[ "org.test.loop" ] () with
  | Some _ -> Alcotest.fail "protocol operation loop not detected"
  | None -> ()

(* forbidden set() field: policy violation kills the plugin *)
let setter_plugin =
  let open Plc.Ast in
  {
    Pluginop.Plugin.name = "org.test.setter";
    pluglets =
      [
        {
          Pluginop.Plugin.op = Pluginop.Protoop.received_packet;
          param = None;
          anchor = Pluginop.Protoop.Post;
          code =
            Pluginop.Plugin.Source
              {
                name = "setter";
                params = [];
                body =
                  [
                    Expr (Call ("set", [ i Pluginop.Api.f_pkts_sent; i 0; i 999 ]));
                    Return (i 0);
                  ];
              };
        };
      ];
  }

let test_readonly_field_write_sanctioned () =
  match transfer ~plugins:[ setter_plugin ] ~to_inject:[ "org.test.setter" ] () with
  | Some _ -> Alcotest.fail "read-only field write not sanctioned"
  | None -> ()

(* PRE cache (Section 2.5): second connection reuses instances and the
   plugin memory starts cleanly *)
let test_cache_reuse_and_isolation () =
  let topo =
    Topology.single_path ~seed:4L { Topology.d_ms = 5.; bw_mbps = 50.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.add_plugin server Plugins.Monitoring.plugin;
  Pquic.Endpoint.add_plugin client Plugins.Monitoring.plugin;
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true (String.make 5_000 'x')));
  let reports = ref [] in
  let run_one () =
    let conn =
      Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
        ~plugins_to_inject:[ Plugins.Monitoring.name ]
    in
    conn.Pquic.Connection.on_message <-
      (fun m ->
        match Plugins.Monitoring.decode_report m with
        | Some r -> reports := r :: !reports
        | None -> ());
    conn.Pquic.Connection.on_established <-
      (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
    conn.Pquic.Connection.on_stream_data <-
      (fun _ _ ~fin -> if fin then Pquic.Connection.close conn ~reason:"done");
    ignore (Sim.run ~until:(Int64.add (Sim.now sim) (Sim.of_sec 30.)) sim)
  in
  run_one ();
  run_one ();
  check Alcotest.int "cache hits on the second connection" 1
    (Pquic.Endpoint.cache_hits client);
  check Alcotest.int "both connections reported" 2 (List.length !reports);
  (* isolation: the second connection's counters restart from zero *)
  match !reports with
  | [ second; first ] ->
    check Alcotest.bool "second report independent of first" true
      (second.Plugins.Monitoring.pkts_received
       <= first.Plugins.Monitoring.pkts_received)
  | _ -> Alcotest.fail "missing reports"

(* in-connection plugin exchange with the trust system: the server
   injects Datagram with a proof from a two-validator system and the
   client verifies it. The endpoints are seeded, so every pair built here
   gives the client connection the same CID. *)
let exchange_pair () =
  let repo = Trust.Repository.create () in
  let pvs =
    List.map
      (fun id ->
        let v = Trust.Validator.create ~id ~signing_key:("k" ^ id) () in
        Trust.Repository.register_pv repo ~id ~key:("k" ^ id);
        (id, v))
      [ "PV1"; "PV2" ]
  in
  let system = Trust.Pvsystem.create ~repo ~validators:pvs () in
  let plugin = Plugins.Datagram.plugin in
  ignore (Trust.Pvsystem.publish_and_validate system ~developer:"dev" plugin);
  Trust.Pvsystem.publish_epoch system;
  let topo =
    Topology.single_path ~seed:8L { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let cfg = { Pquic.Connection.default_config with trust_formula = "PV1|PV2" } in
  let server = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~cfg ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.add_plugin server plugin;
  server.Pquic.Endpoint.prover <-
    (fun ~name ~formula -> Trust.Pvsystem.prover system ~name ~formula);
  client.Pquic.Endpoint.verifier <- Trust.Pvsystem.verifier system ~formula:"PV1|PV2";
  server.Pquic.Endpoint.plugins_to_inject <- [ plugin.Pluginop.Plugin.name ];
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true "resp"));
  (sim, client, conn, plugin)

let test_plugin_exchange_end_to_end () =
  let sim, client, conn, plugin = exchange_pair () in
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "client cached the plugin" true
    (Pquic.Endpoint.has_plugin client plugin.Pluginop.Plugin.name);
  check Alcotest.bool "not active on the fetching connection" false
    (Pquic.Connection.has_plugin conn plugin.Pluginop.Plugin.name)

let test_abandoned_transfer_stays_with_its_connection () =
  (* a transfer's bytes belong to its connection: one abandoned half-way
     must not be prepended to a later transfer of the same plugin to a
     connection with the same CID *)
  let sim, _, conn, _ = exchange_pair () in
  (* bytes arrived and the transfer is not complete: its reassembly
     state exists from the request on *)
  let in_flight () =
    Hashtbl.fold
      (fun _ (rb, _) acc -> acc || Quic.Recvbuf.contiguous rb > 0)
      conn.Pquic.Connection.plugin_in false
  in
  while (not (in_flight ())) && Sim.run ~max_events:1 sim > 0 do
    ()
  done;
  check Alcotest.bool "transfer abandoned half-way" true (in_flight ());
  let sim, client, _, plugin = exchange_pair () in
  ignore (Sim.run ~until:(Sim.of_sec 30.) sim);
  check Alcotest.bool "fresh exchange stores the plugin" true
    (Pquic.Endpoint.has_plugin client plugin.Pluginop.Plugin.name)

let test_plugin_exchange_survives_loss () =
  (* the PLUGIN stream is reliable: the transfer completes over a lossy
     link and the cached plugin is byte-identical *)
  let repo = Trust.Repository.create () in
  let v = Trust.Validator.create ~id:"PV1" ~signing_key:"k" () in
  Trust.Repository.register_pv repo ~id:"PV1" ~key:"k";
  let system = Trust.Pvsystem.create ~repo ~validators:[ ("PV1", v) ] () in
  let plugin = Plugins.Fec.rlc_full in
  ignore (Trust.Pvsystem.publish_and_validate system ~developer:"dev" plugin);
  Trust.Pvsystem.publish_epoch system;
  let topo =
    Topology.single_path ~seed:77L
      { Topology.d_ms = 30.; bw_mbps = 5.; loss = 0.06 }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let cfg = { Pquic.Connection.default_config with trust_formula = "PV1" } in
  let server = Pquic.Endpoint.create ~cfg ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~cfg ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.add_plugin server plugin;
  server.Pquic.Endpoint.prover <-
    (fun ~name ~formula -> Trust.Pvsystem.prover system ~name ~formula);
  client.Pquic.Endpoint.verifier <- Trust.Pvsystem.verifier system ~formula:"PV1";
  server.Pquic.Endpoint.plugins_to_inject <- [ plugin.Pluginop.Plugin.name ];
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.Pquic.Connection.on_stream_data <-
        (fun id _ ~fin ->
          if fin then Pquic.Connection.write_stream c ~id ~fin:true "resp"));
  ignore (Sim.run ~until:(Sim.of_sec 120.) sim);
  check Alcotest.bool "plugin cached through a lossy transfer" true
    (Pquic.Endpoint.has_plugin client plugin.Pluginop.Plugin.name)

let fec_integrity_multi_seed =
  (* end-to-end property: whatever the loss pattern, recovered packets
     never corrupt the stream *)
  qtest ~count:6 "FEC recovery preserves stream integrity across seeds"
    QCheck2.Gen.(map Int64.of_int (int_range 1 100000))
    (fun seed ->
      let topo =
        Topology.single_path ~seed
          { Topology.d_ms = 60.; bw_mbps = 5.; loss = 0.05 }
      in
      let sim = topo.Topology.sim and net = topo.Topology.net in
      let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
      let client =
        Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
      in
      Pquic.Endpoint.add_plugin server Plugins.Fec.rlc_full;
      Pquic.Endpoint.add_plugin client Plugins.Fec.rlc_full;
      Pquic.Endpoint.listen server;
      Pquic.Endpoint.listen client;
      let payload = String.init 150_000 (fun i -> Char.chr ((i * 7) mod 256)) in
      server.Pquic.Endpoint.on_connection <-
        (fun c ->
          c.Pquic.Connection.on_stream_data <-
            (fun id _ ~fin ->
              if fin then Pquic.Connection.write_stream c ~id ~fin:true payload));
      let conn =
        Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
          ~plugins_to_inject:
            [ Plugins.Fec.rlc_full.Pluginop.Plugin.name ]
      in
      let received = Buffer.create 150_000 in
      let finished = ref false in
      conn.Pquic.Connection.on_established <-
        (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
      conn.Pquic.Connection.on_stream_data <-
        (fun _ data ~fin ->
          Buffer.add_string received data;
          if fin then finished := true);
      ignore (Sim.run ~until:(Sim.of_sec 300.) sim);
      !finished && Buffer.contents received = payload)

let test_plugin_exchange_refused_without_proof () =
  (* the server cannot prove validity: the client must not cache *)
  let topo =
    Topology.single_path ~seed:8L { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server = Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L () in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs) ~seed:2L ()
  in
  Pquic.Endpoint.add_plugin server Plugins.Datagram.plugin;
  server.Pquic.Endpoint.plugins_to_inject <- [ Plugins.Datagram.name ];
  (* default prover returns None; default verifier refuses *)
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  conn.Pquic.Connection.on_established <-
    (fun () -> Pquic.Connection.write_stream conn ~id:0 ~fin:true "GET");
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check Alcotest.bool "unproven plugin not cached" false
    (Pquic.Endpoint.has_plugin client Plugins.Datagram.name)

let tests =
  [
    ("memory_pool", [
      Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
      Alcotest.test_case "double free" `Quick test_pool_double_free;
      Alcotest.test_case "reset wipes" `Quick test_pool_reset_wipes;
      pool_no_overlap;
      pool_free_reuse;
      pool_model;
    ]);
    ("scheduler", [
      Alcotest.test_case "fifo per plugin" `Quick test_scheduler_fifo_per_plugin;
      Alcotest.test_case "drr fairness" `Quick test_scheduler_drr_fairness;
      Alcotest.test_case "oversize dropped" `Quick test_scheduler_oversize_dropped;
      Alcotest.test_case "no starvation in the engine" `Quick test_no_starvation_in_engine;
      scheduler_counts_reservations;
    ]);
    ("plugin_format", [
      Alcotest.test_case "serialize roundtrip" `Quick plugin_serialize_roundtrip;
      Alcotest.test_case "malformed rejected" `Quick test_plugin_malformed;
    ]);
    ("connection", [
      Alcotest.test_case "clean transfer" `Quick test_transfer_clean;
      Alcotest.test_case "lossy integrity" `Quick test_transfer_lossy_delivers_exact_bytes;
      Alcotest.test_case "handshake params" `Quick test_handshake_sets_params;
      lossy_seeds;
    ]);
    ("sanctions", [
      Alcotest.test_case "memory violation" `Quick test_memory_violation_kills_connection;
      Alcotest.test_case "runaway pluglet" `Quick test_runaway_plugin_stopped;
      Alcotest.test_case "fast-path memory sanction" `Quick test_fastpath_memory_sanction;
      Alcotest.test_case "fast-path fuel sanction" `Quick test_fastpath_fuel_sanction;
      Alcotest.test_case "replace conflict" `Quick test_replace_conflict_rolls_back;
      Alcotest.test_case "protoop loop" `Quick test_protoop_loop_detected;
      Alcotest.test_case "read-only field" `Quick test_readonly_field_write_sanctioned;
    ]);
    ("cache_exchange", [
      Alcotest.test_case "cache reuse + isolation" `Quick test_cache_reuse_and_isolation;
      Alcotest.test_case "exchange end-to-end" `Quick test_plugin_exchange_end_to_end;
      Alcotest.test_case "abandoned transfer not replayed" `Quick
        test_abandoned_transfer_stays_with_its_connection;
      Alcotest.test_case "exchange under loss" `Quick test_plugin_exchange_survives_loss;
      Alcotest.test_case "exchange refused" `Quick test_plugin_exchange_refused_without_proof;
      fec_integrity_multi_seed;
    ]);
  ]
