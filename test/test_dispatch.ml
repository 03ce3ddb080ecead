(* The dispatch layer in isolation: anchor ordering, the dense-array fast
   path for built-in operations, parameterized frame operations and their
   fallback, external-operation gating, and the Figure 3 protoop-loop
   sanction — all with native implementations on a bare connection, no
   pluglets or network involved. *)

module Topology = Netsim.Topology
module C = Pquic.Connection
module D = Pluginop.Dispatch
module Sim = Netsim.Sim

let check = Alcotest.check

let make_conn ?(owner = C.standalone) () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  C.create ~owner ~sim:topo.Topology.sim ~net:topo.Topology.net
    ~cfg:C.default_config ~role:C.Client
    ~local_addr:(List.hd topo.Topology.client_addrs)
    ~remote_addr:topo.Topology.server_addr ~local_cid:1L ~remote_cid:2L
    ~local_params:Quic.Transport_params.default ()

(* ids in the plugin range, clear of every built-in operation *)
let op_a = 150
let op_b = 151

let native tag trace ret =
  C.Native (tag, fun _ _ -> trace := tag :: !trace; ret)

let test_anchor_ordering () =
  let c = make_conn () in
  let trace = ref [] in
  let e = D.entry c.C.po op_a None in
  e.C.pre <- [ native "pre1" trace 0L ];
  e.C.pre <- native "pre2" trace 0L :: e.C.pre;
  e.C.replace <- Some (native "replace" trace 42L);
  e.C.post <- [ native "post" trace 0L ];
  let r = C.run_op c op_a [||] in
  check Alcotest.int64 "replace anchor provides the result" 42L r;
  (* pre anchors run in attachment order, then replace, then post *)
  check
    Alcotest.(list string)
    "pre -> replace -> post" [ "pre1"; "pre2"; "replace"; "post" ]
    (List.rev !trace)

let test_default_vs_replace () =
  let c = make_conn () in
  let default_ran = ref false in
  let default _ _ = default_ran := true; 7L in
  check Alcotest.int64 "default runs when no replace impl" 7L
    (C.run_op c op_a ~default [||]);
  check Alcotest.bool "default ran" true !default_ran;
  default_ran := false;
  D.register_native c.C.po op_a "override" (fun _ _ -> 9L);
  check Alcotest.int64 "replace overrides the default" 9L
    (C.run_op c op_a ~default [||]);
  check Alcotest.bool "default did not run" false !default_ran

let test_builtin_dense_path () =
  let c = make_conn () in
  (* the array is allocated on the first registration, not at create time *)
  check Alcotest.int "no dense array before any registration" 0
    (Pluginop.Dispatch.builtin_capacity c.C.po);
  (* connection_init already ran at create time, without an entry *)
  check Alcotest.int "no hashtable entries after create" 0
    (Pluginop.Dispatch.hashed_entries c.C.po);
  D.register_native c.C.po Pluginop.Protoop.update_rtt "muzzle" (fun _ _ -> 3L);
  check Alcotest.int "dense array covers the built-in id space"
    Pluginop.Protoop.first_plugin_op
    (Pluginop.Dispatch.builtin_capacity c.C.po);
  ignore (C.run_op c Pluginop.Protoop.packet_was_sent [||]);
  check Alcotest.int64 "built-in op dispatches through the array" 3L
    (C.run_op c Pluginop.Protoop.update_rtt [||]);
  check Alcotest.int "built-in registrations stay out of the hashtable" 0
    (Pluginop.Dispatch.hashed_entries c.C.po);
  check Alcotest.bool "find_entry sees the array entry" true
    (D.has_entry c.C.po Pluginop.Protoop.update_rtt None)

let test_parameterized_fallback () =
  let c = make_conn () in
  let op = Pluginop.Protoop.process_frame in
  D.register_native c.C.po op "generic" (fun _ _ -> 1L);
  (* no (op, Some 0x99) entry: falls back to the unparameterized one *)
  check Alcotest.int64 "fallback to unparameterized entry" 1L
    (C.run_op c op ~param:0x99 [||]);
  let e = D.entry c.C.po op (Some 0x99) in
  e.C.replace <- Some (C.Native ("specific", fun _ _ -> 2L));
  check Alcotest.int64 "parameterized entry takes precedence" 2L
    (C.run_op c op ~param:0x99 [||]);
  check Alcotest.int64 "other params still fall back" 1L
    (C.run_op c op ~param:0x42 [||]);
  check Alcotest.bool "parameterized entries live in the hashtable" true
    (Pluginop.Dispatch.hashed_entries c.C.po > 0)

let test_external_gating () =
  let c = make_conn () in
  check Alcotest.bool "no entry: no external op" true
    (C.call_external c op_b [||] = None);
  D.register_native c.C.po op_b "internal" (fun _ _ -> 5L);
  check Alcotest.bool "replace anchor is not externally callable" true
    (C.call_external c op_b [||] = None);
  let e = D.entry c.C.po op_b None in
  e.C.ext <- Some (C.Native ("entrypoint", fun _ _ -> 6L));
  check Alcotest.bool "external anchor is" true
    (C.call_external c op_b [||] = Some 6L);
  (* run_op never invokes the external anchor *)
  check Alcotest.int64 "run_op uses the replace anchor only" 5L
    (C.run_op c op_b [||])

let test_loop_detector_direct () =
  let c = make_conn () in
  D.register_native c.C.po op_a "recurse" (fun c _ -> C.run_op c op_a [||]);
  ignore (C.run_op c op_a [||]);
  match C.state c with
  | C.Failed msg ->
    check Alcotest.bool "loop named in the failure" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "direct protoop loop was not sanctioned"

let test_loop_detector_indirect () =
  let c = make_conn () in
  D.register_native c.C.po op_a "a_calls_b" (fun c _ -> C.run_op c op_b [||]);
  D.register_native c.C.po op_b "b_calls_a" (fun c _ -> C.run_op c op_a [||]);
  ignore (C.run_op c op_a [||]);
  (match C.state c with
  | C.Failed _ -> ()
  | _ -> Alcotest.fail "indirect protoop loop was not sanctioned");
  (* non-recursive chains of distinct ops are fine *)
  let c2 = make_conn () in
  D.register_native c2.C.po op_a "a_calls_b" (fun c _ -> C.run_op c op_b [||]);
  D.register_native c2.C.po op_b "leaf" (fun _ _ -> 11L);
  check Alcotest.int64 "chained ops run" 11L (C.run_op c2 op_a [||]);
  check Alcotest.bool "still open" true
    (match C.state c2 with C.Failed _ -> false | _ -> true)

(* ---- a registry that only attaching writes ------------------------- *)

let count_entries c =
  let n = ref 0 in
  D.iter_entries c.C.po (fun _ -> incr n);
  !n

(* Dispatch only reads the registry: a whole plugin-free GET, handshake to
   close, leaves it empty on both ends. *)
let test_plugin_free_registry_empty () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  match Exp.Runner.quic_transfer ~topo ~size:200_000 () with
  | Some r ->
    check Alcotest.int "client registry empty" 0
      (count_entries r.Exp.Runner.client_conn);
    check Alcotest.int "server registry empty" 0
      (count_entries (Option.get r.Exp.Runner.server_conn))
  | None -> Alcotest.fail "transfer did not complete"

let executed (inst : C.instance) =
  List.fold_left (fun a p -> a + Pluginop.Pre.executed_insns p) 0 inst.C.pres

(* Attaching a plugin mid-connection makes its anchors dispatch; removing
   it empties the registry again and its pluglets stop running, while the
   transfer carries on. *)
let test_attach_then_remove_mid_connection () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let sim = topo.Topology.sim and net = topo.Topology.net in
  let server =
    Pquic.Endpoint.create ~sim ~net ~addr:topo.Topology.server_addr ~seed:1L ()
  in
  let client =
    Pquic.Endpoint.create ~sim ~net ~addr:(List.hd topo.Topology.client_addrs)
      ~seed:2L ()
  in
  Pquic.Endpoint.listen server;
  Pquic.Endpoint.listen client;
  let body = String.make 2_000_000 'x' in
  server.Pquic.Endpoint.on_connection <-
    (fun c ->
      c.C.on_stream_data <-
        (fun id _ ~fin -> if fin then C.write_stream c ~id ~fin:true body));
  let conn =
    Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr
      ~plugins_to_inject:[]
  in
  let received = ref 0 and done_ = ref false in
  conn.C.on_established <- (fun () -> C.write_stream conn ~id:0 ~fin:true "GET");
  conn.C.on_stream_data <-
    (fun _ data ~fin ->
      received := !received + String.length data;
      if fin then done_ := true);
  ignore (Sim.run ~until:(Sim.of_sec 0.3) sim);
  check Alcotest.bool "transfer under way" true (!received > 0 && not !done_);
  check Alcotest.int "no entries before attaching" 0 (count_entries conn);
  (match C.inject_plugin conn Plugins.Monitoring.plugin with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let inst =
    Option.get (Pluginop.Plugin_host.find_plugin conn.C.po Plugins.Monitoring.name)
  in
  let at_attach = executed inst in
  ignore (Sim.run ~until:(Sim.of_sec 0.5) sim);
  let attached = executed inst in
  check Alcotest.bool "attached anchors run" true (attached > at_attach);
  C.remove_plugin conn Plugins.Monitoring.name;
  check Alcotest.int "removal empties the registry" 0 (count_entries conn);
  ignore (Sim.run ~until:(Sim.of_sec 10.) sim);
  check Alcotest.bool "transfer completes" true !done_;
  check Alcotest.int "removed pluglets no longer run" attached (executed inst)

(* A refused attach leaves the registry as it found it: the plugin hooks
   a built-in op, then claims one replace anchor twice and is rolled
   back. An empty entry left behind would send [update_rtt] through the
   op stack for the rest of the connection. *)
let conflicting_plugin =
  let open Plugins.Dsl in
  let body = [ ret0 ] in
  {
    Pluginop.Plugin.name = "org.test.conflict";
    pluglets =
      [
        pluglet ~op:Pluginop.Protoop.update_rtt ~anchor:Pluginop.Protoop.Post
          (func "post" [] body);
        pluglet ~op:op_a ~anchor:Pluginop.Protoop.Replace (func "r1" [] body);
        pluglet ~op:op_a ~anchor:Pluginop.Protoop.Replace (func "r2" [] body);
      ];
  }

let test_refused_attach_leaves_no_entries () =
  let c = make_conn () in
  (match C.inject_plugin c conflicting_plugin with
  | Ok () -> Alcotest.fail "conflicting replace anchors were accepted"
  | Error _ -> ());
  check Alcotest.(list string) "no plugin attached" [] (C.plugin_names c);
  check Alcotest.int "registry empty after the rollback" 0 (count_entries c)

(* A replace pluglet that traps is the only plugin: the built-in behaviour
   serves the op, the sanction names the plugin, and the op stack
   unwinds. *)
let trap_plugin =
  {
    Pluginop.Plugin.name = "org.test.trap";
    pluglets =
      [
        {
          Pluginop.Plugin.op = op_a;
          param = None;
          anchor = Pluginop.Protoop.Replace;
          code =
            Pluginop.Plugin.Source
              {
                Plc.Ast.name = "trap";
                params = [];
                body =
                  [ Plc.Ast.Return
                      (Plc.Ast.Load (Ebpf.Insn.W64, Plc.Ast.Const 0xDEAD_0000L)) ];
              };
        };
      ];
  }

let test_trapping_replace_sanctioned () =
  let c = make_conn () in
  (match C.inject_plugin c trap_plugin with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int64 "builtin serves the trapped op" 7L
    (C.run_op c op_a ~default:(fun _ _ -> 7L) [||]);
  (match C.state c with
  | C.Failed msg ->
    check Alcotest.bool "failure names the plugin" true
      (String.starts_with ~prefix:"plugin org.test.trap misbehaved" msg)
  | _ -> Alcotest.fail "trapping pluglet was not sanctioned");
  check Alcotest.int "op stack unwound" 0 c.C.po.Pluginop.Types.op_sp;
  check Alcotest.int "one sanction" 1 (C.stats c).C.plugin_sanctions

(* ---- frame types outside the manifest's u16 range ------------------ *)

(* [op lsl 21 lor (param + 1)] wraps into the next op for params of 2^21
   and up: parse_frame of frame type 0x400030 keys as write_frame[0x30],
   which the Datagram plugin hooks. *)
let wide_ftype = 0x400030

let test_wide_param_names_no_entry () =
  let c = make_conn () in
  (match C.inject_plugin c Plugins.Datagram.plugin with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let ft = Quic.Frame.type_datagram in
  check Alcotest.bool "parse_frame[0x30] hooked" true
    (D.has_entry c.C.po Pluginop.Protoop.parse_frame (Some ft));
  check Alcotest.bool "parse_frame[0x400030] names no entry" false
    (D.has_entry c.C.po Pluginop.Protoop.parse_frame (Some wide_ftype));
  check Alcotest.bool "nor does any param past u16" false
    (D.has_entry c.C.po Pluginop.Protoop.write_frame (Some (0x10000 + ft)))

(* Forge a 1-RTT packet carrying [payload] and hand it to [c] as if its
   peer had sent it. *)
let receive_forged ?(pn = 0L) c payload =
  let header =
    { Quic.Packet.ptype = Quic.Packet.One_rtt; spin = false;
      dcid = c.C.local_cid; scid = 2L; pn }
  in
  let packet = Quic.Packet.protect ~key:c.C.key { Quic.Packet.header; payload } in
  let p = c.C.paths.(0) in
  C.receive_datagram c
    { Netsim.Net.src = p.C.remote_addr; dst = p.C.local_addr;
      size = String.length packet; payload = C.Quic_packet packet }

(* The same frame type forged on the wire is an unknown frame: the
   connection fails on it and no plugin is blamed for the peer's bytes. *)
let test_wide_ftype_on_wire () =
  let c = make_conn () in
  (match C.inject_plugin c Plugins.Datagram.plugin with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let payload =
    let b = Buffer.create 16 in
    Quic.Varint.write_int b wide_ftype;
    Buffer.add_string b "\x00\x05hello";
    Buffer.contents b
  in
  receive_forged c payload;
  check Alcotest.string "unknown frame type"
    (Printf.sprintf "unknown frame type 0x%x" wide_ftype) c.C.close_reason;
  check Alcotest.int "no plugin sanctioned" 0 (C.stats c).C.plugin_sanctions

(* Frames that change nothing grow nothing: MAX_STREAM_DATA naming 100
   fresh stream ids opens no stream (there is no stream-level flow
   control), and PLUGIN_PROOF frames are not kept (a proof travels with
   its plugin on the plugin stream). *)
let test_hostile_frames_grow_no_state () =
  let c = make_conn () in
  let streams = Hashtbl.length c.C.streams in
  let words = Obj.reachable_words (Obj.repr c) in
  let frames =
    List.init 100 (fun k ->
        Quic.Frame.Max_stream_data { id = 4 * (k + 1); max = 1_000_000L })
    @ List.init 4 (fun k ->
          Quic.Frame.Plugin_proof
            { plugin = Printf.sprintf "org.test.p%d" k;
              proof = String.make 64 'p' })
  in
  receive_forged c (String.concat "" (List.map Frame_ref.to_string frames));
  check Alcotest.string "connection still open" "" c.C.close_reason;
  check Alcotest.int "no stream opened" streams (Hashtbl.length c.C.streams);
  let grown = (Obj.reachable_words (Obj.repr c) - words) * (Sys.word_size / 8) in
  check Alcotest.bool
    (Printf.sprintf "connection grew %d B (< 10 kB)" grown)
    true (grown < 10_000)

(* A peer may open only the streams this side advertised: the client
   writes on 101 stream ids, and the server fails its connection on the
   101st instead of adding it to the stream table. *)
let test_peer_streams_bounded () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
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
  let accepted = ref None in
  server.Pquic.Endpoint.on_connection <- (fun c -> accepted := Some c);
  let conn = Pquic.Endpoint.connect client ~remote_addr:topo.Topology.server_addr in
  let limit = Quic.Transport_params.default.max_streams in
  conn.C.on_established <-
    (fun () ->
      for k = 0 to limit do
        C.write_stream conn ~id:(4 * k) ~fin:true "x"
      done);
  ignore (Sim.run ~until:(Sim.of_sec 5.) sim);
  match !accepted with
  | None -> Alcotest.fail "server accepted no connection"
  | Some c ->
    check Alcotest.string "failed on the stream limit"
      (Printf.sprintf "stream limit: peer opened more than %d streams" limit)
      c.C.close_reason;
    check Alcotest.bool
      (Printf.sprintf "%d streams held (<= %d)" (Hashtbl.length c.C.streams) limit)
      true
      (Hashtbl.length c.C.streams <= limit)

(* The peer's stream bytes are bounded by the MAX_DATA this side
   advertised, summed over streams by each stream's highest offset
   (RFC 9000 §4.1). A peer that sends in order never exceeds it, because
   the limit grows as data is read; bytes parked beyond a hole do. Two
   such fragments on two streams fill the limit exactly, a duplicate
   costs nothing, and one byte more fails the connection before it is
   stored; a first frame past the limit opens no stream. *)
let test_stream_data_bounded_by_max_data () =
  let c = make_conn () in
  let limit = Int64.to_int c.C.max_data_local in
  let stream ?(len = 100) id offset =
    Frame_ref.to_string
      (Quic.Frame.Stream
         { id; offset = Int64.of_int offset; fin = false;
           data = String.make len 's' })
  in
  let half = limit / 2 in
  receive_forged ~pn:0L c (stream 1 (half - 100));
  receive_forged ~pn:1L c (stream 1 (half - 100));
  receive_forged ~pn:2L c (stream 5 (half - 100));
  check Alcotest.string "at the limit: still open" "" c.C.close_reason;
  receive_forged ~pn:3L c (stream ~len:1 5 half);
  check Alcotest.string "one byte past the limit"
    (Printf.sprintf "flow control: peer sent past the %d-byte limit" limit)
    c.C.close_reason;
  let s5 = Hashtbl.find c.C.streams 5 in
  Quic.Recvbuf.insert s5.C.recvb ~offset:0 ~fin:false
    (String.make (half - 100) 'h');
  check Alcotest.int "refused byte not stored" half
    (String.length (Quic.Recvbuf.read s5.C.recvb));
  let c = make_conn () in
  receive_forged c (stream 9 limit);
  check Alcotest.string "first frame past the limit"
    (Printf.sprintf "flow control: peer sent past the %d-byte limit" limit)
    c.C.close_reason;
  check Alcotest.int "no stream opened" 0 (Hashtbl.length c.C.streams)

(* PLUGIN chunks count only for transfers this side asked for: 999
   partial chunks under fresh names and one complete, well-formed
   transfer of a real plugin, none of them requested, leave no
   reassembly state and reach no cache, even with a verifier that
   accepts everything. *)
let test_unrequested_plugin_chunks_dropped () =
  let cached = ref [] in
  let c =
    make_conn
      ~owner:
        {
          C.standalone with
          verify_plugin = (fun _ ~name:_ ~bytes:_ ~proof:_ -> true);
          plugin_received = (fun _ p -> cached := p :: !cached);
        }
      ()
  in
  let plugin = Plugins.Monitoring.plugin in
  let complete =
    let compressed = Compress.Lzss.compress (Pluginop.Plugin.serialize plugin) in
    let b = Buffer.create (4 + String.length compressed) in
    Buffer.add_int32_be b 0l;
    Buffer.add_string b compressed;
    Quic.Frame.Plugin_chunk
      { plugin = plugin.Pluginop.Plugin.name; offset = 0L; fin = true;
        data = Buffer.contents b }
  in
  let partial k =
    Quic.Frame.Plugin_chunk
      { plugin = Printf.sprintf "org.test.p%d" k; offset = 0L; fin = false;
        data = String.make 16 'd' }
  in
  let frames = complete :: List.init 999 partial in
  List.iteri
    (fun k chunk ->
      receive_forged ~pn:(Int64.of_int k) c (Frame_ref.to_string chunk))
    frames;
  check Alcotest.string "connection still open" "" c.C.close_reason;
  check Alcotest.int "no reassembly state" 0 (Hashtbl.length c.C.plugin_in);
  check Alcotest.int "nothing cached" 0 (List.length !cached)

(* The crypto stream holds at most 4,096 bytes past its read offset
   (RFC 9000 §7.5): a CRYPTO frame ending exactly there is held, one
   ending a byte further fails the connection before it is stored, and a
   flood of 1,000 frames of 1,000 bytes at gapped offsets fails the
   connection on its first frame and grows it by almost nothing. *)
let test_crypto_flood_bounded () =
  let crypto offset =
    Frame_ref.to_string
      (Quic.Frame.Crypto
         { offset = Int64.of_int offset; data = String.make 1000 'c' })
  in
  let exceeded =
    "crypto buffer exceeded: CRYPTO data more than 4096 bytes past the read \
     offset"
  in
  let c = make_conn () in
  receive_forged ~pn:0L c (crypto 3096);
  check Alcotest.string "ends at the limit: still open" "" c.C.close_reason;
  receive_forged ~pn:1L c (crypto 3097);
  check Alcotest.string "one byte past the limit" exceeded c.C.close_reason;
  let c = make_conn () in
  let words = Obj.reachable_words (Obj.repr c) in
  for k = 0 to 999 do
    receive_forged ~pn:(Int64.of_int k) c (crypto (100_000 + (2000 * k)))
  done;
  check Alcotest.string "flood fails the connection" exceeded c.C.close_reason;
  let grown = (Obj.reachable_words (Obj.repr c) - words) * (Sys.word_size / 8) in
  check Alcotest.bool
    (Printf.sprintf "connection grew %d B (< 10 kB)" grown)
    true (grown < 10_000)

(* A repeated PLUGIN_VALIDATE — the requester re-sends it whenever its
   packet is declared lost — is answered once: the transfer keeps its
   send buffer (it does not restart at offset 0) and one PLUGIN_PROOF is
   queued, through an endpoint whose prover serves the plugin. *)
let test_plugin_validate_answered_once () =
  let topo =
    Topology.single_path ~seed:7L
      { Topology.d_ms = 10.; bw_mbps = 20.; loss = 0. }
  in
  let ep =
    Pquic.Endpoint.create ~sim:topo.Topology.sim ~net:topo.Topology.net
      ~addr:topo.Topology.server_addr ~seed:1L ()
  in
  let plugin = Plugins.Monitoring.plugin in
  let name = plugin.Pluginop.Plugin.name in
  Pquic.Endpoint.add_plugin ep plugin;
  ep.Pquic.Endpoint.prover <- (fun ~name:_ ~formula:_ -> Some "proof");
  let c =
    Pquic.Endpoint.connect ep ~remote_addr:(List.hd topo.Topology.client_addrs)
  in
  let validate pn =
    receive_forged ~pn c
      (Frame_ref.to_string
         (Quic.Frame.Plugin_validate { plugin = name; formula = "any" }))
  in
  validate 0L;
  let sb = Hashtbl.find c.C.plugin_out name in
  validate 1L;
  check Alcotest.bool "same send buffer" true
    (Hashtbl.find c.C.plugin_out name == sb);
  let proofs =
    Queue.fold
      (fun n f -> match f with Quic.Frame.Plugin_proof _ -> n + 1 | _ -> n)
      0 c.C.ctrl
  in
  check Alcotest.int "one PLUGIN_PROOF queued" 1 proofs

(* Nor may a pluglet bring one in: reserving a frame of that type, or
   running an operation with it as the param, is an API violation. *)
let wide_caller name body =
  let open Plugins.Dsl in
  {
    Pluginop.Plugin.name;
    pluglets =
      [ pluglet ~op:op_a ~anchor:Pluginop.Protoop.Replace (func name [] body) ];
  }

let test_wide_ftype_from_pluglet () =
  let open Plugins.Dsl in
  List.iter
    (fun (plugin, helper) ->
      let c = make_conn () in
      (match C.inject_plugin c plugin with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      ignore (C.run_op c op_a [||]);
      check Alcotest.string (helper ^ " rejects the frame type")
        (Printf.sprintf
           "plugin %s misbehaved: API violation: %s out of range"
           plugin.Pluginop.Plugin.name
           (if helper = "reserve_frames" then
              Printf.sprintf "reserve_frames: frame type 0x%x" wide_ftype
            else Printf.sprintf "run_protoop: param 0x%x" wide_ftype))
        c.C.close_reason)
    [
      ( wide_caller "org.test.wide-reserve"
          [ reserve wide_ftype (i 16) 0 (i 0); Plc.Ast.Return (i 0) ],
        "reserve_frames" );
      ( wide_caller "org.test.wide-run"
          [ Plc.Ast.Return
              (run_protoop Pluginop.Protoop.parse_frame (i wide_ftype) (i 0)
                 (i 0) (i 0)) ],
        "run_protoop" );
    ]

let tests =
  [
    ("dispatch", [
      Alcotest.test_case "anchor ordering" `Quick test_anchor_ordering;
      Alcotest.test_case "default vs replace" `Quick test_default_vs_replace;
      Alcotest.test_case "builtin dense path" `Quick test_builtin_dense_path;
      Alcotest.test_case "parameterized fallback" `Quick test_parameterized_fallback;
      Alcotest.test_case "external gating" `Quick test_external_gating;
      Alcotest.test_case "loop detector (direct)" `Quick test_loop_detector_direct;
      Alcotest.test_case "loop detector (indirect)" `Quick test_loop_detector_indirect;
      Alcotest.test_case "plugin-free registry stays empty" `Quick
        test_plugin_free_registry_empty;
      Alcotest.test_case "attach then remove mid-connection" `Quick
        test_attach_then_remove_mid_connection;
      Alcotest.test_case "refused attach leaves no entries" `Quick
        test_refused_attach_leaves_no_entries;
      Alcotest.test_case "trapping replace sanctioned" `Quick
        test_trapping_replace_sanctioned;
      Alcotest.test_case "wide param names no entry" `Quick
        test_wide_param_names_no_entry;
      Alcotest.test_case "wide frame type on the wire" `Quick
        test_wide_ftype_on_wire;
      Alcotest.test_case "wide frame type from a pluglet" `Quick
        test_wide_ftype_from_pluglet;
      Alcotest.test_case "hostile frames grow no state" `Quick
        test_hostile_frames_grow_no_state;
      Alcotest.test_case "peer streams bounded by max_streams" `Quick
        test_peer_streams_bounded;
      Alcotest.test_case "unrequested plugin chunks dropped" `Quick
        test_unrequested_plugin_chunks_dropped;
      Alcotest.test_case "CRYPTO flood bounded" `Quick
        test_crypto_flood_bounded;
      Alcotest.test_case "PLUGIN_VALIDATE answered once" `Quick
        test_plugin_validate_answered_once;
      Alcotest.test_case "stream data bounded by MAX_DATA" `Quick
        test_stream_data_bounded_by_max_data;
    ]);
  ]
